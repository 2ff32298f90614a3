"""Per-layer probes for the benchmark's traced pass.

The traced pass measures each layer from outside the program.  It
replaces every function named in :data:`PROBES` with a timing wrapper,
runs the experiment, and puts the originals back.  A method is replaced
on its class.  A module-level function is replaced in its own module and
in every ``repro`` module that bound it with ``from ... import``
(``ttl_flood`` in ``core/socialtube.py`` and ``baselines/nettube.py``,
``simulate_playback`` in ``experiments/runner.py``).  Nothing under
``src/`` knows it is being measured.

Self time
    Each wrapper pushes a frame on one stack.  A call's self time is its
    duration minus the time spent in wrapped calls it made.  Scheduler
    callbacks are frames as well (``sim.cb.<kind>``): their self time is
    the runner glue (``experiments.runner.self_s``), and the root frame's
    self time is the engine loop (``sim.engine.self_s``).  The self times
    therefore add up to the run's wall time, less the probes' own
    bookkeeping for the ratio metrics; ``layer_coverage`` is that sum
    divided by the run time.

Refactor resilience
    A target that no longer exists is reported as missing.  Its metrics
    read ``None`` and a warning goes to stderr, but the run goes on and
    the end-to-end metrics are untouched.

Functions called more than about a million times per run (the
``TraceDataset`` accessors, ``LinkTable.neighbors``, ``_is_alive``) are
deliberately not wrapped; their time lands in the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Stat:
    """Counters of one probe (or one callback kind)."""

    calls: int = 0
    #: Self time for a function probe; inclusive time for a callback kind.
    seconds: float = 0.0
    #: Useful outcomes and attempts behind the probe's ratio metric.
    useful: float = 0.0
    attempted: float = 0.0


#: Restore marker for a method the probed class inherited rather than defined.
_INHERITED = object()


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    """Argument ``name`` of a call, passed by position ``index`` or by keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_top_videos(stat: Stat, args: tuple, kwargs: dict, result: Any) -> None:
    server = args[0]
    channel = _arg(args, kwargs, 1, "channel_id")
    stat.useful += len(result)
    stat.attempted += len(server.catalog.videos_of_channel(channel))


def _observe_category_picks(stat: Stat, args: tuple, kwargs: dict, result: Any) -> None:
    server = args[0]
    channels = server.catalog.channels_of_category(_arg(args, kwargs, 1, "category_id"))
    stat.useful += len(result)
    stat.attempted += sum(map(len, map(server.channel_members, channels)))


def _observe_flood(stat: Stat, args: tuple, kwargs: dict, result: Any) -> None:
    stat.useful += result.found is not None
    stat.attempted += 1


def _observe_connect(stat: Stat, args: tuple, kwargs: dict, result: Any) -> None:
    stat.useful += result
    stat.attempted += 1


@dataclass(frozen=True)
class Probe:
    """One row of the probe table.

    ``targets`` are dotted paths ``module:function``, ``module:Class.method``
    or ``module:Class.prefix*`` (every public method whose name starts with
    ``prefix``); the metrics sum over all targets.
    """

    metric: str
    targets: Tuple[str, ...]
    #: Full name of a useful/attempted ratio fed by ``observe``.
    ratio: Optional[str] = None
    observe: Optional[Callable[[Stat, tuple, dict, Any], None]] = None
    #: "call" emits ``.calls`` and ``.self_s``; "seconds" emits ``<metric>_s``;
    #: "schedule" wraps the callback handed to the scheduler and emits ``.calls``.
    kind: str = "call"


_SERVER = "repro.net.server:CentralServer."
_STRUCTURE = "repro.core.structure:HierarchicalStructure."
_SOCIALTUBE = "repro.core.socialtube:SocialTubeProtocol."
_NETTUBE = "repro.baselines.nettube:NetTubeProtocol."
_SELECTOR = "repro.workload.selection:VideoSelector."
_LINKS = "repro.overlay.links:LinkTable."


def _one(metric: str, target: str, **extra: Any) -> Probe:
    return Probe(metric, (target,), **extra)


#: Every wrapped function, keyed by the metric prefix it reports under.
PROBES: Tuple[Probe, ...] = (
    _one("sim.engine.schedule", "repro.sim.engine:EventScheduler.schedule_at", kind="schedule"),
    _one(
        "net.server.top_videos_of_channel",
        _SERVER + "top_videos_of_channel",
        ratio="net.server.top_videos_of_channel.returned_per_ranked",
        observe=_observe_top_videos,
    ),
    _one(
        "net.server.random_members_per_channel_in_category",
        _SERVER + "random_members_per_channel_in_category",
        # Names are capped at 64 characters, hence not "returned_per_shuffled".
        ratio="net.server.random_members_per_channel_in_category.pick_ratio",
        observe=_observe_category_picks,
    ),
    *(
        _one(f"net.server.{name}", _SERVER + name)
        for name in (
            "random_channel_member",
            "find_holder_in_category",
            "random_video_overlay_members",
            "current_watchers",
            "node_offline",
            "serve",
        )
    ),
    Probe(
        "net.server.tracker_writes",
        tuple(
            _SERVER + name
            for name in (
                "node_online",
                "register_channel_member",
                "unregister_channel_member",
                "register_video_overlay_member",
                "unregister_video_overlay_member",
            )
        ),
    ),
    _one("net.bandwidth.admit", "repro.net.bandwidth:SharedUploadLink.admit"),
    _one("net.streaming.simulate_playback", "repro.net.streaming:simulate_playback"),
    Probe(
        "net.latency.sample",
        (
            "repro.net.latency:PlanarLatencyModel.sample",
            "repro.net.latency:LatencyModel.rtt",
        ),
    ),
    _one(
        "overlay.flood.ttl_flood",
        "repro.overlay.flood:ttl_flood",
        ratio="overlay.flood.hit_ratio",
        observe=_observe_flood,
    ),
    _one(
        "overlay.links.connect",
        _LINKS + "connect",
        ratio="overlay.links.connect.accept_ratio",
        observe=_observe_connect,
    ),
    _one("overlay.links.disconnect", _LINKS + "disconnect"),
    _one("overlay.links.drop_all", _LINKS + "drop_all"),
    *(
        _one(f"core.structure.{name}", _STRUCTURE + name)
        for name in ("maintain", "enter_channel", "rejoin", "leave", "crash", "repair_crashed")
    ),
    *(
        _one(f"core.socialtube.{name}", _SOCIALTUBE + name)
        for name in ("locate", "select_prefetch", "prefetch_source")
    ),
    _one("core.prefetch.candidates", "repro.core.prefetch:ChannelPrefetcher.candidates"),
    *(
        _one(f"baselines.nettube.{name}", _NETTUBE + name)
        for name in (
            "locate",
            "select_prefetch",
            "prefetch_source",
            "on_maintenance",
            "on_watch_started",
        )
    ),
    *(
        _one(f"workload.selection.{name}", _SELECTOR + name)
        for name in ("next_video", "start_session")
    ),
    _one("metrics.record", "repro.metrics.collectors:MetricsCollector.record_*"),
    _one("metrics.summarize", "repro.metrics.collectors:MetricsCollector.summarize", kind="seconds"),
    _one("faults.injector", "repro.faults.injector:FaultInjector.*"),
)

#: Runner callbacks by function name, mapped to the reported kind.
CALLBACK_KINDS: Dict[str, str] = {
    "_start_session": "start_session",
    "_finish_video": "finish_video",
    "_request_next_video": "request_next_video",
    "_crash_node": "crash_node",
    "_repair_after_crash": "repair_after_crash",
    "_attempt_failover": "attempt_failover",
    **{
        name: "infra_fault"
        for name in (
            "_community_crash",
            "_tracker_outage_begin",
            "_tracker_outage_end",
            "_partition_begin",
            "_partition_end",
            "_flash_crowd_begin",
            "_flash_crowd_end",
        )
    },
}


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced pass reports, with its unit."""
    units = {"sim.engine.self_s": "s"}
    for kind in dict.fromkeys(CALLBACK_KINDS.values()):
        units[f"sim.cb.{kind}.calls"] = "count"
        units[f"sim.cb.{kind}.incl_s"] = "s"
    units["experiments.runner.self_s"] = "s"
    units["experiments.runner_init_s"] = "s"
    units["trace.synthesize_s"] = "s"
    for probe in PROBES:
        if probe.kind == "seconds":
            units[f"{probe.metric}_s"] = "s"
            continue
        units[f"{probe.metric}.calls"] = "count"
        if probe.kind == "call":
            units[f"{probe.metric}.self_s"] = "s"
        if probe.ratio:
            units[probe.ratio] = "ratio"
    units["net.server.tracker_lookups"] = "count"
    units["net.server.lookup_failures"] = "count"
    units["trace_overhead_pct"] = "%"
    units["layer_coverage"] = "ratio"
    return units


def _resolve(target: str) -> List[Tuple[Any, str, Callable]]:
    """``(owner, attribute, function)`` for each function a target names.

    Empty when the module, class or function no longer exists.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return []
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return []
    if attr.endswith("*"):
        prefix = attr[:-1]
        names = sorted(
            name
            for name, value in vars(owner).items()
            if name.startswith(prefix) and not name.startswith("_") and callable(value)
        )
    else:
        names = [attr] if callable(getattr(owner, attr, None)) else []
    return [(owner, name, getattr(owner, name)) for name in names]


class Recorder:
    """Installs the probe table and accumulates what the wrappers see."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {probe.metric: Stat() for probe in PROBES}
        self.callbacks: Dict[str, Stat] = {
            kind: Stat() for kind in dict.fromkeys(CALLBACK_KINDS.values())
        }
        #: Callbacks of no known kind: still frames, reported only as a warning.
        self.unknown_callbacks: Dict[str, int] = {}
        self.glue = Stat()
        self.missing: Dict[str, List[str]] = {}
        #: Frame stack; entry 0 is the root (the engine loop).
        self.stack: List[float] = [0.0]
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for probe in PROBES:
            found = False
            for target in probe.targets:
                resolved = _resolve(target)
                if not resolved:
                    self.missing.setdefault(probe.metric, []).append(target)
                for owner, name, fn in resolved:
                    found = True
                    self._replace(owner, name, fn, self._wrap(probe, fn))
            if not found:
                print(
                    f"warning: probe {probe.metric}: none of {list(probe.targets)} "
                    "exists; its metrics read null",
                    file=sys.stderr,
                )
            elif probe.metric in self.missing:
                print(
                    f"warning: probe {probe.metric}: {self.missing.pop(probe.metric)} "
                    "no longer exist; the metric sums the remaining targets",
                    file=sys.stderr,
                )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._restore.clear()

    def _replace(self, owner: Any, name: str, fn: Callable, wrapper: Callable) -> None:
        self._restore.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, wrapper)
        if isinstance(owner, type):
            return
        # A module-level function: rebind the copies ``from ... import`` made.
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, alias, fn))
                    setattr(module, alias, wrapper)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        if probe.kind == "schedule":
            return self._wrap_schedule(fn, self.stats[probe.metric])
        return self._wrap_call(fn, self.stats[probe.metric], probe.observe)

    def _wrap_call(
        self, fn: Callable, stat: Stat, observe: Optional[Callable]
    ) -> Callable:
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def probe(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.seconds += elapsed - stack.pop()
                stack[-1] += elapsed
            if observe is not None:
                # Charged to the caller's children but to no one's self
                # time: bookkeeping shows up as missing layer_coverage.
                mark = clock()
                observe(stat, args, kwargs, result)
                stack[-1] += clock() - mark
            return result

        return probe

    def _wrap_schedule(self, schedule_at: Callable, stat: Stat) -> Callable:
        @functools.wraps(schedule_at)
        def probe(scheduler: Any, when: float, fn: Callable, *args: Any) -> Any:
            stat.calls += 1
            return schedule_at(scheduler, when, self._wrap_callback(fn), *args)

        return probe

    def _wrap_callback(self, fn: Callable) -> Callable:
        name = getattr(fn, "__name__", repr(fn))
        kind = CALLBACK_KINDS.get(name)
        if kind is None:
            self.unknown_callbacks[name] = self.unknown_callbacks.get(name, 0) + 1
            stat = Stat()
        else:
            stat = self.callbacks[kind]
        stack, glue, clock = self.stack, self.glue, time.perf_counter

        @functools.wraps(fn)
        def callback(*args: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.seconds += elapsed
                glue.seconds += elapsed - stack.pop()
                stack[-1] += elapsed

        return callback

    # -- measurement ---------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (call after set-up, before the timed run)."""
        for stat in (*self.stats.values(), *self.callbacks.values(), self.glue):
            stat.calls, stat.seconds, stat.useful, stat.attempted = 0, 0.0, 0.0, 0.0
        self.unknown_callbacks.clear()
        self.stack[:] = [0.0]

    def layer_metrics(self, run_s: float) -> Dict[str, Optional[float]]:
        """Per-layer metrics of a run that took ``run_s`` seconds at the root."""
        if self.unknown_callbacks:
            print(
                f"warning: callbacks of unknown kind {self.unknown_callbacks} "
                "are charged to experiments.runner.self_s only",
                file=sys.stderr,
            )
        out: Dict[str, Optional[float]] = {"sim.engine.self_s": run_s - self.stack[0]}
        for kind, stat in self.callbacks.items():
            out[f"sim.cb.{kind}.calls"] = stat.calls
            out[f"sim.cb.{kind}.incl_s"] = stat.seconds
        out["experiments.runner.self_s"] = self.glue.seconds
        attributed = out["sim.engine.self_s"] + self.glue.seconds
        for probe in PROBES:
            missing = probe.metric in self.missing
            stat = self.stats[probe.metric]
            if not missing and probe.kind != "schedule":
                attributed += stat.seconds
            ratio = stat.useful / stat.attempted if stat.attempted else 0.0
            if probe.kind == "seconds":
                values = {f"{probe.metric}_s": stat.seconds}
            else:
                values = {f"{probe.metric}.calls": stat.calls}
                if probe.kind == "call":
                    values[f"{probe.metric}.self_s"] = stat.seconds
                if probe.ratio:
                    values[probe.ratio] = ratio
            out.update({name: None if missing else v for name, v in values.items()})
        out["layer_coverage"] = attributed / run_s
        return out
