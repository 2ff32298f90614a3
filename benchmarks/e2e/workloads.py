"""The benchmark's workloads and the two passes it makes over each.

Each workload builds an :class:`ExperimentSpec` and hands it to the
public :class:`ExperimentRunner`.  The untraced pass times cold set-ups
and repeated runs against the host speed :mod:`hostspeed` samples; the
traced pass runs once more with the probe table of :mod:`probes`
installed.  Both check every run's output.

Seeds: ``seed`` is the simulation seed (``SimulationConfig.seed``, the
root of every run-time random stream).  ``trace_seed`` picks the
synthesized corpus (``TraceConfig.seed``) and defaults to the corpus the
canonical scales use, so that runs at different simulation seeds do the
same amount of work on the same catalogue; see README.md for why.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.faults.plan import FaultPlan
from repro.trace.synthesizer import TraceConfig

import hostspeed
import probes

#: The corpus seed of every canonical scale (``TraceConfig`` default).
CORPUS_SEED = TraceConfig().seed
#: Cold set-ups timed per untraced pass before its runs, each of which
#: makes one more; ``setup_s`` is the median of them all.
SETUP_SAMPLES = 7


@dataclass(frozen=True)
class Workload:
    """One benchmark input: protocol, corpus, session plan and fault plan."""

    name: str
    protocol: str
    #: True for the Table I corpus (10,000 users), False for ``default_scale``.
    table1_corpus: bool
    sessions: int
    videos: int
    faults: bool

    def config(self, seed: int, trace_seed: int, smoke: bool) -> SimulationConfig:
        if smoke:
            base = SimulationConfig.smoke_scale(seed)
            plan = {}
        else:
            scale = SimulationConfig.paper_scale if self.table1_corpus else SimulationConfig.default_scale
            base = scale(seed)
            plan = {"sessions_per_user": self.sessions, "videos_per_session": self.videos}
        return replace(base, trace=replace(base.trace, seed=trace_seed), **plan)

    def spec(self, seed: int, trace_seed: int, smoke: bool) -> ExperimentSpec:
        return ExperimentSpec(
            protocol=self.protocol,
            config=self.config(seed, trace_seed, smoke),
            faults=FaultPlan.demo() if self.faults else None,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("socialtube_1k", "socialtube", False, sessions=2, videos=5, faults=False),
        Workload("socialtube_10k", "socialtube", True, sessions=1, videos=1, faults=False),
        Workload("nettube_1k", "nettube", False, sessions=2, videos=5, faults=False),
        Workload("socialtube_churn_1k", "socialtube", False, sessions=4, videos=2, faults=True),
    )
}


def digest(result: ExperimentResult) -> str:
    """sha256 of the run's rendered rows: equal digests, equal outputs."""
    return hashlib.sha256("\n".join(result.render_rows()).encode()).hexdigest()


def check(workload: Workload, runner: ExperimentRunner, result: ExperimentResult) -> List[str]:
    """Why one run's output is wrong; empty when it is right."""
    cfg = runner.config
    planned = cfg.num_nodes * cfg.sessions_per_user * cfg.videos_per_session
    requests = result.metrics.num_requests
    errors = []
    if workload.faults:
        # Crashes cut sessions short, so only an upper bound holds.
        if not 0 < requests <= planned:
            errors.append(f"num_requests {requests} outside (0, {planned}]")
    else:
        events = cfg.num_nodes * cfg.sessions_per_user * (cfg.videos_per_session + 1)
        if requests != planned:
            errors.append(f"num_requests {requests} != {planned}")
        if result.events_processed != events:
            errors.append(f"events_processed {result.events_processed} != {events}")
    if workload.protocol == "socialtube":
        violations = runner.protocol.structure.check_invariants()
        if violations:
            errors.append(f"{len(violations)} overlay invariant violations, e.g. {violations[0]}")
    return errors


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cold_setup(spec: ExperimentSpec, clock: hostspeed.HostClock) -> tuple:
    """Clear the trace cache, then synthesize the trace and construct the
    runner between two marks of ``clock``: ((begin, end), runner)."""
    gc.collect()
    shared_trace_cache.clear()
    begin = clock.now()
    runner = ExperimentRunner(spec)
    return (begin, clock.now()), runner


def _timed_run(workload: Workload, spec: ExperimentSpec, clock: hostspeed.HostClock) -> dict:
    """One cold set-up and run; its ``marks`` are read once the clock stops."""
    (begin, built), runner = _cold_setup(spec, clock)
    result = runner.run()
    end = clock.now()
    return {
        "marks": (begin, built, end),
        "events": result.events_processed,
        "requests": result.metrics.num_requests,
        "digest": digest(result),
        "startup_delay_ms_mean": result.metrics.startup_delay_ms_mean,
        "server_fallback_fraction": result.metrics.server_fallback_fraction,
        "errors": check(workload, runner, result),
    }


def untraced_pass(
    workload: Workload,
    seed: int,
    trace_seed: int,
    smoke: bool,
    repeats: int,
    seconds: float = 0.0,
) -> dict:
    """Cold set-ups, then timed runs: at least ``repeats``, and more while
    another one is expected to fit in ``seconds``, counted from the start
    of the pass.

    A :class:`hostspeed.HostClock` samples the host's speed throughout.
    Every set-up and run is reported twice: as the program's own time
    (``setup_s``, ``run_s``, ``wall_s``: wall time less the clock's
    handler) and as that time scaled to the reference host
    (``scaled_*``), which is what the end-to-end metrics use.
    """
    begin = time.perf_counter()
    spec = workload.spec(seed, trace_seed, smoke)
    # The probe's memory stays resident all pass; keep it out of peak_rss_mb.
    rss_before_clock = _max_rss_kb()
    clock = hostspeed.HostClock()
    clock_kb = _max_rss_kb() - rss_before_clock
    clock.start()
    try:
        setup_marks = [_cold_setup(spec, clock)[0] for _ in range(SETUP_SAMPLES)]
        runs: List[dict] = []
        while True:
            unit_begin = time.perf_counter()
            runs.append(_timed_run(workload, spec, clock))
            now = time.perf_counter()
            if len(runs) >= repeats and now + (now - unit_begin) - begin > seconds:
                break
    finally:
        clock.stop()
    setups = [
        {"setup_s": clock.net(*marks), "scaled_s": clock.scaled(*marks)} for marks in setup_marks
    ]
    for run in runs:
        start, built, end = run.pop("marks")
        run["setup_s"] = clock.net(start, built)
        run["run_s"] = clock.net(built, end)
        run["wall_s"] = clock.net(start, end)
        run["scaled_setup_s"] = clock.scaled(start, built)
        run["scaled_run_s"] = clock.scaled(built, end)
        run["scaled_wall_s"] = clock.scaled(start, end)
        run["host_speed"] = clock.speed(start[0], end[0])
    return {
        "setups": setups,
        "runs": runs,
        "host_samples": len(clock.speeds),
        "peak_rss_mb": (_max_rss_kb() - clock_kb) / 1024.0,
    }


def traced_pass(workload: Workload, seed: int, trace_seed: int, smoke: bool) -> dict:
    """One run with every probe installed; returns the per-layer metrics."""
    spec = workload.spec(seed, trace_seed, smoke)
    recorder = probes.Recorder()
    recorder.install()
    try:
        gc.collect()
        shared_trace_cache.clear()
        start = time.perf_counter()
        dataset = shared_trace_cache.dataset_for(spec.config.trace)
        synthesized = time.perf_counter()
        runner = ExperimentRunner(spec, dataset=dataset)
        built = time.perf_counter()
        recorder.reset()
        # The clock's handler time lands in whichever wrapper is running,
        # so the layer metrics use the run's whole wall time; the
        # overhead against the untraced runs uses the scaled time.
        clock = hostspeed.HostClock()
        clock.start()
        try:
            run_start = clock.now()
            result = runner.run()
            run_end = clock.now()
        finally:
            clock.stop()
        run_s = run_end[0] - run_start[0]
        layers: Dict[str, Optional[float]] = recorder.layer_metrics(run_s)
    finally:
        recorder.uninstall()
    layers["trace.synthesize_s"] = synthesized - start
    layers["experiments.runner_init_s"] = built - synthesized
    layers["net.server.tracker_lookups"] = result.tracker_lookups
    layers["net.server.lookup_failures"] = result.metrics.tracker_lookup_failures
    return {
        "scaled_run_s": clock.scaled(run_start, run_end),
        "digest": digest(result),
        "errors": check(workload, runner, result),
        "layers": layers,
    }
