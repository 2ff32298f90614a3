# shard: module=shard-local -- one coordinator per run, owned by the runner
"""``ShardedScheduler``: the exact-mode sharded coordinator.

This is the second implementation of the
:class:`repro.sim.scheduler.Scheduler` protocol.  It wraps one inner
:class:`repro.sim.engine.EventScheduler` and adds the sharding layer on
top:

* every scheduled event is tagged with its **owning shard** (resolved
  by the ``owner_of`` hook, typically a
  :class:`repro.shard.partition.CommunityPartition` lookup on the
  callback's node-id argument);
* a send whose destination differs from the currently executing shard
  is a **cross-shard interaction** and is recorded as a typed message
  in the :class:`repro.shard.mailbox.Mailbox`;
* the run loop advances in conservative **lookahead windows** of
  ``lookahead_s`` (the minimum cross-shard one-way latency from
  :meth:`repro.net.latency.LatencyModel.min_one_way_s`), counting a
  barrier whenever the clock crosses a window boundary.  A zero
  lookahead degenerates to one barrier per event -- fully serialized,
  always sound, never deadlocked.

**Determinism contract.**  Exact mode preserves the inner engine's
global ``(fire_time, seq)`` total order -- cross-shard messages are
logged in the mailbox but delivered eagerly into the shared heap -- so
a run with ``shards=N`` is byte-identical to ``shards=1``: same metrics
rows, same trace and time-series digests, same RNG consumption.  The
sharding layer only *attributes* work (events per shard, messages per
shard pair, windows) and *validates* the lookahead bound; its report
rides next to the result, never inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.perf import NULL_PERF
from repro.shard.mailbox import Mailbox
from repro.sim.engine import Event, EventScheduler, SimulationError

#: Resolves the shard owning one scheduled callback: ``(fn, args) ->
#: shard id`` or None for "no affinity" (stays on the sending shard).
OwnerHook = Callable[[Callable[..., Any], Tuple[Any, ...]], Optional[int]]


@dataclass(frozen=True)
class ShardReport:
    """Per-shard attribution of one run; plain types, pickle-safe.

    Produced by :meth:`ShardedScheduler.shard_report` after a run.
    Deliberately *not* part of :class:`ExperimentResult.render_rows`
    output: the parity gate byte-diffs those rows across shard counts,
    and this report legitimately differs (it names the shard count).
    """

    num_shards: int
    lookahead_s: float
    windows: int
    events_by_shard: Tuple[int, ...]
    messages_sent: int
    lookahead_violations: int
    #: ``(origin, dest, count)`` per shard pair, sorted.
    messages_by_pair: Tuple[Tuple[int, int, int], ...]

    def render_rows(self) -> List[str]:
        total = max(1, sum(self.events_by_shard))
        rows = [
            f"  shards: {self.num_shards} "
            f"(lookahead {self.lookahead_s * 1000.0:.1f} ms, "
            f"{self.windows} windows)"
        ]
        for shard, events in enumerate(self.events_by_shard):
            rows.append(
                f"    shard {shard}: {events} events ({100.0 * events / total:.1f}%)"
            )
        rows.append(
            f"    mailbox: {self.messages_sent} cross-shard messages, "
            f"{self.lookahead_violations} lookahead violations"
        )
        busiest = sorted(
            self.messages_by_pair, key=lambda pair: (-pair[2], pair[0], pair[1])
        )[:5]
        for origin, dest, count in busiest:
            rows.append(f"    pair {origin}->{dest}: {count} messages")
        return rows


class ShardedScheduler:
    """Community-partitioned coordinator; implements the Scheduler protocol.

    ``owner_of`` maps a callback to its owning shard; ``lookahead_s``
    bounds how far any shard may run ahead of a window barrier.  The
    inner engine owns the clock, the heap, tick emission, and tracing,
    which is what makes byte-parity with ``shards=1`` structural rather
    than coincidental.
    """

    def __init__(
        self,
        num_shards: int,
        owner_of: OwnerHook,
        lookahead_s: float = 0.0,
        start_time: float = 0.0,
        *,
        strict: bool = False,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if lookahead_s < 0:
            raise ValueError(f"lookahead_s must be >= 0, got {lookahead_s}")
        self._core = EventScheduler(start_time)
        self.num_shards = num_shards
        self.lookahead_s = float(lookahead_s)
        self._owner_of = owner_of
        self.mailbox = Mailbox(num_shards, strict=strict)
        #: Shard whose event is currently executing; None between events.
        self._current_shard: Optional[int] = None
        self._window_end = float(start_time)
        self.windows = 0
        self.events_by_shard = [0] * num_shards
        self._stopped = False
        #: Wall-clock meter (repro.obs.perf); the falsy NULL_PERF keeps
        #: the per-event hook in _fire a single truthiness check.  Its
        #: readings never enter rows or hashes -- sidecar report only.
        self.perf = NULL_PERF

    # -- protocol surface: clock, queue, accounting -------------------------

    @property
    def now(self) -> float:
        return self._core.now

    @property
    def tracer(self) -> Any:
        return self._core.tracer

    @tracer.setter
    def tracer(self, value: Any) -> None:
        self._core.tracer = value

    @property
    def events_processed(self) -> int:
        return self._core.events_processed

    @property
    def compactions(self) -> int:
        return self._core.compactions

    def pending_count(self) -> int:
        return self._core.pending_count()

    def peek_time(self) -> Optional[float]:
        return self._core.peek_time()

    def enable_ticks(self, period_s: float) -> None:
        self._core.enable_ticks(period_s)

    def advance_to(self, time: float) -> None:
        self._core.advance_to(time)

    def stop(self) -> None:
        self._stopped = True
        self._core.stop()

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._core.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        if time < self._core.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._core.now!r}"
            )
        dest = self._resolve_owner(fn, args)
        self._log_if_cross_shard(dest, float(time), fn)
        event = self._core.schedule_at(time, self._fire, dest, fn, args)
        # Interpose on the handle so cancel/reschedule flow back through
        # the coordinator (Event._scheduler is duck-typed for this).
        event._scheduler = self
        return event

    def _resolve_owner(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> int:
        owner = self._owner_of(fn, args)
        if owner is None:
            # No affinity: keep the event on the shard that created it
            # (shard 0 for events planted before the run starts).
            return self._current_shard if self._current_shard is not None else 0
        if not 0 <= owner < self.num_shards:
            raise ValueError(
                f"owner_of returned shard {owner!r} for {fn!r}; "
                f"valid shards are 0..{self.num_shards - 1}"
            )
        return owner

    def _log_if_cross_shard(
        self, dest: int, fire_time: float, fn: Callable[..., Any]
    ) -> None:
        origin = self._current_shard
        if origin is None or origin == dest:
            return
        self.mailbox.send(
            origin,
            dest,
            fire_time,
            kind=getattr(fn, "__name__", "callback"),
            window_end=self._window_end,
        )

    def _fire(self, dest: int, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Inner-engine callback: run one event in its owning shard."""
        previous = self._current_shard
        self._current_shard = dest
        self.events_by_shard[dest] += 1
        perf = self.perf
        began = perf.lane_event_begin() if perf else 0.0
        try:
            fn(*args)
        finally:
            if perf:
                perf.lane_event_end(dest, began)
            self._current_shard = previous

    # -- Event handle back ends (duck-typed from Event) ---------------------

    def _note_cancelled(self) -> None:
        self._core._note_cancelled()

    def _reschedule_event(
        self, event: Event, delay: float, args: Optional[Tuple[Any, ...]]
    ) -> None:
        """Re-arm a wrapped event; see :meth:`Event.reschedule`.

        The event's stored args are the coordinator's ``(dest, fn,
        inner_args)`` wrapper, so replacement args re-resolve the owner
        and re-wrap; bare reschedules keep the original destination.
        """
        if delay < 0:
            raise SimulationError(f"cannot reschedule {delay!r} seconds in the past")
        dest, fn, _inner = event.args
        wrapped: Optional[Tuple[Any, ...]] = None
        if args is not None:
            dest = self._resolve_owner(fn, args)
            wrapped = (dest, fn, args)
        self._log_if_cross_shard(dest, self._core.now + delay, fn)
        self._core._reschedule_event(event, delay, wrapped)

    # -- window advancement and run loops -----------------------------------

    def _advance_window(self, next_time: float) -> None:
        """Cross window barriers up to the one containing ``next_time``.

        With a positive lookahead, windows are the fixed grid
        ``[k*L, (k+1)*L)``; with zero lookahead every event time is its
        own barrier (fully serialized -- the sound fallback when the
        latency model admits arbitrarily small cross-shard delays).
        """
        if next_time < self._window_end:
            return
        if self.lookahead_s > 0:
            self._window_end = (
                int(next_time / self.lookahead_s) + 1
            ) * self.lookahead_s
        else:
            self._window_end = next_time
        self.windows += 1

    def step(self) -> bool:
        next_time = self._core.peek_time()
        if next_time is None:
            return False
        self._advance_window(next_time)
        return self._core.step()

    def run_until(self, horizon: float) -> None:
        core = self._core
        if horizon < core.now:
            raise SimulationError(
                f"horizon t={horizon!r} is before current time t={core.now!r}"
            )
        self._stopped = False
        span = core.tracer.begin("engine.run", horizon=horizon) if core.tracer else None
        while not self._stopped:
            next_time = core.peek_time()
            if next_time is None or next_time > horizon:
                break
            self._advance_window(next_time)
            core.step()
        if not self._stopped:
            core.advance_to(horizon)
        core.tracer.end(span, events=core.events_processed)

    def run(self) -> None:
        core = self._core
        self._stopped = False
        span = core.tracer.begin("engine.run") if core.tracer else None
        while not self._stopped:
            next_time = core.peek_time()
            if next_time is None:
                break
            self._advance_window(next_time)
            core.step()
        core.tracer.end(span, events=core.events_processed)

    # -- reporting -----------------------------------------------------------

    def shard_report(self) -> ShardReport:
        summary = self.mailbox.summary()
        return ShardReport(
            num_shards=self.num_shards,
            lookahead_s=self.lookahead_s,
            windows=self.windows,
            events_by_shard=tuple(self.events_by_shard),
            messages_sent=summary["sent"],
            lookahead_violations=summary["violations"],
            messages_by_pair=tuple(summary["by_pair"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedScheduler(shards={self.num_shards}, now={self.now:.3f}, "
            f"lookahead={self.lookahead_s:.3f}, windows={self.windows})"
        )
