"""Event-driven simulation kernel.

The engine is a classic calendar-queue simulator: a binary heap of
``(fire_time, sequence_number, Event, generation)`` entries and a
virtual clock that jumps from event to event.  Determinism matters for
a reproduction, so

* ties in fire time are broken by a monotonically increasing sequence
  number (FIFO among simultaneous events), and
* the engine itself never consumes randomness -- randomness lives in
  :mod:`repro.sim.rng` and is injected by callers.

Cancellation is O(1): events carry a ``cancelled`` flag and are skipped
lazily when popped, which is the standard approach for simulators with
many speculative timers (e.g. neighbor probes that are rescheduled).
Rescheduling is the same trick one level up: each heap entry is stamped
with the event's *generation* at push time, and :meth:`Event.reschedule`
bumps the generation, so the stale entry dies in place and exactly one
new entry is pushed -- no paired cancel-then-schedule, no second handle
object.  To keep lazy deletion honest under heavy rescheduling the heap
is *compacted* -- rebuilt without dead entries -- whenever dead entries
outnumber live ones, so memory stays proportional to the number of
pending events rather than the number ever cancelled.  Compaction
preserves each entry's ``(fire_time, sequence)`` key, so FIFO ordering
among simultaneous events is unaffected.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.tracer import NULL_TRACER


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel.

    Examples: scheduling an event in the past, or running a scheduler
    that was already stopped with an inconsistent horizon.
    """


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`EventScheduler.schedule` and can be
    cancelled or rescheduled before they fire.  An event fires at most
    once per arming; :meth:`reschedule` re-arms it.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "_generation", "_scheduler")

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        #: Bumped by :meth:`reschedule`; heap entries stamped with an
        #: older generation are dead and skipped when popped.
        self._generation = 0
        #: Set by the scheduler that owns the event so ``cancel`` /
        #: ``reschedule`` can update its live pending/cancelled
        #: accounting.
        self._scheduler: Optional[Any] = None

    def cancel(self) -> bool:
        """Prevent the event from firing.

        Returns True when this call actually cancelled a pending event,
        False when there was nothing to cancel (already cancelled or
        already fired).  Idempotent; safe after firing.
        """
        if self.cancelled or self.fired:
            return False
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._note_cancelled()
        return True

    def reschedule(self, delay: float, *args: Any) -> "Event":
        """Re-arm this event ``delay`` seconds from now; returns ``self``.

        One call replaces the cancel-then-schedule pattern: the old heap
        entry is invalidated in place (generation bump) and exactly one
        new entry is pushed, so the caller keeps a single live handle.
        Works from any state -- a *pending* event is moved, a
        *cancelled* event is revived, a *fired* event is re-armed (the
        periodic-timer pattern).  Positional ``args``, when given,
        replace the callback arguments.
        """
        if self._scheduler is None:
            raise SimulationError("cannot reschedule an unscheduled event")
        self._scheduler._reschedule_event(self, delay, args if args else None)
        return self

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Event(t={self.time:.3f}, fn={name}, {state})"


class EventScheduler:
    """The simulation clock and event heap.

    Typical usage::

        sched = EventScheduler()
        sched.schedule(10.0, node.wake_up)
        sched.run_until(3600.0)

    Time is a float in *seconds* of virtual time.  The engine makes no
    assumption about wall-clock pacing; a 30-day simulation is just a
    large horizon.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event, int]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Live count of not-yet-cancelled, not-yet-fired events.
        self._pending = 0
        #: Dead events still occupying heap slots (lazy removal):
        #: cancelled entries plus entries orphaned by a reschedule.
        self._cancelled_in_heap = 0
        #: Number of times the heap was rebuilt to shed dead entries.
        self.compactions = 0
        #: Observability sink (set by the experiment runner).  Defaults
        #: to the falsy NULL_TRACER so the hot path pays one truthiness
        #: check at the coarse instrumentation points and nothing in
        #: ``step``; timestamps it records are this scheduler's ``now``.
        self.tracer = NULL_TRACER
        #: Virtual-time tick period (seconds) for the ``engine.tick``
        #: gauge rows consumed by repro.obs.timeseries; None disables
        #: and keeps ``step`` tick-free.  Set via :meth:`enable_ticks`.
        self._tick_every: Optional[float] = None
        self._next_tick = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.  A negative
        delay is an error: the past cannot be scheduled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        event = Event(float(time), fn, args)
        event._scheduler = self
        self._seq += 1
        heapq.heappush(self._heap, (event.time, self._seq, event, 0))
        self._pending += 1
        return event

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; keeps counters live and
        compacts the heap once dead entries outnumber pending ones."""
        self._pending -= 1
        self._cancelled_in_heap += 1
        if self._cancelled_in_heap * 2 > len(self._heap):
            self._compact()

    def _reschedule_event(
        self, event: Event, delay: float, args: Optional[Tuple[Any, ...]]
    ) -> None:
        """Back end of :meth:`Event.reschedule` (see there for semantics)."""
        if delay < 0:
            raise SimulationError(f"cannot reschedule {delay!r} seconds in the past")
        was_pending = event.pending
        event.cancelled = False
        event.fired = False
        event.time = self._now + delay
        if args is not None:
            event.args = args
        event._generation += 1
        self._seq += 1
        heapq.heappush(self._heap, (event.time, self._seq, event, event._generation))
        if was_pending:
            # The superseded entry is dead weight exactly like a
            # cancelled one; the event itself stays pending (net 0).
            self._cancelled_in_heap += 1
            if self._cancelled_in_heap * 2 > len(self._heap):
                self._compact()
        else:
            # Revived (cancelled) or re-armed (fired): one new live
            # entry; any old entry was already accounted dead.
            self._pending += 1

    def _compact(self) -> None:
        """Rebuild the heap without dead entries.

        Entries keep their original ``(fire_time, sequence)`` keys, so
        relative ordering -- including FIFO among ties -- is preserved.
        O(pending), amortised O(1) per cancellation since compaction
        only triggers when at least half the heap is dead weight.
        """
        self._heap = [
            entry
            for entry in self._heap
            if not entry[2].cancelled and entry[3] == entry[2]._generation
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1
        if self.tracer:
            self.tracer.event("engine.compact", live=len(self._heap))

    def enable_ticks(self, period_s: float) -> None:
        """Emit one ``engine.tick`` trace row per ``period_s`` virtual seconds.

        The tick is the engine-level gauge feed of the time-series
        layer: each row samples ``pending`` (live heap entries) and
        ``events`` (events processed so far).  Ticks piggyback on event
        execution -- no extra events are scheduled, so enabling them
        never perturbs event ordering, RNG consumption, or metrics; a
        window without events simply produces no tick and the series
        layer carries the last gauge forward.
        """
        if period_s <= 0:
            raise SimulationError("tick period must be positive")
        self._tick_every = float(period_s)
        self._next_tick = self._next_tick_after(self._now)

    def _next_tick_after(self, now: float) -> float:
        """First tick boundary strictly after ``now`` (period multiples)."""
        period = self._tick_every or 0.0
        return (int(now // period) + 1) * period

    def stop(self) -> None:
        """Stop a running :meth:`run_until` / :meth:`run` loop after the
        current event finishes."""
        self._stopped = True

    def peek_time(self) -> Optional[float]:
        """Fire time of the next pending event, or None if the heap is empty."""
        while self._heap:
            time, _seq, event, generation = self._heap[0]
            if event.cancelled or generation != event._generation:
                heapq.heappop(self._heap)
                self._cancelled_in_heap -= 1
                continue
            return time
        return None

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still in the heap.  O(1)."""
        return self._pending

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without firing anything.

        Used by run loops to park
        the clock at the horizon after the heap drains, so periodic
        re-scheduling relative to ``now`` stays consistent across
        successive calls.  Never moves the clock backwards.
        """
        if time > self._now:
            self._now = float(time)

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns False when no pending event remains.
        """
        while self._heap:
            _time, _seq, event, generation = heapq.heappop(self._heap)
            if event.cancelled or generation != event._generation:
                self._cancelled_in_heap -= 1
                continue
            self._now = event.time
            if self._tick_every is not None and self._now >= self._next_tick:
                if self.tracer:
                    self.tracer.event(
                        "engine.tick",
                        pending=self._pending,
                        events=self.events_processed,
                    )
                self._next_tick = self._next_tick_after(self._now)
            event.fired = True
            self._pending -= 1
            self.events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def run_until(self, horizon: float) -> None:
        """Fire events in order until the clock would pass ``horizon``.

        The clock is left at ``horizon`` (even if the heap drained
        earlier), so periodic re-scheduling relative to ``now`` stays
        consistent across successive calls.
        """
        if horizon < self._now:
            raise SimulationError(
                f"horizon t={horizon!r} is before current time t={self._now!r}"
            )
        self._stopped = False
        self._running = True
        span = self.tracer.begin("engine.run", horizon=horizon) if self.tracer else None
        try:
            while not self._stopped:
                next_time = self.peek_time()
                if next_time is None or next_time > horizon:
                    break
                self.step()
        finally:
            self._running = False
        if not self._stopped:
            self.advance_to(horizon)
        self.tracer.end(span, events=self.events_processed)

    def run(self) -> None:
        """Fire every pending event until the heap drains."""
        self._stopped = False
        self._running = True
        span = self.tracer.begin("engine.run") if self.tracer else None
        try:
            while not self._stopped and self.step():
                pass
        finally:
            self._running = False
        self.tracer.end(span, events=self.events_processed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventScheduler(now={self._now:.3f}, pending={self.pending_count()}, "
            f"processed={self.events_processed})"
        )
