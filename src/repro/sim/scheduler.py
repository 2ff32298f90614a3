# shard: module=shard-local -- protocol definitions only; no state
"""The ``Scheduler`` protocol: the engine seam of the simulator.

Everything above the kernel -- the experiment runner, protocol stacks,
the async overlay flood, the runtime invariant checker -- talks to the
event engine through this structural interface rather than the concrete
:class:`repro.sim.engine.EventScheduler`.  Two implementations exist:

* :class:`repro.sim.engine.EventScheduler` -- the single-heap reference
  kernel (``shards=1``);
* :class:`repro.shard.scheduler.ShardedScheduler` -- the
  community-partitioned coordinator that tags every event with an
  owning shard, logs cross-shard sends in the typed inter-shard
  mailbox, and counts conservative lookahead windows (``shards>1``).

The protocol is deliberately the *exact* surface the call sites already
used, so adopting it changed no behaviour: satisfying it is a fact
about ``EventScheduler``, not a refactor of it.  It is
``runtime_checkable`` so tests can assert conformance structurally.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.engine import Event


@runtime_checkable
class Scheduler(Protocol):
    """Structural interface of the simulation clock and event queue.

    Implementations must provide deterministic FIFO tie-breaking among
    simultaneous events and must never consume randomness themselves
    (randomness lives in :mod:`repro.sim.rng` and is injected by
    callers).  ``tracer`` and ``events_processed`` are plain attributes
    on both implementations; the protocol lists them for completeness
    but structural ``isinstance`` checks only see the methods.
    """

    #: Observability sink; falsy NULL_TRACER disables instrumentation.
    tracer: Any
    #: Total events fired so far (monotonic).
    events_processed: int

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        ...

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now; returns a handle."""
        ...

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        ...

    def peek_time(self) -> Optional[float]:
        """Fire time of the next pending event, or None when drained."""
        ...

    def pending_count(self) -> int:
        """Number of live (not cancelled, not fired) events."""
        ...

    def step(self) -> bool:
        """Fire the single next pending event; False when drained."""
        ...

    def run_until(self, horizon: float) -> None:
        """Fire events in order until the clock would pass ``horizon``."""
        ...

    def run(self) -> None:
        """Fire every pending event until the queue drains."""
        ...

    def stop(self) -> None:
        """Stop a running loop after the current event finishes."""
        ...

    def enable_ticks(self, period_s: float) -> None:
        """Emit one ``engine.tick`` gauge row per ``period_s`` virtual seconds."""
        ...
