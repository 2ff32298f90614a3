"""Deterministic, sim-clock-timestamped tracing primitives.

The tracer answers the questions the end-of-run aggregates of
:mod:`repro.metrics` cannot: *which hop of which flood found this
chunk*, *what did prefetching cost node 37*, *where did the run spend
its simulated time*.  Three design rules make traces reproducible:

1. **Sim-clock timestamps only.**  Every row is stamped with the
   virtual time of the bound clock (``EventScheduler.now``), never the
   wall clock, so a trace is a pure function of the
   :class:`repro.experiments.spec.ExperimentSpec` that produced it --
   byte-identical across repeats, seeds permitting, and across
   ``jobs=1`` vs ``jobs=N`` execution.
2. **Deterministic identifiers.**  Span ids are a monotonically
   increasing per-tracer counter; no uuids, no object addresses.
3. **Zero-cost no-op mode.**  :data:`NULL_TRACER` implements the same
   interface with empty bodies and is *falsy*, so hot paths guard
   per-hop instrumentation with a single truthiness check
   (``if tracer: tracer.event(...)``) and pay nothing when tracing is
   off.

Example::

    tracer = Tracer()
    tracer.bind_clock(lambda: scheduler.now)
    with tracer.span("flood.search", node=3, video=77):
        tracer.event("flood.ttl_exhausted", requester=3, ttl=2)
    rows = tracer.rows()          # list of dict rows, in emission order
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

#: Bumped whenever the row shape changes, mirroring the spec's
#: ``schema_version`` discipline so stale trace artifacts can never be
#: misread by newer tooling (see DESIGN.md section 8).
TRACE_SCHEMA_VERSION = 1


class _NullSpan:
    """The do-nothing context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(int):
    """The zero-cost disabled tracer.

    Implements the full :class:`Tracer` interface with no-op bodies and
    evaluates as *false*, so instrumentation sites can either call it
    directly (cheap) or skip attribute packing entirely behind an
    ``if tracer:`` guard (cheapest).  There is one shared instance,
    :data:`NULL_TRACER`; it holds no state and is safe to share across
    schedulers, protocols, and runs.

    The class subclasses :class:`int` and its instance is the integer
    zero, so the guard's truth test runs in int's C slot instead of a
    Python-level ``__bool__`` frame.  The guard is the most frequent
    disabled-path shape (one per instrumented site per event), so this
    is where "zero-cost" is decided.

    Example::

        tracer = NULL_TRACER
        if tracer:                       # False -- branch not taken
            tracer.event("never", x=1)
        tracer.event("still-a-no-op")    # direct calls are no-ops too
    """

    __slots__ = ()

    #: Mirrors :attr:`Tracer.enabled`; always False here.
    enabled = False

    def __repr__(self) -> str:
        return "NULL_TRACER"

    #: Mirrors :attr:`Tracer.tick_every_s`; always None here (the null
    #: tracer never asks the engine for window ticks).
    tick_every_s = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """No-op; the null tracer never reads a clock."""

    def set_sink(self, sink: Optional[Callable[[Dict[str, Any]], None]]) -> None:
        """No-op; the null tracer emits no rows to stream."""

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared no-op context manager."""
        return _NULL_SPAN

    def begin(self, name: str, **attrs: Any) -> Optional[int]:
        """No-op begin; returns None (accepted by :meth:`end`)."""
        return None

    def begin_detached(self, name: str, **attrs: Any) -> Optional[int]:
        """No-op detached begin; returns None (accepted by :meth:`end`)."""
        return None

    def end(self, span_id: Optional[int], **attrs: Any) -> None:
        """No-op end; tolerates the None ids its begins hand out."""

    def event(self, name: str, **attrs: Any) -> None:
        """No-op point event."""


#: The shared do-nothing tracer every instrumented component defaults to.
NULL_TRACER = NullTracer()


class SpanHandle:
    """Context manager for one live span of a real :class:`Tracer`.

    Created by :meth:`Tracer.span`; entering records the ``span_begin``
    row and pushes the span onto the tracer's stack (so rows emitted
    inside nest under it), exiting records ``span_end`` with the
    simulated duration.

    Example::

        with tracer.span("request.serve", node=3, video=77):
            tracer.event("prefetch.lookup", node=3, hit=True)
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_span_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span_id: Optional[int] = None

    def __enter__(self) -> "SpanHandle":
        self._span_id = self._tracer._begin(self._name, self._attrs, attach=True)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._tracer.end(self._span_id)
        return False


class Tracer:
    """Collects spans and events in memory.

    All timestamps come from the bound ``clock`` callable -- wire it to
    ``EventScheduler.now`` via :meth:`bind_clock` (the experiment
    runner does this) so rows carry virtual seconds.  Rows are plain
    dicts in emission order; :mod:`repro.obs.export` turns them into
    the canonical JSONL artifact and profile summaries.

    Example::

        tracer = Tracer(clock=lambda: scheduler.now)
        with tracer.span("flood.search", node=1, video=9, level="inner"):
            tracer.event("flood.hop", depth=1, peer=4)
        assert tracer.rows()[0]["kind"] == "span_begin"
    """

    __slots__ = ("_clock", "_rows", "_stack", "_next_span", "_begin_times",
                 "_sink", "tick_every_s")

    #: Mirrors :attr:`NullTracer.enabled`; always True here.
    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        tick_every_s: Optional[float] = None,
    ):
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self._rows: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_span = 0
        self._begin_times: Dict[int, float] = {}
        self._sink = sink
        #: When set, the experiment runner asks the engine to emit one
        #: ``engine.tick`` row per ``tick_every_s`` of virtual time (the
        #: gauge samples behind repro.obs.timeseries); None disables.
        self.tick_every_s = tick_every_s

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point timestamps at a (virtual) clock, e.g. ``lambda: sched.now``."""
        self._clock = clock

    def set_sink(self, sink: Optional[Callable[[Dict[str, Any]], None]]) -> None:
        """Stream every future row to ``sink(row)`` as it is emitted.

        The sink sees exactly the rows :meth:`rows` accumulates, in the
        same order and at emission time -- the live feed consumed by
        :class:`repro.obs.timeseries.TimeSeriesCollector`.  Rows must be
        treated as read-only: mutating them would corrupt the trace.
        """
        self._sink = sink

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> SpanHandle:
        """A ``with``-able span; begin/end rows bracket the body.

        Example::

            with tracer.span("transfer.chunks", source="peer", node=2):
                ...
        """
        return SpanHandle(self, name, attrs)

    def _begin(self, name: str, attrs: Dict[str, Any], attach: bool) -> int:
        span_id = self._next_span
        self._next_span += 1
        now = self._clock()
        parent = self._stack[-1] if self._stack else None
        row: Dict[str, Any] = {
            "t": now, "kind": "span_begin", "name": name, "span": span_id,
        }
        if parent is not None:
            row["parent"] = parent
        if attrs:
            row["attrs"] = attrs
        self._rows.append(row)
        if self._sink is not None:
            self._sink(row)
        self._begin_times[span_id] = now
        if attach:
            self._stack.append(span_id)
        return span_id

    def begin(self, name: str, **attrs: Any) -> int:
        """Open a span explicitly; pair with :meth:`end`.

        The span joins the nesting stack, so prefer :meth:`span` unless
        control flow (early returns, callbacks) makes ``with`` awkward.
        Returns the span id.
        """
        return self._begin(name, attrs, attach=True)

    def begin_detached(self, name: str, **attrs: Any) -> int:
        """Open a span that will end in a *different* event callback.

        The span records its parent (the innermost open span at begin
        time) but is not pushed onto the nesting stack, so spans opened
        afterwards do not nest under it and :meth:`end` may arrive in
        any order.  This is the shape of asynchronous work: a chunk
        transfer that completes when playback finishes, a flood message
        in flight.  Returns the span id.

        Example::

            sid = tracer.begin_detached("request.stream", node=7, source="peer")
            scheduler.schedule(watch_time, finish, sid)   # later: tracer.end(sid)
        """
        return self._begin(name, attrs, attach=False)

    def end(self, span_id: Optional[int], **attrs: Any) -> None:
        """Close a span by id, recording its simulated duration.

        ``None`` (what :class:`NullTracer` begins return) is ignored, so
        call sites never need to branch on which tracer they hold.
        """
        if span_id is None:
            return
        now = self._clock()
        began = self._begin_times.pop(span_id, now)
        row: Dict[str, Any] = {
            "t": now, "kind": "span_end", "span": span_id,
            "dur": now - began,
        }
        if attrs:
            row["attrs"] = attrs
        self._rows.append(row)
        if self._sink is not None:
            self._sink(row)
        if span_id in self._stack:
            self._stack.remove(span_id)

    # -- events --------------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Record one point-in-time row under the innermost open span.

        Example::

            tracer.event("churn.leave", node=12)
        """
        row: Dict[str, Any] = {"t": self._clock(), "kind": "event", "name": name}
        if self._stack:
            row["parent"] = self._stack[-1]
        if attrs:
            row["attrs"] = attrs
        self._rows.append(row)
        if self._sink is not None:
            self._sink(row)

    # -- read-out ------------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """The recorded rows, in emission order (a shallow copy)."""
        return list(self._rows)

    def open_spans(self) -> int:
        """Number of spans begun but not yet ended (0 after a clean run)."""
        return len(self._begin_times)
