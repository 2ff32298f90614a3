"""Wall-clock performance telemetry: armed-opt-in, inert-by-default.

Every other observability layer in this tree is deliberately
sim-clock-only -- traces, time-series, metrics are pure functions of
the :class:`repro.experiments.spec.ExperimentSpec` and byte-identical
across machines.  This module is the one sanctioned home of the *other*
clock: it measures where **wall** time goes (events/s, per-phase
hotspots) so the ROADMAP's "make the engine fast" work has numbers to
aim at.

Three rules keep the determinism story intact:

1. **Hash-neutral by construction.**  Wall-clock readings live only in
   the sidecar perf report (:mod:`repro.obs.perf_report`), keyed by the
   spec's ``content_hash`` -- never in canonical rows, traces, or
   hashes.  Arming a :class:`PerfMeter` must not change a single byte
   of canonical output (``tests/test_obs_perf.py`` diffs it).
2. **Zero-cost when off.**  :data:`NULL_PERF` mirrors the
   :data:`repro.obs.tracer.NULL_TRACER` discipline: it is falsy, so
   every hook in the runner reduces to one truthiness check
   (``if perf: ...``) on the inert path.
3. **Lint-sanctioned namespace.**  The ``wall-clock`` analyzer rule
   bans ``time.perf_counter`` and friends everywhere *except* this
   module (mirroring how ``faults.*`` owns its RNG namespace); other
   modules obtain wall time only through a perf object handed to them.

Example::

    meter = PerfMeter()
    meter.attach(tracer)                  # tee: observes every trace row
    result = run_spec(spec, tracer=tracer, perf=meter)
    print(meter.events_per_s(), meter.hotspots(5))
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

#: Bumped whenever the perf-report shape changes, mirroring the trace
#: schema discipline so stale perf artifacts can never be misread.
PERF_SCHEMA_VERSION = 3


class NullPerfMeter:
    """The zero-cost disabled perf meter.

    Implements the armed :class:`PerfMeter` surface with no-op bodies
    and evaluates as *false*, so hot paths guard wall-clock sampling
    with a single truthiness check (``if perf:``) and pay nothing when
    perf is off.  There is one shared instance, :data:`NULL_PERF`; it
    holds no state and is safe to share across schedulers and runs.
    """

    __slots__ = ()

    #: Mirrors :attr:`PerfMeter.enabled`; always False here.
    enabled = False

    def __bool__(self) -> bool:
        return False

    def attach(self, tracer: Any) -> None:
        """No-op; the null meter never observes trace rows."""

    def run_begin(self) -> None:
        """No-op; the null meter never reads a clock."""

    def run_end(self, events: int) -> None:
        """No-op; accepts and discards the engine's event count."""


#: The shared do-nothing perf meter every hook site defaults to.
NULL_PERF = NullPerfMeter()


class PerfMeter:
    """Engine-side wall-clock meter: throughput plus hotspot attribution.

    * :meth:`attach` installs a pass-through tee on a
      :class:`repro.obs.tracer.Tracer` sink, charging the wall-clock
      delta since the previous row to the current row's span/event name
      -- sampling attribution at the trace's own span boundaries, so
      the sim-clock trace itself is untouched.  Any previously
      installed sink (the time-series collector) keeps receiving every
      row.
    * :meth:`run_begin` / :meth:`run_end` bracket the whole event loop
      for the headline events/s number.
    """

    __slots__ = (
        "_run_began",
        "_wall_s",
        "_events",
        "_rows",
        "_by_name",
        "_span_names",
        "_last_row_t",
    )

    #: Mirrors :attr:`NullPerfMeter.enabled`; always True here.
    enabled = True

    def __init__(self) -> None:
        self._run_began: Optional[float] = None
        self._wall_s = 0.0
        self._events = 0
        self._rows = 0
        #: name -> [row count, attributed wall seconds]
        self._by_name: Dict[str, List[Any]] = {}
        self._span_names: Dict[int, str] = {}
        self._last_row_t: Optional[float] = None

    # -- clock ---------------------------------------------------------------

    @staticmethod
    def clock() -> float:
        """The wall clock every perf consumer reads (monotonic seconds).

        This is the only sanctioned wall-clock source in the tree; the
        lint ``wall-clock`` rule bans direct reads everywhere else.
        """
        return time.perf_counter()

    # -- tracer tee ----------------------------------------------------------

    def attach(self, tracer: Any) -> None:
        """Install the observing tee on ``tracer``'s row sink.

        The previous sink (if any -- e.g. the time-series collector)
        is chained after the meter's observer, so downstream consumers
        see exactly the rows they would have seen unarmed, in the same
        order.  Rows are never mutated.
        """
        previous: Optional[Callable[[Dict[str, Any]], None]] = getattr(
            tracer, "_sink", None
        )
        observe = self._observe_row
        if previous is None:
            tracer.set_sink(observe)
            return

        def tee(row: Dict[str, Any]) -> None:
            """Observe the row, then forward it to the prior sink."""
            observe(row)
            previous(row)

        tracer.set_sink(tee)

    def _observe_row(self, row: Dict[str, Any]) -> None:
        """Charge the wall delta since the previous row to this row's name.

        ``span_end`` rows carry no name; they resolve through the
        span-id map recorded at ``span_begin``, which makes the
        attribution robust to detached spans ending out of order.
        """
        now = time.perf_counter()
        last = self._last_row_t
        self._last_row_t = now
        kind = row.get("kind")
        if kind == "span_begin":
            name = row["name"]
            self._span_names[row["span"]] = name
        elif kind == "span_end":
            name = self._span_names.get(row["span"], "span_end")
        else:
            name = row.get("name") or str(kind)
        entry = self._by_name.get(name)
        if entry is None:
            entry = [0, 0.0]
            self._by_name[name] = entry
        entry[0] += 1
        if last is not None:
            entry[1] += now - last
        self._rows += 1

    # -- run bracket ---------------------------------------------------------

    def run_begin(self) -> None:
        """Mark the start of the event loop (called by the runner)."""
        self._run_began = time.perf_counter()
        self._last_row_t = self._run_began

    def run_end(self, events: int) -> None:
        """Mark the end of the event loop; record its event count."""
        if self._run_began is not None:
            self._wall_s += time.perf_counter() - self._run_began
            self._run_began = None
        self._events += int(events)

    # -- read-out ------------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Wall seconds spent inside the event loop."""
        return self._wall_s

    @property
    def events(self) -> int:
        """Engine events processed between run_begin and run_end."""
        return self._events

    @property
    def rows(self) -> int:
        """Trace rows observed by the tee."""
        return self._rows

    def events_per_s(self) -> float:
        """Headline throughput: engine events per wall second."""
        return self._events / self._wall_s if self._wall_s > 0 else 0.0

    def rows_per_s(self) -> float:
        """Trace rows emitted per wall second."""
        return self._rows / self._wall_s if self._wall_s > 0 else 0.0

    def hotspots(self, top_k: int = 10) -> List[Dict[str, Any]]:
        """Top-K span/event names by attributed wall time.

        Each entry is ``{"name", "rows", "wall_s", "share"}`` where
        ``share`` is the fraction of all *attributed* wall time (ties
        break on name, so the ranking is stable for equal timings).
        """
        total = sum(entry[1] for entry in self._by_name.values())
        ranked = sorted(
            self._by_name.items(), key=lambda item: (-item[1][1], item[0])
        )
        return [
            {
                "name": name,
                "rows": entry[0],
                "wall_s": entry[1],
                "share": entry[1] / total if total > 0 else 0.0,
            }
            for name, entry in ranked[: max(0, int(top_k))]
        ]
