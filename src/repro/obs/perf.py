"""Wall-clock performance telemetry: a trace-row sink beside the run.

Every other observability layer in this tree is deliberately
sim-clock-only -- traces, time-series, metrics are pure functions of
the :class:`repro.experiments.spec.ExperimentSpec` and byte-identical
across machines.  This module is the one sanctioned home of the *other*
clock: it measures where **wall** time goes (events/s, per-phase
hotspots) so the ROADMAP's "make the engine fast" work has numbers to
aim at.

Two rules keep the determinism story intact:

1. **Hash-neutral by construction.**  A :class:`PerfMeter` only reads
   the rows a tracer was already emitting, and its readings live only
   in the sidecar perf report (:mod:`repro.obs.perf_report`), keyed by
   the spec's ``content_hash`` -- never in canonical rows, traces, or
   hashes.  Installing a meter as the tracer's sink must not change a
   single byte of canonical output (``tests/test_obs_perf.py`` diffs
   it).  The runner knows nothing of it: a run without a meter pays
   nothing for this module.
2. **Lint-sanctioned namespace.**  The ``wall-clock`` analyzer rule
   bans ``time.perf_counter`` and friends everywhere *except* this
   module (mirroring how ``faults.*`` owns its RNG namespace); other
   modules obtain wall time only through :meth:`PerfMeter.clock`.

Example::

    meter = PerfMeter()
    result, jsonl = run_traced(spec, sink=meter.observe_row)
    print(meter.events_per_s(), meter.hotspots(5))
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

#: Bumped whenever the perf-report shape changes, mirroring the trace
#: schema discipline so stale perf artifacts can never be misread.
PERF_SCHEMA_VERSION = 3

#: The engine's event-loop span; its end row carries ``events``.
_RUN_SPAN = "engine.run"


class PerfMeter:
    """Wall-clock meter fed by trace rows: throughput plus hotspots.

    Install :meth:`observe_row` as a :class:`repro.obs.tracer.Tracer`
    sink.  Each row is charged the wall-clock delta since the previous
    row, under its span/event name -- sampling attribution at the
    trace's own span boundaries, so the sim-clock trace itself is
    untouched.  The ``engine.run`` span's begin and end rows bracket
    the event loop for the headline events/s number; the end row's
    ``events`` attribute is the engine's event count.
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

    def __init__(self) -> None:
        self._run_began = 0.0
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

    # -- row sink ------------------------------------------------------------

    def observe_row(self, row: Dict[str, Any]) -> None:
        """Charge the wall delta since the previous row to this row's name.

        ``span_end`` rows carry no name; they resolve through the
        span-id map recorded at ``span_begin``, which makes the
        attribution robust to detached spans ending out of order.  The
        ``engine.run`` begin and end rows also open and close the
        event-loop timing.  Rows are never mutated.
        """
        now = time.perf_counter()
        last = self._last_row_t
        self._last_row_t = now
        kind = row.get("kind")
        if kind == "span_begin":
            name = row["name"]
            self._span_names[row["span"]] = name
            if name == _RUN_SPAN:
                self._run_began = now
        elif kind == "span_end":
            name = self._span_names.get(row["span"], "span_end")
            if name == _RUN_SPAN:
                self._wall_s += now - self._run_began
                # The engine's count is cumulative across its loops.
                self._events = row["attrs"]["events"]
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

    # -- read-out ------------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Wall seconds between the ``engine.run`` begin and end rows."""
        return self._wall_s

    @property
    def events(self) -> int:
        """Engine events processed, from the ``engine.run`` end row."""
        return self._events

    @property
    def rows(self) -> int:
        """Trace rows observed."""
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
