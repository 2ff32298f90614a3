"""The profile sink: row counts, simulated time and wall time per name.

Every other observability layer in this tree is deliberately
sim-clock-only -- traces, time-series, metrics are pure functions of
the :class:`repro.experiments.spec.ExperimentSpec` and byte-identical
across machines.  This module is the one sanctioned home of the *other*
clock: it measures where **wall** time goes (events/s, per-name
attribution) so the ROADMAP's "make the engine fast" work has numbers
to aim at, and folds the deterministic columns (counts, inclusive
simulated seconds, busiest nodes) from the same rows.

Two rules keep the determinism story intact:

1. **Hash-neutral by construction.**  A :class:`PerfMeter` only reads
   the rows a tracer was already emitting, and its readings live only
   in the sidecar profile report (:func:`repro.obs.export.run_profiled`),
   keyed by the spec's ``content_hash`` -- never in canonical rows,
   traces, or hashes.  Installing a meter as the tracer's sink must not
   change a single byte of canonical output (``tests/test_obs_perf.py``
   diffs it).  The runner knows nothing of it: a run without a meter
   pays nothing for this module.
2. **Lint-sanctioned namespace.**  The ``wall-clock`` analyzer rule
   bans ``time.perf_counter`` and friends everywhere *except* this
   module, mirroring how ``sim/rng.py`` owns the ``random`` module.

Example::

    meter = PerfMeter()
    result, jsonl = run_traced(spec, sink=meter.observe_row)
    print(meter.events_per_s(), meter.by_name(), meter.busiest_nodes())
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

#: Bumped whenever the profile-report shape changes, mirroring the
#: trace schema discipline so stale reports can never be misread.
PERF_SCHEMA_VERSION = 4

#: How many nodes :meth:`PerfMeter.busiest_nodes` ranks.
TOP_NODES = 10

#: The engine's event-loop span; its end row carries ``events``.
_RUN_SPAN = "engine.run"


class PerfMeter:
    """Profile sink fed by trace rows: per-name and per-node folds.

    Install :meth:`observe_row` as a :class:`repro.obs.tracer.Tracer`
    sink.  Each row name gets a count (one per event row, one per span
    at its ``span_begin``), inclusive simulated seconds (each
    ``span_end``'s ``dur``, a parent's total containing its children's)
    and wall seconds: each row is charged the wall-clock delta since the
    previous row -- sampling attribution at the trace's own span
    boundaries, so the sim-clock trace itself is untouched.  Event and
    ``span_begin`` rows carrying an integer ``node`` attribute count
    toward that node.  The ``engine.run`` span's begin and end rows
    bracket the event loop for the headline events/s number; the end
    row's ``events`` attribute is the engine's event count.
    """

    __slots__ = (
        "_run_began",
        "_wall_s",
        "_events",
        "_rows",
        "_by_name",
        "_span_names",
        "_node_rows",
        "_last_row_t",
    )

    def __init__(self) -> None:
        self._run_began = 0.0
        self._wall_s = 0.0
        self._events = 0
        self._rows = 0
        #: name -> [count, inclusive sim seconds, attributed wall seconds]
        self._by_name: Dict[str, List[Any]] = {}
        self._span_names: Dict[int, str] = {}
        self._node_rows: Dict[int, int] = {}
        self._last_row_t: Optional[float] = None

    # -- row sink ------------------------------------------------------------

    def observe_row(self, row: Dict[str, Any]) -> None:
        """Fold one row into its name's count, sim and wall columns.

        ``span_end`` rows carry no name; they resolve through the
        span-id map recorded at ``span_begin``, which makes the
        attribution robust to detached spans ending out of order.  An
        end whose begin was never seen is charged under ``span_end``.
        The ``engine.run`` begin and end rows also open and close the
        event-loop timing.  Rows are never mutated.
        """
        now = time.perf_counter()
        last = self._last_row_t
        self._last_row_t = now
        self._rows += 1
        kind = row.get("kind")
        if kind == "span_end":
            name = self._span_names.get(row["span"], "span_end")
            entry = self._entry(name)
            entry[1] += row["dur"]
            if name == _RUN_SPAN:
                self._wall_s += now - self._run_began
                # The engine's count is cumulative across its loops.
                self._events = row["attrs"]["events"]
        else:
            if kind == "span_begin":
                name = row["name"]
                self._span_names[row["span"]] = name
                if name == _RUN_SPAN:
                    self._run_began = now
            else:
                name = row.get("name") or str(kind)
            entry = self._entry(name)
            entry[0] += 1
            node = row.get("attrs", {}).get("node")
            if isinstance(node, int):
                self._node_rows[node] = self._node_rows.get(node, 0) + 1
        if last is not None:
            entry[2] += now - last

    def _entry(self, name: str) -> List[Any]:
        entry = self._by_name.get(name)
        if entry is None:
            entry = [0, 0.0, 0.0]
            self._by_name[name] = entry
        return entry

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

    def by_name(self) -> List[Dict[str, Any]]:
        """Every row name, in name order, with its three folds.

        Each entry is ``{"name", "count", "sim_s", "wall_s", "share"}``
        where ``share`` is the name's fraction of all *attributed* wall
        time.  Only ``wall_s`` and ``share`` depend on the host.
        """
        total = sum(entry[2] for entry in self._by_name.values())
        return [
            {
                "name": name,
                "count": entry[0],
                "sim_s": entry[1],
                "wall_s": entry[2],
                "share": entry[2] / total if total > 0 else 0.0,
            }
            for name, entry in sorted(self._by_name.items())
        ]

    def busiest_nodes(self) -> List[Tuple[int, int]]:
        """The :data:`TOP_NODES` nodes with the most rows, as ``(node, rows)``.

        Equal row counts rank by ascending node id, so the cut is
        deterministic whatever order the nodes were first seen in.
        """
        ranked = sorted(self._node_rows.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:TOP_NODES]
