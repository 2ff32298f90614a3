"""Deterministic sim-clock-windowed time series over trace rows.

The paper's evaluation is about *trends*: server load relief as the
overlays warm up (Figs 9-11), startup-delay behaviour under churn
(Figs 12-13), maintenance overhead as sessions progress (Fig 18).  The
end-of-run aggregates of :mod:`repro.metrics` cannot show a trend; this
module folds the deterministic trace-row stream of
:class:`repro.obs.tracer.Tracer` into fixed-width virtual-time windows:

* **counters** per window -- served requests, chunk transfers by source,
  server fallbacks, tracker lookups, churn arrivals/departures, TTL
  exhaustions, playback stalls, per-cluster (interest-category) request
  load;
* **rates** per window -- server chunk share, stall rate, mean search
  hops, mean startup delay;
* **gauges** sampled at window close -- active sessions, total overlay
  links, engine heap depth and events processed (via ``engine.tick``).

Two feeding paths, asserted byte-identical
(``tests/test_obs_timeseries.py``):

1. **Live** -- :func:`run_with_timeseries` installs a
   :class:`TimeSeriesCollector` as the tracer's row sink, so windows
   accumulate while the simulation runs;
2. **Replay** -- :func:`series_from_trace` re-feeds an exported JSONL
   artifact through the same collector.

Identity holds because every input is a trace row: rows are emitted in
virtual-time order, canonical JSON round-trips ints and floats exactly,
and the collector consumes nothing else -- no wall clock, no RNG, no
dataset.  A series is therefore a pure function of the
:class:`repro.experiments.spec.ExperimentSpec` that produced the trace,
for ``jobs=1`` and ``jobs=N`` alike.

Example::

    run = run_with_timeseries(spec, window_s=600.0)
    replayed = series_from_trace(run.jsonl, window_s=600.0)
    assert run.table.to_canonical_json() == replayed.to_canonical_json()
    run.table.series("server_share")     # [0.91, 0.54, 0.22, ...]
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.metrics.collectors import COUNTER_ROWS, COUNTERS
from repro.obs.export import parse_jsonl_bytes, run_traced

#: Bumped whenever the per-window record shape changes, mirroring the
#: trace/spec schema-version discipline so stale series artifacts and
#: baselines can never be misread by newer tooling.
TIMESERIES_SCHEMA_VERSION = 2

#: Default window width in virtual seconds -- the paper's 10-minute
#: probe period (Section V), a natural sampling cadence for overlay
#: health.
DEFAULT_WINDOW_S = 600.0

#: ``transfer.chunks`` sources that consumed a peer uplink.
_PEER_SOURCES = frozenset(("peer", "prefetch_peer"))
#: ``transfer.chunks`` sources that consumed the server uplink.
_SERVER_SOURCES = frozenset(("server", "prefetch_server"))

#: Shared empty-attrs dict for rows without attributes (read-only).
_NO_ATTRS: Dict[str, Any] = {}


@dataclass
class TimeSeriesTable:
    """The windowed series of one run: a list of per-window records.

    ``windows[i]`` is a plain dict (see docs/tracing.md for the field
    catalogue) covering virtual time ``[i * window_s, (i+1) *
    window_s)``; ``content_hash`` keys the table to the spec that
    produced the underlying trace.  The canonical JSON form is the
    byte-identity and baseline-digest surface.
    """

    window_s: float
    content_hash: str
    windows: List[Dict[str, Any]] = field(default_factory=list)
    schema: int = TIMESERIES_SCHEMA_VERSION

    @property
    def num_windows(self) -> int:
        """Number of windows covered (last event's window + 1)."""
        return len(self.windows)

    def series(self, name: str) -> List[Any]:
        """One named per-window field as a list, e.g. ``series("num_requests")``.

        Example::

            table.series("active_sessions")   # [104, 118, 97, ...]
        """
        return [record[name] for record in self.windows]

    def cluster_ids(self) -> List[str]:
        """Every cluster key appearing in any window, sorted numerically."""
        seen = set()
        for record in self.windows:
            seen.update(record["cluster_requests"])
        return sorted(seen, key=int)

    def cluster_series(self, cluster_id: str) -> List[int]:
        """Per-window request count for one cluster (0 where absent)."""
        return [
            record["cluster_requests"].get(cluster_id, 0)
            for record in self.windows
        ]

    def to_canonical_json(self) -> bytes:
        """Canonical JSON bytes (sorted keys, compact separators).

        Two tables built from the same spec -- live or by replay, on
        any worker layout -- serialize to identical bytes; this is the
        surface the determinism tests and baseline digests hash.
        """
        payload = {
            "schema": self.schema,
            "window_s": self.window_s,
            "content_hash": self.content_hash,
            "windows": self.windows,
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_canonical_json` (baseline key)."""
        return hashlib.sha256(self.to_canonical_json()).hexdigest()


#: Name -> dispatch code for :meth:`TimeSeriesCollector.observe_row`.
#: A single dict probe decides whether a row carries a windowed metric
#: at all -- rows outside this map (``flood.hop``, span ends, the
#: header, ...) exit after two comparisons, which is what holds the
#: streaming sink under the <5%-of-run overhead bar asserted in
#: ``tests/test_obs_timeseries.py``.  The code is also the row's slot in
#: the per-window tally list, so every metric-bearing row costs one
#: list increment; codes below :data:`_FIRST_ATTRS_CODE` are pure
#: tallies and return before the row's attrs are read.
_ROW_CODES: Dict[str, int] = {
    # Tallies only.
    "server.lookup": 0,
    "playback.stall": 1,
    "flood.ttl_exhausted": 2,
    "server.request": 3,
    # Tallies that also fold attrs.
    "transfer.chunks": 10,
    "request.serve": 11,
    "overlay.links": 12,
    "playback.report": 13,
    "flood.found": 14,
    "session.begin": 15,
    "session.end": 16,
    "engine.tick": 17,
}

#: Fault rows are dispatched only under ``include_faults`` (a nonzero
#: FaultPlan), so fault-free tables and their baseline digests are
#: untouched by the fault subsystem.  Every row that carries a declared
#: fault counter (:data:`repro.metrics.collectors.COUNTER_ROWS`) takes
#: this code, and its counters are summed into columns of their names.
_COUNTER_CODE = 18
#: The shed row carries a counter and also takes its request back out of
#: ``num_requests``.
_SHED_CODE = 20
#: The fault rows folded by hand: into the columns that have no counter,
#: and the shed into ``num_requests``.
_HAND_FAULT_CODES: Dict[str, int] = {
    # Outage / partition / flash-crowd edges share one tally.
    "tracker.outage": 4,
    "partition.transition": 4,
    "server.flash_crowd": 4,
    "overlay.repair": 19,
    "server.shed": _SHED_CODE,
}

#: Codes at or above this read the row's attrs after the tally.
_FIRST_ATTRS_CODE = 10
#: Length of the per-window tally list (one slot per code).
_NUM_CODES = 21

#: The fault counters that have rows: one window column each.
_WINDOW_COUNTERS = tuple(name for name, (rows, _by) in COUNTERS.items() if rows)


class TimeSeriesCollector:
    """Folds a time-ordered trace-row stream into fixed windows.

    Feed it rows via :meth:`observe_row` -- either live (installed as a
    :meth:`repro.obs.tracer.Tracer.set_sink` sink) or replayed from a
    parsed JSONL artifact -- then :meth:`finalize`.  The collector
    consumes only row contents, so the two paths are byte-identical by
    construction.

    Example::

        collector = TimeSeriesCollector(window_s=600.0)
        for row in parse_jsonl_bytes(payload):
            collector.observe_row(row)
        table = collector.finalize(content_hash=spec.content_hash())
    """

    # Slots give the per-row hot path fixed attribute offsets.
    __slots__ = (
        "window_s", "_include_faults", "_codes", "_records", "_index",
        "_window_end",
        # Gauges.
        "_active_sessions", "_overlay_links", "_links_by_node",
        "_pending_events", "_events_processed",
        # Per-window tallies and attr sums (see _reset_window).
        "_counts", "_cluster_requests", "_serve_cluster", "_server_chunks",
        "_peer_chunks", "_cache_chunks", "_hops_sum", "_startup_sum_s",
        "_stalled_reports", "_counter_sums", "_failover_latency_sum_s",
        "_failovers", "_repaired_links",
    )

    def __init__(
        self, window_s: float = DEFAULT_WINDOW_S, include_faults: bool = False
    ):
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError("window_s must be finite and positive")
        self.window_s = float(window_s)
        #: Fault-recovery columns appear only when the run was fault-
        #: injected; the per-instance dispatch map keeps the hot path
        #: identical either way (one dict probe).
        self._include_faults = bool(include_faults)
        self._codes = dict(_ROW_CODES)
        if self._include_faults:
            self._codes.update(dict.fromkeys(COUNTER_ROWS, _COUNTER_CODE))
            self._codes.update(_HAND_FAULT_CODES)
        self._records: List[Dict[str, Any]] = []
        self._index = 0
        self._window_end = self.window_s
        # Gauges: survive window flushes (carried forward).
        self._active_sessions = 0
        self._overlay_links = 0
        self._links_by_node: Dict[int, int] = {}
        self._pending_events = 0
        self._events_processed = 0
        #: Cluster of the latest request.serve span, open when a shed
        #: row arrives.
        self._serve_cluster: Optional[int] = None
        self._reset_window()

    def _reset_window(self) -> None:
        """Zero the per-window counters (gauges are left alone)."""
        #: Rows seen per dispatch code in this window.
        self._counts = [0] * _NUM_CODES
        self._cluster_requests: Dict[int, int] = {}
        self._server_chunks = 0
        self._peer_chunks = 0
        self._cache_chunks = 0
        self._hops_sum = 0
        self._startup_sum_s = 0.0
        self._stalled_reports = 0
        # Fault-recovery sums (recorded only under include_faults).
        self._counter_sums = dict.fromkeys(_WINDOW_COUNTERS, 0)
        self._failover_latency_sum_s = 0.0
        self._failovers = 0
        self._repaired_links = 0

    def _flush_window(self) -> None:
        """Close the current window into a record and start the next."""
        counts = self._counts
        total_shared = self._server_chunks + self._peer_chunks
        hops_count = counts[14]
        reports = counts[13]
        record: Dict[str, Any] = {
            "window": self._index,
            "t0": self._index * self.window_s,
            "rows": sum(counts),
            "num_requests": counts[11] - counts[_SHED_CODE],
            "cluster_requests": {
                str(cluster): count
                for cluster, count in sorted(self._cluster_requests.items())
                if count
            },
            "server_chunks": self._server_chunks,
            "peer_chunks": self._peer_chunks,
            "cache_chunks": self._cache_chunks,
            "server_share": (
                self._server_chunks / total_shared if total_shared else 0.0
            ),
            "server_requests": counts[3],
            "tracker_lookups": counts[0],
            "joins": counts[15],
            "leaves": counts[16],
            "ttl_exhausted": counts[2],
            "search_hops_mean": (
                self._hops_sum / hops_count if hops_count else 0.0
            ),
            "startup_ms_mean": (
                1000.0 * self._startup_sum_s / reports if reports else 0.0
            ),
            "stall_events": counts[1],
            "reports": reports,
            "stalled_reports": self._stalled_reports,
            "stall_rate": (
                self._stalled_reports / reports if reports else 0.0
            ),
            "active_sessions": self._active_sessions,
            "overlay_links": self._overlay_links,
            "pending_events": self._pending_events,
            "events_processed": self._events_processed,
        }
        if self._include_faults:
            record.update(self._counter_sums)
            record["failover_latency_ms_mean"] = (
                1000.0 * self._failover_latency_sum_s / self._failovers
                if self._failovers
                else 0.0
            )
            record["repaired_links"] = self._repaired_links
            record["infra_transitions"] = counts[4]
        self._records.append(record)
        self._index += 1
        self._window_end = (self._index + 1) * self.window_s
        self._reset_window()

    def observe_row(self, row: Dict[str, Any]) -> None:
        """Consume one trace row (rows without a windowed metric are ignored).

        Rows must arrive in non-decreasing ``t`` order -- the order the
        tracer emits and the JSONL artifact stores.  This is the live
        sink's hot path: two comparisons and one dict probe decide
        whether the row contributes at all, one list increment tallies
        it, and the attr-folding bodies are inlined behind integer codes
        (a bound-method call per row costs more than most of the
        bodies).  Both feeding paths run exactly this code, which is
        what makes them byte-identical.
        """
        kind = row["kind"]
        if kind != "event" and kind != "span_begin":
            return
        code = self._codes.get(row["name"])
        if code is None:
            return
        if row["t"] >= self._window_end:
            window = row["t"] // self.window_s
            while window > self._index:
                self._flush_window()
        self._counts[code] += 1
        if code < _FIRST_ATTRS_CODE:
            return
        attrs = row.get("attrs") or _NO_ATTRS
        if code == 10:  # transfer.chunks: bucket by supply side
            source = attrs.get("source")
            chunks = attrs.get("chunks", 0)
            if source in _PEER_SOURCES:
                self._peer_chunks += chunks
            elif source in _SERVER_SOURCES:
                self._server_chunks += chunks
            elif source == "cache":
                self._cache_chunks += chunks
        elif code == 11:  # request.serve span: per-cluster counts
            cluster = self._serve_cluster = attrs.get("cluster")
            if cluster is not None:
                self._cluster_requests[cluster] = (
                    self._cluster_requests.get(cluster, 0) + 1
                )
        elif code == 12:  # overlay.links: fold sample into the link total
            node = attrs.get("node")
            links = attrs.get("links", 0)
            self._overlay_links += links - self._links_by_node.get(node, 0)
            self._links_by_node[node] = links
        elif code == 13:  # playback.report: startup mean + stalled-watch rate
            self._startup_sum_s += attrs.get("startup_s", 0.0)
            if attrs.get("stalls", 0) > 0:
                self._stalled_reports += 1
        elif code == 14:  # flood.found: search depth for the hop mean
            self._hops_sum += attrs.get("depth", 0)
        elif code == 15 or code == 16:  # session.begin/end: active gauge
            self._active_sessions = attrs.get("active", self._active_sessions)
            if code == 16:  # a node out of session maintains no links
                self._overlay_links -= self._links_by_node.pop(attrs.get("user"), 0)
        elif code == 17:  # engine.tick: scheduler gauges
            self._pending_events = attrs.get("pending", self._pending_events)
            self._events_processed = attrs.get("events", self._events_processed)
        # Fault rows (codes mapped only under include_faults).
        elif code == 19:  # overlay.repair: crash-repair sweep outcome
            self._repaired_links += attrs.get("links", 0)
        else:  # a row carrying declared counters (the shed row among them)
            sums = self._counter_sums
            for counter, by in COUNTER_ROWS[row["name"]]:
                sums[counter] += attrs.get(by, 0) if by else 1
            latency_s = attrs.get("latency_s")
            if latency_s is not None:  # a settled failover
                self._failover_latency_sum_s += latency_s
                self._failovers += 1
            if code == _SHED_CODE:  # its request.serve span is still open
                if self._serve_cluster in self._cluster_requests:
                    self._cluster_requests[self._serve_cluster] -= 1

    def finalize(self, content_hash: str = "") -> TimeSeriesTable:
        """Close the trailing window and return the finished table.

        The final window is the one containing the last observed
        metric-bearing row (partial windows are kept -- their ``t0``
        says how far they reach).  A rowless stream yields an empty
        table.
        """
        if any(self._counts) or self._records:
            self._flush_window()
        return TimeSeriesTable(
            window_s=self.window_s,
            content_hash=content_hash,
            windows=self._records,
        )


@dataclass
class TimeseriesRun:
    """One live-collected run: result, exportable trace, and the table."""

    spec: ExperimentSpec
    result: ExperimentResult
    jsonl: bytes
    table: TimeSeriesTable


def run_with_timeseries(
    spec: ExperimentSpec,
    window_s: float = DEFAULT_WINDOW_S,
    dataset: Optional[object] = None,
) -> TimeseriesRun:
    """Execute one spec with live windowed collection attached.

    The tracer streams every row into a :class:`TimeSeriesCollector`
    as it is emitted and asks the engine for one ``engine.tick`` gauge
    row per window; the returned :class:`TimeseriesRun` carries the
    run result, the canonical JSONL trace (so the replay path can be
    cross-checked), and the finished table.

    Example::

        run = run_with_timeseries(spec)
        print(run.table.series("server_share"))
    """
    collector = TimeSeriesCollector(
        window_s=window_s, include_faults=spec.has_faults()
    )
    result, jsonl = run_traced(
        spec, dataset=dataset, sink=collector.observe_row, tick_every_s=window_s
    )
    table = collector.finalize(content_hash=spec.content_hash())
    return TimeseriesRun(spec=spec, result=result, jsonl=jsonl, table=table)


def series_from_trace(
    payload: bytes, window_s: float = DEFAULT_WINDOW_S
) -> TimeSeriesTable:
    """Rebuild the windowed series by replaying an exported JSONL trace.

    Byte-identical to the live path for the same spec and window: the
    collector sees the same rows in the same order, and canonical JSON
    round-trips every number exactly.  The table's ``content_hash`` is
    read from the trace header.

    Example::

        table = series_from_trace(open(path, "rb").read())
        assert table.to_canonical_json() == live_table.to_canonical_json()
    """
    collector = TimeSeriesCollector(window_s=window_s)
    content_hash = ""
    for row in parse_jsonl_bytes(payload):
        if row.get("kind") == "header":
            # The header's "faults" marker decides whether the replayed
            # table carries the fault-recovery columns, matching what
            # the live collector saw for the same spec.
            content_hash = row.get("content_hash", "")
            collector = TimeSeriesCollector(
                window_s=window_s, include_faults=bool(row.get("faults"))
            )
        else:
            collector.observe_row(row)
    return collector.finalize(content_hash=content_hash)
