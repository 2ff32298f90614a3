"""Metric collection for experiment runs.

Definitions follow Section V verbatim:

* **Startup delay** -- "the time period a user must wait after (s)he
  selects a video before the video playback starts, including the time
  it takes to query peers or the server."
* **Normalized peer bandwidth** -- "the percent of video chunks
  provided by peers out of the total video chunks provided."  Computed
  per node, then summarised at the 1st/50th/99th percentiles as in
  Fig 16.  Chunks replayed from the local cache consumed nobody's
  uplink and are excluded.
* **Maintenance overhead** -- "the number of links a node must maintain
  in the overlays", sampled after each video against the within-session
  video index (Fig 18's x-axis).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import mean, percentile
from repro.net.message import ChunkSource


def metric(
    abs_tol: float, rel_tol: float, faults: bool = False, default: Any = MISSING
) -> Any:
    """Declare one run metric as a dataclass field.

    ``(abs_tol, rel_tol)`` is its regress band: the gate allows
    ``|observed - baseline| <= abs_tol + rel_tol * |baseline|``.
    Deterministic replays make zero the expected drift; the band bounds
    how far an *intentional* change may move the metric before the gate
    demands a baseline update in the same commit.  ``faults`` marks a
    metric captured only under a fault plan, so fault-free baselines
    keep their bytes.
    """
    return field(
        default=default, metadata={"band": (abs_tol, rel_tol), "faults": faults}
    )


def counter(row: Optional[str] = None, by: Optional[str] = None) -> Any:
    """Declare one fault counter: a :func:`metric` whose band is exact, 0
    on a fault-free run.  ``row`` names the trace row that carries it and
    ``by`` the row attribute holding each increment (None: 1 per row); a
    counter with no row has no window column.  See :data:`COUNTERS`."""
    declared = {"rows": (row,) if row else (), "by": by}
    return field(default=0, metadata={"band": (0.0, 0.0), "faults": True, **declared})


def metric_bands(cls: type, faults: bool = True) -> Dict[str, Tuple[float, float]]:
    """Name -> regress band of every metric ``cls`` declares, in field
    order; ``faults=False`` leaves out the fault-only ones."""
    return {
        f.name: f.metadata["band"]
        for f in fields(cls)
        if "band" in f.metadata and (faults or not f.metadata["faults"])
    }


@dataclass
class ExperimentMetrics:
    """Summary of one experiment run (one protocol, one environment).

    Every scalar is declared with :func:`metric`, each fault count with
    :func:`counter`; the regress gate, the seed aggregation, the chaos
    baselines and the time series read these declarations.  Fractions
    get a small absolute band, time/count metrics a relative one; fault
    counts replay exactly.
    """

    protocol: str
    environment: str
    num_requests: int = metric(0.0, 0.0)
    # Startup delay (milliseconds).
    startup_delay_ms_mean: float = metric(1.0, 0.05)
    startup_delay_ms_p50: float = metric(1.0, 0.05)
    startup_delay_ms_p99: float = metric(1.0, 0.10)
    # Normalized peer bandwidth percentiles across nodes (Fig 16).
    peer_bandwidth_p1: float = metric(0.02, 0.0)
    peer_bandwidth_p50: float = metric(0.02, 0.0)
    peer_bandwidth_p99: float = metric(0.02, 0.0)
    # Maintenance overhead by within-session video index (Fig 18).
    overhead_by_video_index: Dict[int, float]
    # Playback continuity (chunk-level streaming model).
    mean_continuity_index: float = metric(0.01, 0.0)
    stall_fraction: float = metric(0.02, 0.0)
    mean_stall_ms: float = metric(5.0, 0.05)
    # Supporting counters.
    server_fallback_fraction: float = metric(0.02, 0.0)
    cache_hit_fraction: float = metric(0.02, 0.0)
    prefetch_hit_fraction: float = metric(0.02, 0.0)
    mean_search_hops: float = metric(0.05, 0.05)
    mean_peers_contacted: float = metric(0.1, 0.05)
    # Fault recovery (repro.faults; all zero on fault-free runs).
    crashes: int = counter("churn.crash")
    interrupted_transfers: int = counter("failover.interrupted")
    failover_peer_resumes: int = counter("failover.resume")
    failover_server_fallbacks: int = counter("failover.server")
    failover_latency_ms_mean: float = metric(1.0, 0.05, faults=True, default=0.0)
    retries_per_serve: float = metric(0.01, 0.0, faults=True, default=0.0)
    degraded_serve_fraction: float = metric(0.02, 0.0, faults=True, default=0.0)
    # Correlated & infrastructure faults (repro.faults v2; all zero on
    # fault-free runs *and* on pre-v2 plans, so summaries and baselines
    # captured before these families existed keep their bytes).
    burst_crashes: int = counter("fault.community_crash", by="victims")
    tracker_lookup_failures: int = counter("tracker.lookup_failed")
    reregistrations: int = counter("tracker.reregister", by="count")
    partition_interrupts: int = counter()
    healed_nodes: int = counter("partition.healed", by="nodes")
    server_sheds: int = counter("server.shed")
    recovery_time_s: float = metric(1.0, 0.05, faults=True, default=0.0)

    def overhead_series(self) -> List[Tuple[int, float]]:
        """Fig 18 series: (videos watched, mean links maintained).

        Returns ``(video_index, mean_links)`` pairs sorted by the
        1-based within-session video index, ready to plot::

            >>> m = ExperimentMetrics(..., overhead_by_video_index={2: 8.0, 1: 6.0}, ...)
            ... # doctest: +SKIP
            >>> m.overhead_series()  # doctest: +SKIP
            [(1, 6.0), (2, 8.0)]
        """
        return sorted(self.overhead_by_video_index.items())

    def render_rows(self) -> List[str]:
        """Paper-style text summary, one line per metric family.

        Returns a list of indented strings (suitable for ``print`` or a
        report file): a header line with protocol/environment/request
        count, then startup delay, peer bandwidth, request-outcome
        fractions, search cost, playback continuity, and the Fig 18
        maintenance-overhead series.  Used by the ``trace`` and
        ``compare`` CLI commands.
        """
        rows = [
            f"{self.protocol} on {self.environment} ({self.num_requests} requests)",
            (
                "  startup delay ms: "
                f"mean={self.startup_delay_ms_mean:.1f} "
                f"p50={self.startup_delay_ms_p50:.1f} "
                f"p99={self.startup_delay_ms_p99:.1f}"
            ),
            (
                "  normalized peer bandwidth: "
                f"p1={self.peer_bandwidth_p1:.3f} "
                f"p50={self.peer_bandwidth_p50:.3f} "
                f"p99={self.peer_bandwidth_p99:.3f}"
            ),
            (
                "  fractions: "
                f"server={self.server_fallback_fraction:.3f} "
                f"cache={self.cache_hit_fraction:.3f} "
                f"prefetch_hit={self.prefetch_hit_fraction:.3f}"
            ),
            (
                "  search: "
                f"hops={self.mean_search_hops:.2f} "
                f"contacted={self.mean_peers_contacted:.2f}"
            ),
            (
                "  playback: "
                f"continuity={self.mean_continuity_index:.4f} "
                f"stalled_watches={self.stall_fraction:.3f} "
                f"mean_stall_ms={self.mean_stall_ms:.1f}"
            ),
        ]
        overhead = ", ".join(
            f"{idx}:{links:.1f}" for idx, links in self.overhead_series()
        )
        rows.append(f"  maintenance overhead by video index: {overhead}")
        if self.crashes or self.interrupted_transfers:
            rows.append(
                "  faults: "
                f"crashes={self.crashes} "
                f"interrupted={self.interrupted_transfers} "
                f"peer_resumes={self.failover_peer_resumes} "
                f"server_failovers={self.failover_server_fallbacks} "
                f"failover_ms={self.failover_latency_ms_mean:.1f} "
                f"retries/serve={self.retries_per_serve:.4f} "
                f"degraded={self.degraded_serve_fraction:.3f}"
            )
        if (
            self.burst_crashes
            or self.tracker_lookup_failures
            or self.reregistrations
            or self.partition_interrupts
            or self.healed_nodes
            or self.server_sheds
            or self.recovery_time_s
        ):
            rows.append(
                "  infra: "
                f"burst={self.burst_crashes} "
                f"lookup_failures={self.tracker_lookup_failures} "
                f"reregistered={self.reregistrations} "
                f"partition_cuts={self.partition_interrupts} "
                f"healed={self.healed_nodes} "
                f"sheds={self.server_sheds} "
                f"recovery_s={self.recovery_time_s:.1f}"
            )
        return rows


#: Fault counter -> (the trace rows that carry it, the row attribute
#: holding each increment or None for 1 per row): the :func:`counter`
#: fields of :class:`ExperimentMetrics`, plus the retry total behind
#: ``retries_per_serve`` (1 per re-sent lost query, 0 once the budget is
#: spent; a settled failover's ladder retries).  ``record_count`` accepts
#: these names; the fault injector records them by emitting their rows, and
#: the time series sums those rows into columns of the same names.
COUNTERS = MappingProxyType(
    {
        **{
            f.name: (f.metadata["rows"], f.metadata["by"])
            for f in fields(ExperimentMetrics)
            if "rows" in f.metadata
        },
        "failover_retries": (
            ("failover.query_lost", "failover.resume", "failover.server"),
            "retries",
        ),
    }
)

#: Trace row -> the ``(counter, by)`` pairs it carries, from :data:`COUNTERS`.
COUNTER_ROWS = MappingProxyType(
    {
        row: tuple((name, by) for name, (rows, by) in COUNTERS.items() if row in rows)
        for rows, _by in COUNTERS.values()
        for row in rows
    }
)


class MetricsCollector:
    """Accumulates raw observations during a run."""

    def __init__(self, protocol: str, environment: str):
        self.protocol = protocol
        self.environment = environment
        self._startup_delays_ms: List[float] = []
        self._peer_chunks: Dict[int, int] = defaultdict(int)
        self._server_chunks: Dict[int, int] = defaultdict(int)
        self._cache_chunks: Dict[int, int] = defaultdict(int)
        #: video index -> [links total, samples]; integer sums stay
        #: exact, so their mean equals the mean of the samples.
        self._overhead: Dict[int, List[int]] = {}
        #: Totals over every request; ``requests`` is their count.
        self._hops = 0
        self._contacted = 0
        self.requests = 0
        self.server_fallbacks = 0
        self.cache_hits = 0
        self.prefetch_hits = 0
        self._continuity: List[float] = []
        self._stall_ms: List[float] = []
        self.stalled_watches = 0
        # Fault recovery (repro.faults): crash-churn, failover and
        # infrastructure-fault counters, by name.  The server-side ones
        # (lookup failures, sheds) are added by the runner after the
        # event loop drains.
        self._counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._failover_latencies_ms: List[float] = []
        #: Instant the first armed infrastructure fault strikes (set by
        #: the runner); 0.0 disables recovery-time measurement.
        self.fault_onset_t = 0.0
        self._last_recovery_t: Optional[float] = None

    # -- recording -----------------------------------------------------------

    def record_request(
        self,
        user_id: int,
        startup_delay_s: float,
        from_server: bool,
        from_cache: bool,
        hops: int,
        peers_contacted: int,
        prefetch_hit: bool,
    ) -> None:
        self.requests += 1
        self._startup_delays_ms.append(startup_delay_s * 1000.0)
        if from_server:
            self.server_fallbacks += 1
        if from_cache:
            self.cache_hits += 1
        if prefetch_hit:
            self.prefetch_hits += 1
        self._hops += hops
        self._contacted += peers_contacted

    def record_chunks(self, user_id: int, source: ChunkSource, count: int) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        if source is ChunkSource.CACHE:
            self._cache_chunks[user_id] += count
        elif source.is_peer:
            self._peer_chunks[user_id] += count
        else:
            self._server_chunks[user_id] += count

    def record_overhead(self, user_id: int, video_index: int, links: int) -> None:
        entry = self._overhead.get(video_index)
        if entry is None:
            self._overhead[video_index] = [links, 1]
        else:
            entry[0] += links
            entry[1] += 1

    def record_count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the fault counter ``name`` (one of :data:`COUNTERS`)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if name not in self._counts:
            raise KeyError(f"unknown counter {name!r}")
        self._counts[name] += n

    def record_failover_latency(self, latency_s: float) -> None:
        """Record the interruption-to-resume latency of one settled failover.

        Its destination and retries are counters carried by its
        ``failover.resume`` or ``failover.server`` row.
        """
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self._failover_latencies_ms.append(latency_s * 1000.0)

    def note_recovery_action(self, now: float) -> None:
        """Timestamp a recovery action (resume, repair, reannounce, heal).

        ``recovery_time_s`` is the gap between the first armed fault
        striking and the *last* such action -- how long until the system
        was whole again, including the post-heal repair tail.
        """
        self._last_recovery_t = now

    def record_playback(
        self, user_id: int, continuity_index: float, total_stall_s: float
    ) -> None:
        """Record the chunk-level playback outcome of one watch."""
        if not 0.0 <= continuity_index <= 1.0:
            raise ValueError("continuity index must be in [0, 1]")
        if total_stall_s < 0:
            raise ValueError("stall time must be non-negative")
        self._continuity.append(continuity_index)
        self._stall_ms.append(total_stall_s * 1000.0)
        if total_stall_s > 0:
            self.stalled_watches += 1

    def check_chunks(self, chunks_per_video: int) -> None:
        """Raise unless each request's ``chunks_per_video`` chunks were each
        recorded against exactly one source: peer, server or cache (run end)."""
        by_source = [
            sum(chunks.values())
            for chunks in (self._peer_chunks, self._server_chunks, self._cache_chunks)
        ]
        if sum(by_source) != chunks_per_video * self.requests:
            raise RuntimeError(
                f"chunk ledger unbalanced at run end: {by_source} peer, server "
                f"and cache chunks vs {chunks_per_video} x {self.requests} requests"
            )

    # -- summaries --------------------------------------------------------------

    def node_peer_bandwidth(self) -> List[float]:
        """Per-node normalized peer bandwidth (the Fig 16 population)."""
        nodes = set(self._peer_chunks) | set(self._server_chunks)
        fractions = []
        # Sorted: the fractions feed mean(), and float summation order
        # must not depend on set hash order.
        for node in sorted(nodes):
            peer = self._peer_chunks[node]
            server = self._server_chunks[node]
            total = peer + server
            if total > 0:
                fractions.append(peer / total)
        return fractions

    def summarize(self) -> ExperimentMetrics:
        if self.requests == 0:
            raise RuntimeError("no requests recorded")
        delays = self._startup_delays_ms
        bandwidth = self.node_peer_bandwidth() or [0.0]
        overhead = {
            idx: float(total) / count
            for idx, (total, count) in self._overhead.items()
        }
        continuity = self._continuity or [1.0]
        stall_ms = self._stall_ms or [0.0]
        counts = dict(self._counts)
        retries = counts.pop("failover_retries")
        return ExperimentMetrics(
            protocol=self.protocol,
            environment=self.environment,
            num_requests=self.requests,
            startup_delay_ms_mean=mean(delays),
            startup_delay_ms_p50=percentile(delays, 50),
            startup_delay_ms_p99=percentile(delays, 99),
            peer_bandwidth_p1=percentile(bandwidth, 1),
            peer_bandwidth_p50=percentile(bandwidth, 50),
            peer_bandwidth_p99=percentile(bandwidth, 99),
            overhead_by_video_index=overhead,
            mean_continuity_index=mean(continuity),
            stall_fraction=(
                self.stalled_watches / len(self._continuity)
                if self._continuity
                else 0.0
            ),
            mean_stall_ms=mean(stall_ms),
            server_fallback_fraction=self.server_fallbacks / self.requests,
            cache_hit_fraction=self.cache_hits / self.requests,
            prefetch_hit_fraction=self.prefetch_hits / self.requests,
            mean_search_hops=float(self._hops) / self.requests,
            mean_peers_contacted=float(self._contacted) / self.requests,
            failover_latency_ms_mean=(
                mean(self._failover_latencies_ms)
                if self._failover_latencies_ms
                else 0.0
            ),
            retries_per_serve=retries / self.requests,
            degraded_serve_fraction=counts["failover_server_fallbacks"] / self.requests,
            recovery_time_s=(
                max(0.0, self._last_recovery_t - self.fault_onset_t)
                if self.fault_onset_t > 0 and self._last_recovery_t is not None
                else 0.0
            ),
            **counts,
        )
