# shard: module=shard-local -- instances live and die inside one run/shard
"""Probe-traffic accounting: the cost side of maintenance overhead.

Section IV-A: "each node periodically probes its neighbors" (every 10
minutes in the experiments).  The harness models the *repair* behaviour
directly (lazy detection + top-up, DESIGN.md §5) but not the probe
*messages*; this module prices them analytically, which is exact for a
fixed probe period:

    probes sent by a node over a session
        = links_maintained x (session_duration / probe_period)

Since the paper's maintenance-overhead metric (Figs 15/18) is the link
count, probe traffic is simply proportional to the areas under those
curves -- this module turns the measured link-count series into the
message counts a deployment would actually pay, enabling an
apples-to-apples protocol comparison in messages/second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Section V: "Nodes probe their neighbors every 10 minutes".
DEFAULT_PROBE_PERIOD_S = 600.0  # shard: shared-read

#: Delay between a crash and the survivors' repair sweep (repro.faults).
#: Bounded by the probe period -- a survivor's own cycle would notice
#: the dead neighbor within DEFAULT_PROBE_PERIOD_S anyway; the default
#: models the faster failure-triggered repair path.
DEFAULT_REPAIR_WINDOW_S = 60.0  # shard: shared-read


def record_repair_sweep(tracer, node: int, links: int) -> None:
    """Emit one ``overlay.repair`` event after a crash-repair sweep.

    ``links`` counts the surviving neighbors whose link tables were
    healed (dead entry dropped, budget topped back up).  Called by the
    experiment runner when the repair window elapses after a
    ``churn.crash``; no-op when ``tracer`` is falsy.
    """
    if tracer:
        tracer.event("overlay.repair", node=node, links=links)


def record_link_sample(tracer, node: int, links: int, video_index: int) -> None:
    """Emit one ``overlay.links`` gauge sample for a node's link count.

    Called by the experiment runner when each watch starts, right after
    the served request (the same moment the Fig 18 collector samples:
    the links the node maintains while it watches its ``video_index``-th
    video of the session), so a traced run carries the
    raw per-node link-count series.  :mod:`repro.obs.timeseries` folds
    these samples into the windowed ``overlay_links`` total -- the
    maintenance-overhead-over-time view (Fig 18's trend, and the link
    count :func:`estimate_probe_traffic` prices).  No-op when ``tracer``
    is falsy.
    """
    if tracer:
        tracer.event("overlay.links", node=node, links=links, index=video_index)


@dataclass
class ProbeTrafficEstimate:
    """Probe-message cost for one protocol over one session."""

    protocol: str
    probe_period_s: float
    session_duration_s: float
    mean_links: float
    probes_per_session: float
    probes_per_second: float

    def render(self) -> str:
        return (
            f"  {self.protocol:12s} mean_links={self.mean_links:5.1f}  "
            f"probes/session={self.probes_per_session:7.1f}  "
            f"probes/s={self.probes_per_second:.4f}"
        )


def estimate_probe_traffic(
    protocol: str,
    overhead_series: Sequence[Tuple[int, float]],
    session_duration_s: float,
    probe_period_s: float = DEFAULT_PROBE_PERIOD_S,
) -> ProbeTrafficEstimate:
    """Price the probe messages implied by a Fig 18 link-count series.

    ``overhead_series`` is the (video index, mean links) series produced
    by :meth:`repro.metrics.collectors.ExperimentMetrics.overhead_series`;
    the time-average link count is taken over the session (videos are
    equally spaced in session time to first order).
    """
    if probe_period_s <= 0:
        raise ValueError("probe_period_s must be positive")
    if session_duration_s <= 0:
        raise ValueError("session_duration_s must be positive")
    if not overhead_series:
        raise ValueError("overhead_series must be non-empty")
    mean_links = sum(links for _idx, links in overhead_series) / len(overhead_series)
    probes_per_session = mean_links * (session_duration_s / probe_period_s)
    return ProbeTrafficEstimate(
        protocol=protocol,
        probe_period_s=probe_period_s,
        session_duration_s=session_duration_s,
        mean_links=mean_links,
        probes_per_session=probes_per_session,
        probes_per_second=probes_per_session / session_duration_s,
    )


def compare_probe_traffic(
    series_by_protocol: Dict[str, Sequence[Tuple[int, float]]],
    session_duration_s: float,
    probe_period_s: float = DEFAULT_PROBE_PERIOD_S,
) -> List[ProbeTrafficEstimate]:
    """Estimate probe traffic for several protocols, sorted cheapest first."""
    estimates = [
        estimate_probe_traffic(name, series, session_duration_s, probe_period_s)
        for name, series in series_by_protocol.items()
    ]
    estimates.sort(key=lambda e: e.probes_per_session)
    return estimates
