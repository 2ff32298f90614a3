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
DEFAULT_PROBE_PERIOD_S = 600.0


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
