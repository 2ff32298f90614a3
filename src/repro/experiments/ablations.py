"""Ablation studies: the paper's Section VI future-work questions.

"In our future work, we will study the impact of the different number
of links per node on the video sharing performance and explore the
value that can achieve an optimal tradeoff between the system
maintenance overhead and availability of peer video providers."

Three sweeps are provided, each over an identical workload/trace/seed:

* :func:`link_budget_sweep` -- vary (N_l, N_h); measures peer-provider
  availability (normalized peer bandwidth), startup delay, and the
  realised maintenance overhead.  The tradeoff the paper asks about.
* :func:`ttl_sweep` -- vary the search TTL; measures hit rate vs search
  overhead (peers contacted per query).
* :func:`churn_sweep` -- vary the mean off-time (session churn rate);
  measures how robust the per-community structure is to churn.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.spec import ExperimentSpec
from repro.metrics.collectors import ExperimentMetrics


@dataclass
class AblationPoint:
    """One configuration of a sweep and its measurements."""

    label: str
    parameters: Dict[str, float]
    peer_bandwidth_p50: float
    startup_delay_ms_mean: float
    mean_link_overhead: float
    server_fallback_fraction: float
    mean_peers_contacted: float

    def render(self) -> str:
        return (
            f"  {self.label:18s} "
            f"peer_bw_p50={self.peer_bandwidth_p50:.3f}  "
            f"startup_ms={self.startup_delay_ms_mean:7.1f}  "
            f"links={self.mean_link_overhead:5.1f}  "
            f"server={self.server_fallback_fraction:.3f}  "
            f"contacted={self.mean_peers_contacted:5.1f}"
        )


@dataclass
class AblationResult:
    """A full sweep: points in sweep order plus a derived recommendation."""

    name: str
    points: List[AblationPoint] = field(default_factory=list)

    def render_rows(self) -> List[str]:
        rows = [f"Ablation: {self.name}"]
        rows.extend(point.render() for point in self.points)
        best = self.best_tradeoff()
        if best is not None:
            rows.append(f"  best availability/overhead tradeoff: {best.label}")
        return rows

    def best_tradeoff(self) -> Optional[AblationPoint]:
        """The point maximising availability per unit of link overhead.

        A simple scalarisation of the paper's question: peer bandwidth
        divided by (1 + links maintained).  Points that never form links
        (PA-VoD-like degenerate configs) are not penalised to infinity.
        """
        if not self.points:
            return None
        return max(
            self.points,
            key=lambda p: p.peer_bandwidth_p50 / (1.0 + p.mean_link_overhead),
        )


def _spec_for(config: SimulationConfig, **overrides) -> ExperimentSpec:
    return ExperimentSpec(protocol="socialtube", config=config).with_params(
        **overrides
    )


def _point_from_metrics(
    label: str, parameters: Dict[str, float], metrics: ExperimentMetrics
) -> AblationPoint:
    overhead = metrics.overhead_by_video_index
    mean_links = sum(overhead.values()) / len(overhead) if overhead else 0.0
    return AblationPoint(
        label=label,
        parameters=parameters,
        peer_bandwidth_p50=metrics.peer_bandwidth_p50,
        startup_delay_ms_mean=metrics.startup_delay_ms_mean,
        mean_link_overhead=mean_links,
        server_fallback_fraction=metrics.server_fallback_fraction,
        mean_peers_contacted=metrics.mean_peers_contacted,
    )


def _run_points(
    name: str,
    points: Sequence[Tuple[str, Dict[str, float], ExperimentSpec]],
    jobs: int,
) -> AblationResult:
    """Execute a sweep's specs (fanning out when ``jobs > 1``).

    Every point shares the sweep config's trace recipe, so the shared
    cache synthesizes the corpus once for the whole sweep -- and once
    across *all* sweeps over the same config.
    """
    results = run_sweep([spec for _label, _params, spec in points], jobs=jobs)
    result = AblationResult(name=name)
    for (label, parameters, _spec), run in zip(points, results):
        result.points.append(_point_from_metrics(label, parameters, run.metrics))
    return result


def link_budget_sweep(
    config: SimulationConfig,
    budgets: Sequence[Tuple[int, int]] = ((1, 2), (3, 5), (5, 10), (8, 16), (12, 24)),
    jobs: int = 1,
) -> AblationResult:
    """Sweep (N_l, N_h): availability vs maintenance overhead.

    The paper's defaults (5, 10) should land near the knee: smaller
    budgets starve the flood's reach, larger ones buy little extra
    availability while inflating the per-node link count.
    """
    points = []
    for inner, inter in budgets:
        points.append(
            (
                f"N_l={inner}, N_h={inter}",
                {"inner_links": inner, "inter_links": inter},
                _spec_for(config, inner_link_limit=inner, inter_link_limit=inter),
            )
        )
    return _run_points("link budget (N_l, N_h)", points, jobs)


def ttl_sweep(
    config: SimulationConfig,
    ttls: Sequence[int] = (1, 2, 3, 4),
    jobs: int = 1,
) -> AblationResult:
    """Sweep the search TTL: hit rate vs per-query search overhead."""
    points = []
    for ttl in ttls:
        points.append((f"TTL={ttl}", {"ttl": ttl}, _spec_for(config, ttl=ttl)))
    return _run_points("search TTL", points, jobs)


def churn_sweep(
    config: SimulationConfig,
    mean_off_times: Sequence[float] = (60.0, 300.0, 1200.0, 3600.0),
    jobs: int = 1,
) -> AblationResult:
    """Sweep churn (mean off-time between sessions).

    Shorter off-times mean a larger online population (milder churn per
    unit time relative to session length); very long off-times shrink
    the online population and stress rejoin repair.
    """
    points = []
    for off_time in mean_off_times:
        point_config = dataclasses.replace(config, mean_off_time_s=off_time)
        points.append(
            (
                f"off={off_time:.0f}s",
                {"mean_off_time_s": off_time},
                _spec_for(point_config),
            )
        )
    return _run_points("churn (mean off time, s)", points, jobs)
