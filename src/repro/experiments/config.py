"""Experiment configuration: Table I and the two environments.

Table I of the paper (values recovered from the OCR-mangled text; see
DESIGN.md section 5):

=========================  ==========================================
Simulation duration        30 days
Number of nodes            10,000
Number of videos           ~10,121
Number of channels         545
Video size                 YouTube video size distribution
Number of chunks per video 20
Video bitrate              320 kbps
Server bandwidth           500 Mbps
=========================  ==========================================

Plus Section V text: 10 videos per session, 250 sessions per user,
Poisson off-times with mean 500 s.  The protocol settings of Section V
(inner-links 5, inter-links 10, TTL 2, prefetch window 3) are the
defaults of the params dataclasses in :mod:`repro.experiments.registry`,
their one home.  The PlanetLab experiment scales down to 250 nodes,
6 categories x 10 channels x 40 videos, 50 sessions, mean off time 2
minutes.

Full paper scale is expensive in pure Python, so :func:`default_scale`
returns a proportionally scaled-down configuration for tests and
benchmarks; :func:`paper_scale` returns Table I verbatim.  The server
bandwidth scales with the node count (50 kbps per node, the Table I
ratio) so that the server-saturation regime -- the phenomenon behind
Fig 17 -- is preserved at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable, Dict, Optional

from repro.net.latency import (
    LatencyModel,
    PlanarLatencyModel,
    WanLatencyModel,
)
from repro.trace.synthesizer import TraceConfig


@dataclass
class Environment:
    """A network environment: latency shape + injected pathologies."""

    name: str
    latency_factory: Callable[[Random], LatencyModel]
    #: Probability that a chosen peer transfer fails mid-setup and the
    #: request falls back to the server (PlanetLab's "connection
    #: failure and network congestion").
    peer_failure_prob: float = 0.0
    #: Extra fixed signalling overhead per server interaction (s).
    server_processing_delay: float = 0.005


def simulator_environment() -> Environment:
    """The PeerSim-style simulation environment (Fig 16a/17a/18a)."""
    return Environment(
        name="peersim",
        latency_factory=lambda rng: PlanarLatencyModel(rng),
        peer_failure_prob=0.0,
    )


def planetlab_environment() -> Environment:
    """The PlanetLab-style WAN environment (Fig 16b/17b/18b).

    PlanetLab is retired, so its defining traits are emulated on the
    same event engine.  The paper attributes the baselines' zero
    1st-percentile peer bandwidth partly to "the unstable network
    environment on PlanetLab (e.g., connection failure and network
    congestion)"; this environment injects exactly those two
    pathologies: :class:`repro.net.latency.WanLatencyModel` adds heavy
    jitter and congestion episodes, and ``peer_failure_prob`` breaks
    peer connections.  :meth:`SimulationConfig.planetlab_scale` is the
    paper's testbed scale.
    """
    return Environment(
        name="planetlab",
        latency_factory=lambda rng: WanLatencyModel(rng),
        peer_failure_prob=0.06,
        server_processing_delay=0.010,
    )


#: Named environment factories.  ExperimentSpec stores an environment
#: *name* (Environment itself holds latency-model closures that do not
#: pickle across process boundaries); the runner resolves the name on
#: whichever process executes the spec.
ENVIRONMENT_FACTORIES: Dict[str, Callable[[], Environment]] = {
    "peersim": simulator_environment,
    "planetlab": planetlab_environment,
}


def environment_by_name(name: str) -> Environment:
    """A fresh Environment for a registered name; ValueError when unknown."""
    factory = ENVIRONMENT_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown environment {name!r}; "
            f"choose from {sorted(ENVIRONMENT_FACTORIES)}"
        )
    return factory()


@dataclass
class SimulationConfig:
    """Everything one experiment run needs."""

    # Population / corpus (Table I).
    num_nodes: int = 1000
    trace: TraceConfig = field(
        default_factory=lambda: TraceConfig(
            num_users=1000, num_channels=120, num_videos=4000
        )
    )
    # Session plan (Section V).
    sessions_per_user: int = 10
    videos_per_session: int = 10
    mean_off_time_s: float = 500.0
    # Video / transport model (Table I).
    chunks_per_video: int = 20
    video_bitrate_bps: float = 320_000.0
    startup_buffer_s: float = 2.0
    server_bandwidth_bps: Optional[float] = None  # None -> 50 kbps/node
    peer_upload_min_bps: float = 1_000_000.0
    peer_upload_max_bps: float = 4_000_000.0
    # Per-peer prefetch store (protocol tuning lives in the params
    # dataclasses of repro.experiments.registry).
    prefetch_store_capacity: int = 50
    # Misc.
    local_playback_delay_s: float = 0.010  # local decode/render startup
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.num_nodes > self.trace.num_users:
            raise ValueError("num_nodes cannot exceed the trace's user count")
        if self.chunks_per_video < 1:
            raise ValueError("chunks_per_video must be >= 1")
        if self.video_bitrate_bps <= 0 or self.startup_buffer_s <= 0:
            raise ValueError("bitrate and startup buffer must be positive")
        if self.peer_upload_min_bps <= 0 or self.peer_upload_max_bps < self.peer_upload_min_bps:
            raise ValueError("invalid peer upload range")

    @property
    def effective_server_bandwidth_bps(self) -> float:
        """Explicit value, or the Table I ratio of 50 kbps per node."""
        if self.server_bandwidth_bps is not None:
            return self.server_bandwidth_bps
        return 50_000.0 * self.num_nodes

    def video_bits(self, length_seconds: float) -> float:
        """Size of a video in bits at the configured bitrate."""
        return self.video_bitrate_bps * length_seconds

    def startup_buffer_bits(self) -> float:
        """Bits a player must buffer before playback starts."""
        return self.video_bitrate_bps * self.startup_buffer_s

    # -- canonical scales ------------------------------------------------------

    @classmethod
    def paper_scale(cls, seed: int = 2014) -> "SimulationConfig":
        """Table I verbatim: 10,000 nodes, 545 channels, 250 sessions."""
        return cls(
            num_nodes=10000,
            trace=TraceConfig.table1_scale(seed=seed),
            sessions_per_user=250,
            videos_per_session=10,
            mean_off_time_s=500.0,
            server_bandwidth_bps=500_000_000.0,
            seed=seed,
        )

    @classmethod
    def default_scale(cls, seed: int = 2014) -> "SimulationConfig":
        """Scaled-down Table I preserving all the ratios that matter.

        1,000 nodes (1/10), same sessions-per-user structure but 10
        sessions (enough for caches and overlays to reach steady
        state), server bandwidth at the Table I per-node ratio.
        """
        return cls(seed=seed)

    @classmethod
    def smoke_scale(cls, seed: int = 2014) -> "SimulationConfig":
        """Tiny config for unit tests (seconds, not minutes)."""
        return cls(
            num_nodes=120,
            trace=TraceConfig(
                num_users=120, num_channels=24, num_videos=600, seed=seed
            ),
            sessions_per_user=3,
            videos_per_session=5,
            mean_off_time_s=120.0,
            seed=seed,
        )

    @classmethod
    def planetlab_scale(cls, seed: int = 2014) -> "SimulationConfig":
        """The PlanetLab deployment of Section V.

        250 nodes; 6 categories x 10 channels x 40 videos = 2,400
        videos; 50 sessions per user; off times
        Poisson with mean 2 minutes.
        """
        return cls(
            num_nodes=250,
            trace=TraceConfig(
                num_users=250,
                num_channels=60,
                num_videos=2400,
                num_categories=6,
                seed=seed,
            ),
            sessions_per_user=50,
            videos_per_session=10,
            mean_off_time_s=120.0,
            seed=seed,
        )

    def scaled_sessions(self, sessions: int) -> "SimulationConfig":
        """Copy with a different session count (benchmark shortening)."""
        return replace(self, sessions_per_user=sessions)
