#!/usr/bin/env python
"""The paper's second environment: a PlanetLab-like wide-area testbed.

Deploys all three systems on 250 emulated WAN nodes (continent-scale
latencies, heavy jitter, congestion episodes, transient connection
failures) at the paper's PlanetLab scale: 6 categories x 10 channels x
40 videos, 50 sessions per user, 2-minute mean off times.

The paper's WAN-specific finding to look for: the 1st-percentile peer
bandwidth of NetTube and PA-VoD collapses toward zero under the
unstable network, while SocialTube stays positive.

Run:  python examples/planetlab_emulation.py
"""

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec


def main() -> None:
    config = SimulationConfig.planetlab_scale(seed=3)
    # Trim the session count so the example finishes in ~a minute; use
    # the full 50-session config for the real benchmark numbers.
    trimmed = config.scaled_sessions(12)
    print(
        f"Emulated PlanetLab: {config.num_nodes} WAN nodes, "
        f"{config.trace.num_categories} categories x "
        f"{config.trace.num_channels // config.trace.num_categories} channels x "
        f"{config.trace.num_videos // config.trace.num_channels} videos"
    )
    results = {
        name: run_spec(
            ExperimentSpec(protocol=name, config=trimmed, environment="planetlab")
        )
        for name in ("pavod", "socialtube", "nettube")
    }
    for name, result in results.items():
        print()
        print("\n".join(result.render_rows()))

    print()
    p1 = {n: r.metrics.peer_bandwidth_p1 for n, r in results.items()}
    print(
        "WAN 1st-percentile peer bandwidth -- "
        + ", ".join(f"{n}: {v:.3f}" for n, v in p1.items())
    )


if __name__ == "__main__":
    main()
