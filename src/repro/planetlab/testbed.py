"""The emulated PlanetLab testbed (Section V, second environment).

Bundles the WAN environment with the paper's PlanetLab-scale
configuration (250 nodes, 6 categories x 10 channels x 40 videos, 50
sessions per user, 2-minute mean off time) and exposes one call that
runs a protocol on it.

Fidelity notes: the paper attributes the baselines' zero 1st-percentile
peer bandwidth partly to "the unstable network environment on
PlanetLab (e.g., connection failure and network congestion)"; the
emulation injects exactly those two pathologies via
:class:`repro.net.latency.WanLatencyModel` (congestion episodes) and
the environment's ``peer_failure_prob`` (connection failures), both
declared by the ``"planetlab"`` entry of
``repro.experiments.config.ENVIRONMENT_FACTORIES``.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentResult, run_spec
from repro.experiments.spec import ExperimentSpec


class PlanetLabTestbed:
    """Convenience front-end for WAN-environment experiments."""

    def __init__(self, config: Optional[SimulationConfig] = None):
        self.config = config or SimulationConfig.planetlab_scale()

    def run(self, protocol_name: str, **overrides) -> ExperimentResult:
        """Deploy one protocol on the testbed and run the experiment.

        ``protocol_name`` is one of ``"socialtube"``, ``"nettube"``,
        ``"pavod"``; ``overrides`` are fields of that protocol's typed
        params dataclass (e.g. ``prefetch_window=0``), and an unknown
        field raises TypeError.
        """
        spec = ExperimentSpec(
            protocol=protocol_name, config=self.config, environment="planetlab"
        )
        return run_spec(spec.with_params(**overrides))

    def compare_protocols(self, names=("pavod", "socialtube", "nettube")):
        """Run several protocols on identical workload seeds."""
        return {name: self.run(name) for name in names}
