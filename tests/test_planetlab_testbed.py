"""Unit tests for the emulated PlanetLab testbed (fast paths only).

The testbed is the ``"planetlab"`` environment, run here on a tiny
corpus.  The full WAN comparison lives in
tests/integration/test_planetlab.py; these cover the wiring.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.trace.synthesizer import TraceConfig

TINY = SimulationConfig(
    num_nodes=40,
    trace=TraceConfig(num_users=40, num_channels=12, num_videos=240,
                      num_categories=6, seed=17),
    sessions_per_user=2,
    videos_per_session=3,
    mean_off_time_s=60.0,
    seed=17,
)


def _run(protocol, **overrides):
    spec = ExperimentSpec(protocol=protocol, config=TINY, environment="planetlab")
    return run_spec(spec.with_params(**overrides))


class TestPlanetLabEnvironment:
    def test_run_single_protocol(self):
        result = _run("socialtube")
        assert result.metrics.environment == "planetlab"
        assert result.metrics.num_requests == 40 * 2 * 3

    def test_protocol_overrides_forwarded(self):
        result = _run("socialtube", prefetch_window=0)
        assert result.metrics.prefetch_hit_fraction == 0.0

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            _run("socialtube", no_such_field=1)
