"""Unit tests for the PlanetLab testbed front-end (fast paths only).

The full WAN comparison lives in tests/integration/test_planetlab.py;
these cover the wiring.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.planetlab.testbed import PlanetLabTestbed
from repro.trace.synthesizer import TraceConfig


@pytest.fixture()
def tiny_testbed():
    config = SimulationConfig(
        num_nodes=40,
        trace=TraceConfig(num_users=40, num_channels=12, num_videos=240,
                          num_categories=6, seed=17),
        sessions_per_user=2,
        videos_per_session=3,
        mean_off_time_s=60.0,
        seed=17,
    )
    return PlanetLabTestbed(config=config)


class TestPlanetLabTestbed:
    def test_default_config_is_paper_scale(self):
        testbed = PlanetLabTestbed()
        assert testbed.config == SimulationConfig.planetlab_scale()
        assert testbed.config.num_nodes == 250

    def test_run_single_protocol(self, tiny_testbed):
        result = tiny_testbed.run("socialtube")
        assert result.metrics.environment == "planetlab"
        assert result.metrics.num_requests == 40 * 2 * 3

    def test_protocol_overrides_forwarded(self, tiny_testbed):
        result = tiny_testbed.run("socialtube", prefetch_window=0)
        assert result.metrics.prefetch_hit_fraction == 0.0

    def test_unknown_override_rejected(self, tiny_testbed):
        with pytest.raises(TypeError):
            tiny_testbed.run("socialtube", no_such_field=1)

    def test_compare_protocols_keys(self, tiny_testbed):
        results = tiny_testbed.compare_protocols(names=("pavod", "socialtube"))
        assert set(results) == {"pavod", "socialtube"}
