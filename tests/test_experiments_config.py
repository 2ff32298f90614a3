"""Unit tests for the experiment configuration (Table I)."""

import dataclasses

import pytest

from repro.experiments.config import (
    SimulationConfig,
    planetlab_environment,
    simulator_environment,
)
from repro.experiments.registry import get_protocol, protocol_names


class TestSimulationConfig:
    def test_default_valid(self):
        SimulationConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_nodes=1),
            dict(chunks_per_video=0),
            dict(video_bitrate_bps=0),
            dict(startup_buffer_s=0),
            dict(peer_upload_min_bps=0),
            dict(peer_upload_min_bps=5e6, peer_upload_max_bps=1e6),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_nodes_cannot_exceed_trace_population(self):
        from repro.trace.synthesizer import TraceConfig

        with pytest.raises(ValueError):
            SimulationConfig(
                num_nodes=500,
                trace=TraceConfig(num_users=100, num_channels=10, num_videos=100),
            )

    def test_server_bandwidth_default_ratio(self):
        # Table I ratio: 500 Mbps for 10,000 nodes = 50 kbps per node.
        config = SimulationConfig(num_nodes=1000)
        assert config.effective_server_bandwidth_bps == pytest.approx(50e6)

    def test_server_bandwidth_explicit_override(self):
        config = SimulationConfig(server_bandwidth_bps=123.0)
        assert config.effective_server_bandwidth_bps == 123.0

    def test_video_bits(self):
        config = SimulationConfig()
        assert config.video_bits(100.0) == pytest.approx(32_000_000.0)

    def test_startup_buffer_bits(self):
        config = SimulationConfig(startup_buffer_s=2.0)
        assert config.startup_buffer_bits() == pytest.approx(640_000.0)

    def test_paper_scale_matches_table1(self):
        config = SimulationConfig.paper_scale()
        assert config.num_nodes == 10000
        assert config.trace.num_channels == 545
        assert config.sessions_per_user == 250
        assert config.effective_server_bandwidth_bps == pytest.approx(500e6)

    def test_no_protocol_fields(self):
        # Protocol tuning lives only in the registry's params dataclasses.
        fields = {f.name for f in dataclasses.fields(SimulationConfig)}
        for name in protocol_names():
            params_type = get_protocol(name).params_type
            assert not fields & {f.name for f in dataclasses.fields(params_type)}
        assert not fields & {
            "inner_links", "inter_links",
            "nettube_links_per_overlay", "nettube_search_hops",
        }

    def test_planetlab_scale_matches_paper(self):
        config = SimulationConfig.planetlab_scale()
        assert config.num_nodes == 250
        assert config.trace.num_categories == 6
        assert config.trace.num_channels == 60
        assert config.trace.num_videos == 2400
        assert config.sessions_per_user == 50
        assert config.mean_off_time_s == pytest.approx(120.0)

    def test_scaled_sessions_copy(self):
        config = SimulationConfig.default_scale()
        shorter = config.scaled_sessions(3)
        assert shorter.sessions_per_user == 3
        assert config.sessions_per_user != 3  # original untouched
        assert shorter.num_nodes == config.num_nodes


class TestEnvironments:
    def test_simulator_environment(self, rng):
        env = simulator_environment()
        assert env.name == "peersim"
        assert env.peer_failure_prob == 0.0
        assert env.latency_factory(rng).sample(1, 2) > 0

    def test_planetlab_environment(self, rng):
        env = planetlab_environment()
        assert env.name == "planetlab"
        assert env.peer_failure_prob > 0
        assert env.latency_factory(rng).sample(1, 2) > 0
