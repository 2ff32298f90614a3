"""Unit tests for the experiment runner."""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.registry import protocol_names
from repro.experiments.runner import ExperimentRunner, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.faults.plan import FaultPlan
from repro.net.message import ChunkSource
from repro.trace.synthesizer import TraceConfig, TraceSynthesizer


MICRO = SimulationConfig(
    num_nodes=40,
    trace=TraceConfig(num_users=40, num_channels=10, num_videos=200,
                      num_categories=4, seed=10),
    sessions_per_user=2,
    videos_per_session=4,
    mean_off_time_s=60.0,
    seed=10,
)


def micro_spec(protocol="socialtube", **overrides):
    return ExperimentSpec(protocol=protocol, config=MICRO).with_params(**overrides)


class TestConstruction:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="bittorrent", config=MICRO)

    def test_registry_contents(self):
        assert set(protocol_names()) == {"socialtube", "nettube", "pavod", "gridcast"}

    def test_runner_requires_spec(self):
        with pytest.raises(TypeError):
            ExperimentRunner(MICRO)

    def test_dataset_population_checked(self):
        small = TraceSynthesizer(
            TraceConfig(num_users=10, num_channels=3, num_videos=30, seed=1)
        ).synthesize()
        with pytest.raises(ValueError):
            ExperimentRunner(micro_spec(), dataset=small)

    def test_protocol_overrides_forwarded(self):
        runner = ExperimentRunner(micro_spec(prefetch_window=1))
        assert runner.protocol.prefetcher.window == 1

    def test_run_experiment_shim_removed(self):
        import repro.experiments as experiments

        assert not hasattr(experiments, "run_experiment")
        assert "run_experiment" not in experiments.__all__


class TestRun:
    @pytest.mark.parametrize("name", ["socialtube", "nettube", "pavod"])
    def test_completes_all_sessions(self, name):
        result = run_spec(micro_spec(name))
        expected = MICRO.num_nodes * MICRO.sessions_per_user * MICRO.videos_per_session
        assert result.metrics.num_requests == expected

    def test_deterministic_runs(self):
        a = run_spec(micro_spec())
        b = run_spec(micro_spec())
        assert a.metrics.startup_delay_ms_mean == b.metrics.startup_delay_ms_mean
        assert a.metrics.peer_bandwidth_p50 == b.metrics.peer_bandwidth_p50
        assert a.events_processed == b.events_processed

    def test_different_seeds_differ(self):
        a = run_spec(micro_spec())
        b = run_spec(micro_spec().with_seed(11))
        assert a.metrics.startup_delay_ms_mean != b.metrics.startup_delay_ms_mean

    def test_all_peers_end_offline(self):
        runner = ExperimentRunner(micro_spec())
        runner.run()
        assert all(not peer.online for peer in runner.protocol.peers.values())
        assert runner.server.online_count == 0

    def test_bandwidth_slots_all_released(self):
        runner = ExperimentRunner(micro_spec("pavod"))
        runner.run()
        assert runner.server.uplink.active_transfers == 0
        assert all(
            peer.uplink.active_transfers == 0
            for peer in runner.protocol.peers.values()
        )

    def test_startup_delays_nonnegative(self):
        result = run_spec(micro_spec("nettube"))
        assert result.metrics.startup_delay_ms_p50 >= 0
        assert result.metrics.startup_delay_ms_p99 >= result.metrics.startup_delay_ms_p50

    def test_overhead_sampled_for_every_video_index(self):
        result = run_spec(micro_spec())
        assert set(result.metrics.overhead_by_video_index) == set(
            range(1, MICRO.videos_per_session + 1)
        )

    def test_prefetch_disabled_means_no_hits(self):
        result = run_spec(micro_spec(prefetch_window=0))
        assert result.metrics.prefetch_hit_fraction == 0.0

    def test_corrupted_chunk_count_raises(self):
        runner = ExperimentRunner(micro_spec())
        runner.run()  # the run-end check passed
        runner.metrics.record_chunks(0, ChunkSource.CACHE, 1)
        with pytest.raises(RuntimeError, match="chunk ledger unbalanced"):
            runner.metrics.check_chunks(MICRO.chunks_per_video)

    def test_render_rows(self):
        result = run_spec(micro_spec())
        text = "\n".join(result.render_rows())
        assert "SocialTube" in text
        assert "server" in text


def _counting(owner, name):
    """Wrap ``owner.name`` on this instance; returns the call list."""
    calls = []
    original = getattr(owner, name)

    def counted(user_id, *args):
        calls.append(user_id)
        return original(user_id, *args)

    setattr(owner, name, counted)
    return calls


class TestMaintenanceCadence:
    """Repair runs before each next video; a leaving node repairs nothing."""

    @pytest.mark.parametrize("name", ["socialtube", "nettube"])
    def test_maintenance_runs_once_per_next_video(self, name):
        config = SimulationConfig.smoke_scale()
        runner = ExperimentRunner(ExperimentSpec(protocol=name, config=config))
        calls = _counting(runner.protocol, "on_maintenance")
        result = runner.run()
        sessions = config.num_nodes * config.sessions_per_user
        assert result.metrics.num_requests == sessions * config.videos_per_session
        assert len(calls) == result.metrics.num_requests - sessions

    @pytest.mark.parametrize("name", ["socialtube", "nettube"])
    def test_one_overhead_sample_per_served_request(self, name):
        """A crash cuts a watch short; its Fig 18 sample was taken when
        the watch started, so every served request has one."""
        spec = ExperimentSpec(
            protocol=name, config=SimulationConfig.smoke_scale()
        ).with_faults(FaultPlan.demo())
        runner = ExperimentRunner(spec)
        samples = _counting(runner.metrics, "record_overhead")
        result = runner.run()
        assert result.metrics.crashes > 0
        assert len(samples) == result.metrics.num_requests


class TestPrefetchWindow:
    """The params window alone steers prefetching (Fig 17 "w/o PF")."""

    @pytest.mark.parametrize("name", ["socialtube", "nettube"])
    def test_window_reaches_the_protocol(self, name):
        base = ExperimentSpec(protocol=name, config=SimulationConfig.smoke_scale())
        default = run_spec(base)
        narrow = run_spec(base.with_params(prefetch_window=1))
        off = run_spec(base.with_params(prefetch_window=0))
        assert default.metrics.prefetch_hit_fraction > 0.0
        assert off.metrics.prefetch_hit_fraction == 0.0
        assert narrow.render_rows() != default.render_rows()
