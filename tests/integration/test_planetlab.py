"""Integration: the emulated PlanetLab testbed (Fig 16b/17b/18b regime)."""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec


@pytest.fixture(scope="module")
def results():
    config = SimulationConfig.planetlab_scale(seed=8).scaled_sessions(6)
    return {
        name: run_spec(
            ExperimentSpec(protocol=name, config=config, environment="planetlab")
        )
        for name in ("pavod", "socialtube", "nettube")
    }


class TestPlanetLabEnvironment:
    def test_all_protocols_complete(self, results):
        for result in results.values():
            assert result.metrics.num_requests == 250 * 6 * 10

    def test_socialtube_best_peer_bandwidth(self, results):
        st = results["socialtube"].metrics.peer_bandwidth_p50
        nt = results["nettube"].metrics.peer_bandwidth_p50
        pa = results["pavod"].metrics.peer_bandwidth_p50
        assert st > nt > pa

    def test_pavod_worst_startup(self, results):
        pa = results["pavod"].metrics.startup_delay_ms_mean
        others = [
            results[name].metrics.startup_delay_ms_mean
            for name in ("socialtube", "nettube")
        ]
        assert pa > max(others)

    def test_wan_delays_heavier_than_simulator(self, results):
        # Sanity: the WAN latency floor pushes peer-path startup well
        # above the simulator's ~10ms local-playback floor.
        st = results["socialtube"].metrics
        assert st.startup_delay_ms_mean > 50.0

    def test_socialtube_overhead_still_flat(self, results):
        series = results["socialtube"].metrics.overhead_series()
        assert series[-1][1] < 1.5 * max(series[0][1], 1.0)

    def test_failures_injected(self, results):
        # The WAN environment must actually exercise the failure path.
        from repro.experiments.config import planetlab_environment

        assert planetlab_environment().peer_failure_prob > 0
