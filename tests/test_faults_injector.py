"""Unit tests for the seeded fault injector and its stream isolation."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.rng import RngStreams


def _injector(**kwargs):
    defaults = dict(crash_rate_per_hour=6.0, query_loss_prob=0.2, slow_peer_prob=0.3)
    defaults.update(kwargs)
    return FaultInjector(FaultPlan(**defaults), RngStreams(11))


class TestNullInjector:
    def test_real_injector_is_truthy(self):
        assert _injector()

    def test_zero_plan_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), RngStreams(1))


class TestDraws:
    def test_crash_delay_none_when_rate_zero(self):
        injector = _injector(crash_rate_per_hour=0.0)
        assert injector.crash_delay() is None

    def test_crash_delays_positive_with_plausible_mean(self):
        injector = _injector(crash_rate_per_hour=4.0)
        draws = [injector.crash_delay() for _ in range(2000)]
        assert all(delay > 0 for delay in draws)
        # exponential with mean 900s; the sample mean should be close
        assert 800 < sum(draws) / len(draws) < 1000

    def test_query_loss_frequency_tracks_probability(self):
        injector = _injector(query_loss_prob=0.2)
        losses = sum(injector.query_lost() for _ in range(5000))
        assert 0.15 < losses / 5000 < 0.25

    def test_query_loss_never_fires_at_zero_probability(self):
        injector = _injector(query_loss_prob=0.0)
        assert not any(injector.query_lost() for _ in range(100))

    def test_peer_rate_degrades_to_factor_or_passes_through(self):
        injector = _injector(slow_peer_prob=0.5, slow_peer_factor=0.25)
        rates = {injector.peer_rate(1000.0) for _ in range(200)}
        assert rates == {1000.0, 250.0}

    def test_brownout_is_a_pure_function_of_the_clock(self):
        injector = _injector(brownout_period_s=100.0, brownout_duty=0.25)
        assert injector.in_brownout(0.0)
        assert injector.in_brownout(24.9)
        assert not injector.in_brownout(25.0)
        assert not injector.in_brownout(99.0)
        assert injector.in_brownout(100.0)  # next period

    def test_server_rate_halves_inside_brownout(self):
        injector = _injector(
            brownout_period_s=100.0, brownout_duty=0.25, brownout_factor=0.5
        )
        assert injector.server_rate(1000.0, now=10.0) == 500.0
        assert injector.server_rate(1000.0, now=60.0) == 1000.0


class TestStreamIsolation:
    def test_injector_streams_never_perturb_existing_streams(self):
        """The zero-plan byte-identity guarantee, at the RNG layer."""
        plain = RngStreams(2014)
        baseline = [plain.stream(name).random() for name in
                    ("workload", "churn", "latency", "protocol")]

        with_faults = RngStreams(2014)
        injector = FaultInjector(FaultPlan.demo(), with_faults)
        injector.crash_delay()
        injector.query_lost()
        injector.peer_rate(1000.0)
        observed = [with_faults.stream(name).random() for name in
                    ("workload", "churn", "latency", "protocol")]
        assert observed == baseline

    def test_draws_are_deterministic_given_seed(self):
        a = FaultInjector(FaultPlan.demo(), RngStreams(5))
        b = FaultInjector(FaultPlan.demo(), RngStreams(5))
        assert [a.crash_delay() for _ in range(10)] == [
            b.crash_delay() for _ in range(10)
        ]
        assert [a.query_lost() for _ in range(10)] == [
            b.query_lost() for _ in range(10)
        ]
