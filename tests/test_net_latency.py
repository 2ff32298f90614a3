"""Unit tests for the latency models."""

import random

import pytest

from repro.net.latency import (
    SERVER_NODE_ID,
    PlanarLatencyModel,
    UniformLatencyModel,
    WanLatencyModel,
)


class TestUniformLatencyModel:
    def test_within_bounds(self):
        model = UniformLatencyModel(random.Random(1), low=0.01, high=0.05)
        for _ in range(200):
            assert 0.01 <= model.sample(1, 2) <= 0.05

    def test_self_latency_zero(self):
        model = UniformLatencyModel(random.Random(1))
        assert model.sample(3, 3) == 0.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(random.Random(1), low=0.1, high=0.05)

    def test_rtt_is_two_samples(self):
        model = UniformLatencyModel(random.Random(1), low=0.02, high=0.02)
        assert model.rtt(1, 2) == pytest.approx(0.04)


class TestPlanarLatencyModel:
    def test_self_latency_zero(self):
        model = PlanarLatencyModel(random.Random(1))
        assert model.sample(1, 1) == 0.0

    def test_positive_latency(self):
        model = PlanarLatencyModel(random.Random(1))
        assert all(model.sample(i, i + 1) > 0 for i in range(50))

    def test_coordinates_stable(self):
        model = PlanarLatencyModel(random.Random(1))
        assert model.distance(1, 2) == model.distance(1, 2)

    def test_distance_symmetric(self):
        model = PlanarLatencyModel(random.Random(1))
        assert model.distance(4, 9) == pytest.approx(model.distance(9, 4))

    def test_server_at_centre(self):
        model = PlanarLatencyModel(random.Random(1))
        # Server-to-anyone distance bounded by half the square diagonal.
        assert model.distance(SERVER_NODE_ID, 1) <= (0.5 ** 2 + 0.5 ** 2) ** 0.5 + 1e-9

    def test_latency_scales_with_distance(self):
        # Zero jitter isolates the propagation term.
        model = PlanarLatencyModel(random.Random(1), jitter_sigma=0.0)
        pairs = [(i, i + 100) for i in range(50)]
        ds = [model.distance(a, b) for a, b in pairs]
        ls = [model.sample(a, b) for a, b in pairs]
        far = max(range(50), key=lambda i: ds[i])
        near = min(range(50), key=lambda i: ds[i])
        assert ls[far] > ls[near]

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            PlanarLatencyModel(random.Random(1), base=-0.1)


class TestWanLatencyModel:
    def test_self_latency_zero(self):
        model = WanLatencyModel(random.Random(1))
        assert model.sample(2, 2) == 0.0

    def test_sites_assigned_stably(self):
        model = WanLatencyModel(random.Random(1))
        assert model.site_of(5) == model.site_of(5)

    def test_server_at_site_zero(self):
        model = WanLatencyModel(random.Random(1))
        assert model.site_of(SERVER_NODE_ID) == 0

    def test_wan_latencies_heavier_than_lan(self):
        rng = random.Random(1)
        wan = WanLatencyModel(rng, congestion_prob=0.0, jitter_sigma=0.0)
        samples = [wan.sample(i, i + 1000) for i in range(300)]
        # Cross-continent pairs dominate: mean one-way latency is high.
        assert sum(samples) / len(samples) > 0.05

    def test_congestion_inflates_tail(self):
        base = WanLatencyModel(random.Random(1), congestion_prob=0.0)
        congested = WanLatencyModel(
            random.Random(1), congestion_prob=0.5, congestion_factor=10.0
        )
        base_max = max(base.sample(1, 2) for _ in range(200))
        congested_max = max(congested.sample(1, 2) for _ in range(200))
        assert congested_max > base_max

    def test_invalid_congestion_prob_rejected(self):
        with pytest.raises(ValueError):
            WanLatencyModel(random.Random(1), congestion_prob=1.5)

    def test_invalid_congestion_factor_rejected(self):
        with pytest.raises(ValueError):
            WanLatencyModel(random.Random(1), congestion_factor=0.5)
