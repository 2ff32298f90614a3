"""Unit tests for the heavy-tailed samplers."""

import math
import random

import pytest

from repro.trace.distributions import (
    DiscreteSampler,
    bounded_pareto,
    exponential_growth_day,
    lognormal,
    zipf_weights,
)


class TestZipfWeights:
    def test_first_weight_is_one(self):
        assert zipf_weights(5)[0] == 1.0

    def test_monotone_decreasing(self):
        weights = zipf_weights(20, 1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_exponent_zero_is_uniform(self):
        assert zipf_weights(4, 0.0) == [1.0, 1.0, 1.0, 1.0]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)

    def test_paper_top1_mass_for_25_videos(self):
        # Section IV-B: p_1 = 26.2% for a 25-video channel.
        weights = zipf_weights(25, 1.0)
        assert weights[0] / sum(weights) == pytest.approx(0.262, abs=0.001)


class TestDiscreteSampler:
    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSampler([])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSampler([1.0, -0.5])

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSampler([0.0, 0.0])

    def test_samples_in_range(self):
        sampler = DiscreteSampler([1, 2, 3])
        rng = random.Random(0)
        assert all(0 <= sampler.sample(rng) <= 2 for _ in range(200))

    def test_zero_weight_never_sampled(self):
        sampler = DiscreteSampler([0.0, 1.0])
        rng = random.Random(0)
        assert all(sampler.sample(rng) == 1 for _ in range(200))

    def test_frequencies_proportional_to_weights(self):
        sampler = DiscreteSampler([1.0, 3.0])
        rng = random.Random(0)
        draws = [sampler.sample(rng) for _ in range(20000)]
        frac_heavy = draws.count(1) / len(draws)
        assert 0.72 < frac_heavy < 0.78

    def test_len(self):
        assert len(DiscreteSampler([1, 2, 3])) == 3

    def test_zipf_weights_sampled_prefer_low_ranks(self):
        sampler = DiscreteSampler(zipf_weights(100, 1.0))
        rng = random.Random(0)
        draws = [sampler.sample(rng) for _ in range(5000)]
        assert draws.count(0) > draws.count(50)


class TestBoundedPareto:
    def test_within_bounds(self):
        rng = random.Random(0)
        for _ in range(500):
            x = bounded_pareto(rng, alpha=1.0, low=1.0, high=100.0)
            assert 1.0 <= x <= 100.0

    def test_invalid_parameters_rejected(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            bounded_pareto(rng, alpha=0.0, low=1.0, high=2.0)
        with pytest.raises(ValueError):
            bounded_pareto(rng, alpha=1.0, low=0.0, high=2.0)
        with pytest.raises(ValueError):
            bounded_pareto(rng, alpha=1.0, low=3.0, high=2.0)

    def test_heavy_tail(self):
        # A low alpha should produce samples spanning orders of magnitude.
        rng = random.Random(0)
        draws = [bounded_pareto(rng, 0.6, 1.0, 1e4) for _ in range(3000)]
        draws.sort()
        assert draws[-30] > 100 * draws[len(draws) // 2]

    def test_higher_alpha_lighter_tail(self):
        rng_a = random.Random(0)
        rng_b = random.Random(0)
        light = sorted(bounded_pareto(rng_a, 3.0, 1.0, 1e4) for _ in range(2000))
        heavy = sorted(bounded_pareto(rng_b, 0.5, 1.0, 1e4) for _ in range(2000))
        assert light[-1] < heavy[-1]


class TestLognormal:
    def test_positive(self):
        rng = random.Random(0)
        assert all(lognormal(rng, 0.0, 1.0) > 0 for _ in range(100))

    def test_sigma_zero_is_exact(self):
        rng = random.Random(0)
        assert lognormal(rng, math.log(5.0), 0.0) == pytest.approx(5.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            lognormal(random.Random(0), 0.0, -1.0)


class TestExponentialGrowthDay:
    def test_within_horizon(self):
        rng = random.Random(0)
        for _ in range(500):
            day = exponential_growth_day(rng, 970, 2.0)
            assert 0 <= day < 970

    def test_growth_skews_late(self):
        rng = random.Random(0)
        days = [exponential_growth_day(rng, 1000, 3.0) for _ in range(5000)]
        late = sum(1 for d in days if d >= 500)
        assert late > 0.65 * len(days)

    def test_zero_rate_is_uniformish(self):
        rng = random.Random(0)
        days = [exponential_growth_day(rng, 1000, 0.0) for _ in range(5000)]
        late = sum(1 for d in days if d >= 500)
        assert 0.45 * len(days) < late < 0.55 * len(days)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            exponential_growth_day(random.Random(0), 0, 1.0)
