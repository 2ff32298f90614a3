"""Property-based tests for the samplers."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import prefetch_accuracy
from repro.trace.distributions import (
    DiscreteSampler,
    bounded_pareto,
    exponential_growth_day,
)


@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
@settings(max_examples=100)
def test_discrete_sampler_never_picks_zero_weight(weights, seed):
    if sum(weights) <= 0:
        return
    sampler = DiscreteSampler(weights)
    rng = random.Random(seed)
    for _ in range(50):
        index = sampler.sample(rng)
        assert 0 <= index < len(weights)
        assert weights[index] > 0


@given(
    alpha=st.floats(min_value=0.1, max_value=4.0),
    low=st.floats(min_value=0.1, max_value=10.0),
    span=st.floats(min_value=1.1, max_value=1000.0),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
@settings(max_examples=100)
def test_bounded_pareto_stays_in_bounds(alpha, low, span, seed):
    high = low * span
    rng = random.Random(seed)
    for _ in range(30):
        x = bounded_pareto(rng, alpha, low, high)
        assert low <= x <= high


@given(
    horizon=st.integers(min_value=1, max_value=2000),
    rate=st.floats(min_value=0.0, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
@settings(max_examples=100)
def test_growth_day_in_horizon(horizon, rate, seed):
    rng = random.Random(seed)
    for _ in range(20):
        day = exponential_growth_day(rng, horizon, rate)
        assert 0 <= day < horizon


@given(
    n=st.integers(min_value=1, max_value=100),
    k1=st.integers(min_value=0, max_value=100),
    k2=st.integers(min_value=0, max_value=100),
)
def test_prefetch_accuracy_monotone_and_bounded(n, k1, k2):
    a1 = prefetch_accuracy(n, k1)
    a2 = prefetch_accuracy(n, k2)
    assert 0.0 <= a1 <= 1.0
    if k1 <= k2:
        assert a1 <= a2 + 1e-12
