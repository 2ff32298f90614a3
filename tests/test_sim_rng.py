"""Unit tests for the deterministic RNG streams."""

import random

import pytest

from repro.sim.rng import RngStreams, derive_seed, sample_from_pool, shuffle_in_place


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_adjacent_names_uncorrelated(self):
        # SHA-based derivation: similar names give unrelated seeds.
        a = derive_seed(0, "latency")
        b = derive_seed(0, "latency2")
        assert bin(a ^ b).count("1") > 10

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123456789, "stream") < 2 ** 64


class TestRngStreams:
    def test_same_name_same_object(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_streams_reproducible_across_instances(self):
        a = RngStreams(5).stream("workload")
        b = RngStreams(5).stream("workload")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_decoupled(self):
        streams = RngStreams(5)
        a = streams.stream("a")
        b = streams.stream("b")
        seq_a = [a.random() for _ in range(5)]
        seq_b = [b.random() for _ in range(5)]
        assert seq_a != seq_b

    def test_extra_draws_do_not_perturb_other_stream(self):
        # The decoupling property that motivates the design.
        one = RngStreams(9)
        one.stream("noise").random()  # extra draw on an unrelated stream
        perturbed = [one.stream("main").random() for _ in range(5)]
        two = RngStreams(9)
        clean = [two.stream("main").random() for _ in range(5)]
        assert perturbed == clean

    def test_fork_is_deterministic(self):
        a = RngStreams(3).fork("node:1").stream("s")
        b = RngStreams(3).fork("node:1").stream("s")
        assert a.random() == b.random()

    def test_fork_differs_from_parent(self):
        parent = RngStreams(3)
        child = parent.fork("node:1")
        assert parent.master_seed != child.master_seed


class TestStdlibDrawContract:
    """The inlined draws copy ``Random._randbelow_with_getrandbits``."""

    def test_randbelow_is_the_getrandbits_loop(self):
        # If CPython ever picks another ``_randbelow``, the helpers in
        # repro.sim.rng no longer make the stdlib's draws: fail loudly.
        assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


class TestShuffleInPlace:
    """``shuffle_in_place`` makes exactly ``Random.shuffle``'s draws."""

    @pytest.mark.parametrize("n", range(121))
    def test_same_order_and_rng_state_as_stdlib(self, n):
        for seed in range(30):
            rng = random.Random(seed)
            reference = random.Random(seed)
            items = [f"m{i}" for i in range(n)]
            expected = list(items)
            shuffle_in_place(rng.getrandbits, items)
            reference.shuffle(expected)
            assert items == expected, (n, seed)
            assert rng.getstate() == reference.getstate(), (n, seed)


class TestSampleFromPool:
    """``sample_from_pool`` makes exactly ``Random.sample``'s draws."""

    #: Both ``setsize`` branches: pools up to 21 always take the swap-out
    #: branch; 80 to 400 cross the larger thresholds ``k > 5`` brings
    #: (85 for k = 6..21, 277 for k = 22..85).
    SIZES = [*range(1, 41), 80, 85, 86, 90, 200, 400]

    @pytest.mark.parametrize("n", SIZES)
    def test_same_picks_and_rng_state_as_stdlib(self, n):
        population = [f"m{i}" for i in range(n)]
        for k in range(min(n, 25) + 1):
            for seed in range(30):
                rng = random.Random(seed)
                reference = random.Random(seed)
                picks = sample_from_pool(rng.getrandbits, list(population), k)
                assert picks == reference.sample(population, k), (n, k, seed)
                assert rng.getstate() == reference.getstate(), (n, k, seed)
