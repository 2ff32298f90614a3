"""Unit tests for the typed protocol registry and ExperimentSpec."""

import dataclasses
import pickle

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.registry import (
    SocialTubeParams,
    get_protocol,
    protocol_names,
    register_protocol,
    resolve_params,
    unregister_protocol,
)
from repro.experiments.spec import ExperimentSpec, seed_sweep
from repro.experiments.trace_cache import TraceCache
from repro.trace.synthesizer import TraceConfig

MICRO = SimulationConfig(
    num_nodes=40,
    trace=TraceConfig(num_users=40, num_channels=10, num_videos=200,
                      num_categories=4, seed=10),
    sessions_per_user=2,
    videos_per_session=4,
    mean_off_time_s=60.0,
    seed=10,
)


@dataclasses.dataclass(frozen=True)
class _FakeParams:
    knob: int = 3


class _FakeProtocol:
    def __init__(self, dataset, server, rng, knob=3):
        self.knob = knob


class TestRegistry:
    def test_builtin_protocols_registered(self):
        assert protocol_names() == ["gridcast", "nettube", "pavod", "socialtube"]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            get_protocol("bittorrent")

    def test_register_round_trip(self):
        entry = register_protocol("fake", _FakeProtocol, _FakeParams)
        try:
            assert get_protocol("fake") is entry
            assert "fake" in protocol_names()
            assert resolve_params("fake") == _FakeParams()
            assert resolve_params("fake", {"knob": 9}) == _FakeParams(knob=9)
        finally:
            unregister_protocol("fake")
        with pytest.raises(ValueError):
            get_protocol("fake")

    def test_defaults_are_the_paper_settings(self):
        # Section V: N_l = 5, N_h = 10, TTL 2, M = 3.
        params = resolve_params("socialtube")
        assert params == SocialTubeParams(
            inner_link_limit=5, inter_link_limit=10, ttl=2, prefetch_window=3
        )
        nettube = resolve_params("nettube")
        assert (nettube.links_per_overlay, nettube.search_hops) == (5, 2)
        assert nettube.prefetch_window == 3

    def test_bad_override_key_rejected(self):
        with pytest.raises(TypeError, match="valid fields"):
            resolve_params("socialtube", {"no_such_knob": 1})

    def test_params_type_must_be_dataclass(self):
        with pytest.raises(TypeError):
            register_protocol("bad", _FakeProtocol, dict)


class TestExperimentSpec:
    def test_unknown_protocol_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="bittorrent", config=MICRO)

    def test_wrong_params_type_rejected(self):
        with pytest.raises(TypeError):
            ExperimentSpec(
                protocol="socialtube", config=MICRO, params=_FakeParams()
            )

    def test_content_hash_is_stable_and_seed_sensitive(self):
        a = ExperimentSpec(protocol="socialtube", config=MICRO)
        b = ExperimentSpec(protocol="socialtube", config=MICRO)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != a.with_seed(11).content_hash()

    def test_explicit_defaults_share_cache_slot(self):
        implicit = ExperimentSpec(protocol="socialtube", config=MICRO)
        explicit = ExperimentSpec(
            protocol="socialtube",
            config=MICRO,
            params=resolve_params("socialtube"),
        )
        assert implicit.content_hash() == explicit.content_hash()

    def test_hash_and_equality(self):
        a = ExperimentSpec(protocol="socialtube", config=MICRO)
        b = ExperimentSpec(protocol="socialtube", config=MICRO)
        assert a == b
        assert hash(a) == hash(b)
        assert hash(a) != hash(a.with_seed(11))

    def test_pickle_round_trip_preserves_hash(self):
        spec = ExperimentSpec(
            protocol="nettube",
            config=MICRO,
            params=resolve_params("nettube", {"search_hops": 3}),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()
        assert clone.trace_hash() == spec.trace_hash()

    def test_with_seed_keeps_trace_recipe(self):
        spec = ExperimentSpec(protocol="socialtube", config=MICRO)
        reseeded = spec.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.config.trace == spec.config.trace
        assert reseeded.trace_hash() == spec.trace_hash()

    def test_with_params_overrides_resolved_defaults(self):
        spec = ExperimentSpec(protocol="socialtube", config=MICRO)
        tweaked = spec.with_params(prefetch_window=0)
        assert tweaked.resolved_params().prefetch_window == 0
        assert tweaked.resolved_params().ttl == SocialTubeParams().ttl
        assert tweaked.content_hash() != spec.content_hash()

    def test_seed_sweep_order(self):
        spec = ExperimentSpec(protocol="pavod", config=MICRO)
        sweep = seed_sweep(spec, [3, 1, 2])
        assert [s.seed for s in sweep] == [3, 1, 2]

    def test_label(self):
        spec = ExperimentSpec(protocol="socialtube", config=MICRO)
        assert spec.label() == "socialtube/peersim/seed=10"


class TestTraceCache:
    def test_identical_recipes_synthesize_once(self):
        cache = TraceCache()
        first = cache.dataset_for(MICRO.trace)
        second = cache.dataset_for(dataclasses.replace(MICRO.trace))
        assert first is second
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_recipes_get_distinct_corpora(self):
        cache = TraceCache()
        a = cache.dataset_for(MICRO.trace)
        b = cache.dataset_for(dataclasses.replace(MICRO.trace, seed=11))
        assert a is not b
        assert len(cache) == 2

    def test_serialized_blob_round_trips(self):
        cache = TraceCache()
        blob = cache.serialized(MICRO.trace)
        dataset = pickle.loads(blob)
        assert len(dataset.users) == MICRO.trace.num_users
