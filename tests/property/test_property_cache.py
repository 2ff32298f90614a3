"""Property-based tests for cache / prefetch-store invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import PrefetchStore, VideoCache
from repro.net.message import ChunkSource

VIDEO_IDS = st.integers(min_value=0, max_value=30)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    videos=st.lists(VIDEO_IDS, max_size=100),
)
def test_cache_never_exceeds_capacity(capacity, videos):
    cache = VideoCache(max_videos=capacity)
    for video in videos:
        cache.add(video)
        assert len(cache) <= capacity


@given(videos=st.lists(VIDEO_IDS, max_size=100))
def test_unbounded_cache_retains_everything(videos):
    cache = VideoCache()
    for video in videos:
        cache.add(video)
    assert set(cache) == set(videos)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    videos=st.lists(VIDEO_IDS, min_size=1, max_size=100),
)
def test_most_recent_video_always_cached(capacity, videos):
    cache = VideoCache(max_videos=capacity)
    for video in videos:
        cache.add(video)
    assert videos[-1] in cache


@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(st.tuples(st.sampled_from(["store", "take"]), VIDEO_IDS),
                 max_size=100),
)
@settings(max_examples=100)
def test_prefetch_store_bounded_and_consistent(capacity, ops):
    store = PrefetchStore(capacity=capacity)
    model = {}
    for op, video in ops:
        if op == "store":
            if video not in model:
                if len(model) >= capacity:
                    # Oldest-first eviction in the model too.
                    oldest = next(iter(model))
                    del model[oldest]
                model[video] = True
            store.store(video, ChunkSource.PREFETCH_PEER, 0.0)
        else:
            chunk = store.take(video)
            assert (chunk is not None) == (video in model)
            model.pop(video, None)
        assert len(store) <= capacity
    assert set(store.video_ids()) == set(model)

