"""Unit tests for the video cache and prefetch store."""

import pytest

from repro.core.cache import PrefetchStore, VideoCache
from repro.net.message import ChunkSource


class TestVideoCache:
    def test_unbounded_by_default(self):
        cache = VideoCache()
        for v in range(1000):
            cache.add(v)
        assert len(cache) == 1000

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            VideoCache(max_videos=0)

    def test_contains_and_iter(self):
        cache = VideoCache()
        cache.add(5)
        assert 5 in cache
        assert list(cache) == [5]

    def test_lru_eviction(self):
        cache = VideoCache(max_videos=2)
        cache.add(1)
        cache.add(2)
        evicted = cache.add(3)
        assert evicted == 1
        assert list(cache) == [2, 3]

    def test_re_add_refreshes_recency(self):
        cache = VideoCache(max_videos=2)
        cache.add(1)
        cache.add(2)
        cache.add(1)  # refresh
        evicted = cache.add(3)
        assert evicted == 2

    def test_touch(self):
        cache = VideoCache(max_videos=2)
        cache.add(1)
        cache.add(2)
        assert cache.touch(1) is True
        assert cache.add(3) == 2  # 1 was refreshed by touch
        assert cache.touch(99) is False

    def test_discard_and_clear(self):
        cache = VideoCache()
        cache.add(1)
        cache.discard(1)
        cache.discard(1)  # idempotent
        assert 1 not in cache
        cache.add(2)
        cache.clear()
        assert len(cache) == 0


class TestPrefetchStore:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PrefetchStore(capacity=0)

    def test_store_and_take(self):
        store = PrefetchStore(capacity=3)
        store.store(1, ChunkSource.PREFETCH_PEER, now=10.0)
        chunk = store.take(1)
        assert chunk is not None
        assert chunk.source is ChunkSource.PREFETCH_PEER
        assert chunk.fetched_at == 10.0
        assert 1 not in store

    def test_take_missing_returns_none(self):
        store = PrefetchStore(capacity=3)
        assert store.take(1) is None
        store.store(2, ChunkSource.PREFETCH_SERVER, 0.0)
        assert store.take(2) is not None
        assert store.take(2) is None

    def test_duplicate_store_ignored(self):
        store = PrefetchStore(capacity=3)
        store.store(1, ChunkSource.PREFETCH_PEER, 1.0)
        store.store(1, ChunkSource.PREFETCH_SERVER, 2.0)
        assert store.take(1).source is ChunkSource.PREFETCH_PEER

    def test_capacity_evicts_oldest(self):
        store = PrefetchStore(capacity=2)
        store.store(1, ChunkSource.PREFETCH_PEER, 1.0)
        store.store(2, ChunkSource.PREFETCH_PEER, 2.0)
        store.store(3, ChunkSource.PREFETCH_PEER, 3.0)
        assert 1 not in store
        assert 2 in store and 3 in store

    def test_video_ids_oldest_first(self):
        store = PrefetchStore(capacity=5)
        for v, t in ((3, 1.0), (1, 2.0), (2, 3.0)):
            store.store(v, ChunkSource.PREFETCH_PEER, t)
        assert store.video_ids() == [3, 1, 2]

    def test_discard(self):
        store = PrefetchStore(capacity=2)
        store.store(1, ChunkSource.PREFETCH_PEER, 1.0)
        store.discard(1)
        assert 1 not in store
        assert store.take(1) is None
