"""Unit tests for message/result records."""

from repro.net.message import ChunkSource, LookupResult


class TestChunkSource:
    def test_peer_sources(self):
        assert ChunkSource.PEER.is_peer
        assert ChunkSource.PREFETCH_PEER.is_peer

    def test_non_peer_sources(self):
        assert not ChunkSource.SERVER.is_peer
        assert not ChunkSource.PREFETCH_SERVER.is_peer
        assert not ChunkSource.CACHE.is_peer


class TestLookupResult:
    def test_peer_result(self):
        result = LookupResult(video_id=1, provider_id=42, hops=2)
        assert result.from_peer
        assert not result.from_server
        assert not result.from_cache

    def test_server_result(self):
        result = LookupResult(video_id=1, from_server=True)
        assert not result.from_peer

    def test_cache_result(self):
        result = LookupResult(video_id=1, from_cache=True)
        assert not result.from_peer

    def test_server_fallback_keeps_the_search_cost(self):
        found = LookupResult(
            video_id=7, provider_id=3, hops=2, peers_contacted=5, query_path=[1, 3]
        )
        fallback = found.server_fallback()
        assert fallback.from_server and not fallback.from_peer
        assert fallback.provider_id is None and fallback.query_path == []
        assert (fallback.video_id, fallback.hops, fallback.peers_contacted) == (7, 2, 5)
