"""Unit tests for the NetTube baseline."""

import pytest

from helpers import make_protocol
from repro.baselines.nettube import NetTubeProtocol
from repro.net.message import ChunkSource


@pytest.fixture()
def proto(tiny_dataset):
    protocol, _server = make_protocol(NetTubeProtocol, tiny_dataset)
    return protocol


VIDEO = 0  # any video id works; channel 0's first video is id 0 by construction


class TestOverlayMembership:
    def test_watching_joins_video_overlay(self, proto):
        proto.on_session_start(1)
        proto.on_watch_started(1, VIDEO)
        assert 1 in proto.server.video_overlay_members(VIDEO)

    def test_member_stays_after_watching(self, proto):
        proto.on_session_start(1)
        proto.on_watch_started(1, VIDEO)
        proto.on_watch_finished(1, VIDEO)
        assert 1 in proto.server.video_overlay_members(VIDEO)

    def test_session_end_leaves_all_overlays(self, proto):
        proto.on_session_start(1)
        proto.on_watch_started(1, 0)
        proto.on_watch_started(1, 1)
        proto.on_session_end(1)
        assert 1 not in proto.server.video_overlay_members(0)
        assert 1 not in proto.server.video_overlay_members(1)
        assert proto.link_count(1) == 0

    def test_links_accumulate_per_video(self, proto):
        # Two nodes watch the same growing set of videos: each new video
        # adds an overlay and links within it.
        proto.on_session_start(1)
        proto.on_session_start(2)
        counts = []
        for video in range(4):
            proto.on_watch_started(1, video)
            proto.on_watch_started(2, video)
            counts.append(proto.link_count(2))
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_redundant_links_counted_per_overlay(self, proto):
        # The same peer in two overlays costs two links -- the
        # redundancy the paper criticises.
        proto.on_session_start(1)
        proto.on_session_start(2)
        for video in (0, 1):
            proto.on_watch_started(1, video)
            proto.on_watch_started(2, video)
        assert proto.link_count(1) == 2


class TestLocate:
    def test_cache_hit(self, proto):
        proto.on_session_start(1)
        proto.on_watch_started(1, VIDEO)
        assert proto.locate(1, VIDEO).from_cache

    def test_first_request_redirected_by_tracker(self, proto):
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto.on_watch_started(2, VIDEO)
        # Node 1 has no memberships yet: the server redirects it to the
        # video's overlay, where node 2 provides.
        result = proto.locate(1, VIDEO)
        assert result.from_peer
        assert result.provider_id == 2

    def test_first_request_server_serves_when_overlay_empty(self, proto):
        proto.on_session_start(1)
        assert proto.locate(1, VIDEO).from_server

    def test_subsequent_miss_resorts_to_server(self, proto, tiny_dataset):
        # After joining an overlay, a miss is served by the server, NOT
        # redirected ("the user resorts to the server").
        proto.on_session_start(1)
        proto.on_watch_started(1, 0)
        # Another node holds video 50 but is in an unrelated overlay.
        proto.on_session_start(2)
        proto.on_watch_started(2, 50)
        result = proto.locate(1, 50)
        assert result.from_server

    def test_two_hop_search_finds_neighbor_cache(self, proto):
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto.on_watch_started(2, 0)
        proto.on_watch_started(2, 7)   # node 2 caches video 7
        proto.on_watch_started(1, 0)   # node 1 joins overlay 0, links to 2
        result = proto.locate(1, 7)
        assert result.from_peer
        assert result.provider_id == 2


class TestPrefetch:
    def test_prefetch_from_neighbor_caches(self, proto):
        proto.on_session_start(1)
        proto.on_session_start(2)
        for video in (0, 5, 9):
            proto.on_watch_started(2, video)
        proto.on_watch_started(1, 0)
        picks = proto.select_prefetch(1, 0)
        assert picks
        assert set(picks) <= {5, 9}  # only neighbors' cached videos

    def test_prefetch_excludes_own_cache(self, proto):
        proto.on_session_start(1)
        proto.on_session_start(2)
        for video in (0, 5):
            proto.on_watch_started(2, video)
        proto.on_watch_started(1, 0)
        proto.state(1).cache_video(5)
        assert 5 not in proto.select_prefetch(1, 0)

    def test_prefetch_source(self, proto):
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto.on_watch_started(2, 0)
        proto.on_watch_started(2, 5)
        proto.on_watch_started(1, 0)
        assert proto.prefetch_source(1, 5) is ChunkSource.PREFETCH_PEER
        assert proto.prefetch_source(1, 123) is ChunkSource.PREFETCH_SERVER

    def test_prefetch_disabled(self, tiny_dataset):
        protocol, _ = make_protocol(
            NetTubeProtocol, tiny_dataset, prefetch_window=0
        )
        protocol.on_session_start(1)
        protocol.on_session_start(2)
        for video in (0, 5, 9):
            protocol.on_watch_started(2, video)
        protocol.on_watch_started(1, 0)
        state = protocol.rng.getstate()
        assert protocol.select_prefetch(1, 0) == []
        assert protocol.rng.getstate() == state  # returned before any draw

    def test_prefetch_window_bounds_picks(self, tiny_dataset):
        protocol, _ = make_protocol(NetTubeProtocol, tiny_dataset, prefetch_window=1)
        protocol.on_session_start(1)
        protocol.on_session_start(2)
        for video in (0, 5, 9):
            protocol.on_watch_started(2, video)
        protocol.on_watch_started(1, 0)
        assert len(protocol.select_prefetch(1, 0)) == 1

    def test_negative_prefetch_window_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="prefetch_window"):
            make_protocol(NetTubeProtocol, tiny_dataset, prefetch_window=-1)


class TestMaintenance:
    def test_dead_links_pruned(self, proto):
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto.on_watch_started(2, 0)
        proto.on_watch_started(1, 0)
        assert proto.link_count(1) >= 1
        # Node 2 dies abruptly (no graceful leave).
        proto.state(2).online = False
        proto.on_maintenance(1)
        assert proto._overlay(0).degree(1) == 0

    def test_invalid_links_per_overlay_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            make_protocol(NetTubeProtocol, tiny_dataset, links_per_overlay=0)
