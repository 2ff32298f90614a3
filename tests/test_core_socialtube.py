"""Unit tests for the SocialTube protocol (Algorithm 1)."""

import pytest

from helpers import make_protocol
from repro.baselines.protocol import PeerState
from repro.core.socialtube import SocialTubeProtocol
from repro.net.message import ChunkSource


@pytest.fixture()
def proto(tiny_dataset):
    protocol, _server = make_protocol(SocialTubeProtocol, tiny_dataset)
    return protocol


def _any_video_of_channel(dataset, channel_id):
    return dataset.channels[channel_id].video_ids[0]


class TestLifecycle:
    def test_session_start_marks_online(self, proto):
        proto.on_session_start(1)
        assert proto.state(1).online
        assert proto.server.is_online(1)

    def test_online_flag_and_liveness_probe_are_one_set(self, proto):
        peer = PeerState(99, upload_capacity_bps=2e6)
        peer.online = True
        proto.register_peer(peer)
        assert proto.is_alive(99)
        peer.online = False
        assert not proto.is_alive(99)
        proto.on_session_start(99)
        assert peer.online and proto.is_alive(99)
        assert not proto.is_alive(1000)  # never registered

    def test_session_end_leaves_overlays(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.locate(1, video)
        proto.on_session_end(1)
        assert not proto.state(1).online
        assert proto.link_count(1) == 0

    def test_cache_persists_across_sessions(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.on_watch_started(1, video)
        proto.on_watch_finished(1, video)
        proto.on_session_end(1)
        proto.on_session_start(1)
        assert proto.state(1).has_video(video)


class TestLocate:
    def test_cache_hit(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.on_watch_started(1, video)
        result = proto.locate(1, video)
        assert result.from_cache

    def test_first_request_server_fallback(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        result = proto.locate(1, video)
        # Nobody else online: the server must serve.
        assert result.from_server

    def test_locate_joins_channel_overlay(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.locate(1, video)
        assert proto.structure.current_channel(1) == 0
        assert 1 in proto.server.channel_members(0)

    def test_finds_channel_peer_holder(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.on_session_start(2)
        # Node 2 watches the video (joins channel 0's overlay, caches it).
        proto.locate(2, video)
        proto.on_watch_started(2, video)
        # Node 1 requests the same video: found via inner links.
        result = proto.locate(1, video)
        assert result.from_peer
        assert result.provider_id == 2
        assert result.hops >= 1

    def test_provider_adopted_as_neighbor(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto.locate(2, video)
        proto.on_watch_started(2, video)
        result = proto.locate(1, video)
        assert result.from_peer
        assert proto.structure.inner.connected(1, 2)

    def test_offline_holder_not_found(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(2)
        proto.locate(2, video)
        proto.on_watch_started(2, video)
        proto.on_session_end(2)
        proto.on_session_start(1)
        result = proto.locate(1, video)
        assert result.from_server

    def test_holder_assist_for_empty_channel(self, proto, tiny_dataset):
        # Node 2 caches a video of channel A, then moves to channel B
        # (same category).  Node 1, alone in channel A's overlay, should
        # still reach node 2 via the server's category holder assist or
        # the inter-link flood.
        cat = tiny_dataset.category_of_channel(0)
        same_cat = [
            c.channel_id
            for c in tiny_dataset.iter_channels()
            if c.category_id == cat and c.channel_id != 0
        ]
        if not same_cat:
            pytest.skip("tiny dataset category has a single channel")
        video_a = _any_video_of_channel(tiny_dataset, 0)
        video_b = _any_video_of_channel(tiny_dataset, same_cat[0])
        proto.on_session_start(2)
        proto.locate(2, video_a)
        proto.on_watch_started(2, video_a)
        proto.locate(2, video_b)  # switch channels within the category
        proto.on_session_start(1)
        result = proto.locate(1, video_a)
        assert result.from_peer
        assert result.provider_id == 2


class TestPrefetch:
    def test_candidates_are_channel_populars(self, proto, tiny_dataset):
        channel = max(tiny_dataset.iter_channels(), key=lambda c: c.num_videos)
        video = channel.video_ids[0]
        proto.on_session_start(1)
        proto.locate(1, video)
        candidates = proto.select_prefetch(1, video, 3)
        ranked = proto.server.top_videos_of_channel(channel.channel_id, 10)
        assert all(c in ranked for c in candidates)
        assert video not in candidates

    def test_candidates_skip_cached(self, proto, tiny_dataset):
        channel = max(tiny_dataset.iter_channels(), key=lambda c: c.num_videos)
        video = channel.video_ids[0]
        proto.on_session_start(1)
        proto.locate(1, video)
        first = proto.select_prefetch(1, video, 2)
        for v in first:
            proto.state(1).cache_video(v)
        second = proto.select_prefetch(1, video, 2)
        assert not set(first) & set(second)

    def test_prefetch_disabled(self, tiny_dataset):
        protocol, _ = make_protocol(
            SocialTubeProtocol, tiny_dataset, enable_prefetch=False
        )
        protocol.on_session_start(1)
        video = _any_video_of_channel(tiny_dataset, 0)
        protocol.locate(1, video)
        assert protocol.select_prefetch(1, video, 3) == []

    def test_prefetch_source_prefers_neighbor_holder(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.on_session_start(2)
        proto.locate(2, video)
        proto.on_watch_started(2, video)
        proto.locate(1, video)  # links 1 to 2
        assert proto.prefetch_source(1, video) is ChunkSource.PREFETCH_PEER

    def test_prefetch_source_server_when_unavailable(self, proto, tiny_dataset):
        video = _any_video_of_channel(tiny_dataset, 0)
        proto.on_session_start(1)
        proto.locate(1, video)
        assert proto.prefetch_source(1, video) is ChunkSource.PREFETCH_SERVER


class TestLinkBudget:
    def test_link_count_bounded(self, proto, tiny_dataset):
        # Many nodes all watching in the same channel: every node's
        # total links stay within N_l + N_h.
        video = _any_video_of_channel(tiny_dataset, 0)
        for node in range(30):
            proto.on_session_start(node)
            proto.locate(node, video)
            proto.on_watch_started(node, video)
            proto.on_maintenance(node)
        for node in range(30):
            assert proto.link_count(node) <= 5 + 10
