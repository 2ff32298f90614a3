"""Unit tests for the SocialTube protocol (Algorithm 1)."""

import random

import pytest

from helpers import make_protocol, table_state
from repro.baselines.gridcast import GridCastProtocol
from repro.baselines.nettube import NetTubeProtocol
from repro.baselines.pavod import PaVodProtocol
from repro.baselines.protocol import PeerState
from repro.core.socialtube import SocialTubeProtocol
from repro.net.message import ChunkSource, LookupResult


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
        candidates = proto.select_prefetch(1, video)
        ranked = proto.server.top_videos_of_channel(channel.channel_id, 10)
        assert all(c in ranked for c in candidates)
        assert video not in candidates

    def test_candidates_skip_cached(self, tiny_dataset):
        proto, _ = make_protocol(SocialTubeProtocol, tiny_dataset, prefetch_window=2)
        channel = max(tiny_dataset.iter_channels(), key=lambda c: c.num_videos)
        video = channel.video_ids[0]
        proto.on_session_start(1)
        proto.locate(1, video)
        first = proto.select_prefetch(1, video)
        assert len(first) <= 2
        for v in first:
            proto.state(1).cache_video(v)
        second = proto.select_prefetch(1, video)
        assert not set(first) & set(second)

    def test_prefetch_disabled(self, tiny_dataset):
        protocol, _ = make_protocol(
            SocialTubeProtocol, tiny_dataset, prefetch_window=0
        )
        protocol.on_session_start(1)
        video = _any_video_of_channel(tiny_dataset, 0)
        protocol.locate(1, video)
        assert protocol.select_prefetch(1, video) == []

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


def _old_holder(protocol, user_id, video_id):
    """The holder predicate before the flat read: liveness probe, then cache."""
    return protocol.is_alive(user_id) and protocol.state(user_id).has_video(video_id)


def _assert_holder_matches(protocol, videos):
    for video in videos:
        is_holder = protocol.online_holder(video)
        for user_id in protocol.peers:
            assert is_holder(user_id) == _old_holder(protocol, user_id, video), (
                user_id,
                video,
            )


class TestFlatHolderPredicate:
    """``online_holder`` equals ``online and has_video`` on every peer state."""

    def _videos(self, dataset):
        channels = [c for c in dataset.iter_channels() if c.num_videos >= 2][:4]
        return [video for channel in channels for video in channel.video_ids[:2]]

    @pytest.mark.parametrize("protocol_cls", [SocialTubeProtocol, NetTubeProtocol, GridCastProtocol])
    def test_offline_peers(self, tiny_dataset, protocol_cls):
        protocol, _ = make_protocol(protocol_cls, tiny_dataset)
        videos = self._videos(tiny_dataset)
        for user_id in range(12):
            protocol.on_session_start(user_id)
            protocol.on_watch_started(user_id, videos[user_id % len(videos)])
        for user_id in range(0, 12, 3):
            protocol.on_session_end(user_id)
        protocol.on_crash(4)
        assert any(not protocol.is_alive(u) and protocol.state(u).cache for u in range(12))
        _assert_holder_matches(protocol, videos)

    def test_relocate_masked_copy(self, tiny_dataset):
        protocol, _ = make_protocol(SocialTubeProtocol, tiny_dataset)
        video = _any_video_of_channel(tiny_dataset, 0)
        for user_id in (1, 2):
            protocol.on_session_start(user_id)
            protocol.on_watch_started(user_id, video)
        seen = []

        def checking_locate(user_id, video_id):
            assert not protocol.online_holder(video_id)(user_id)
            _assert_holder_matches(protocol, [video_id])
            seen.append(user_id)
            return LookupResult(video_id=video_id, from_server=True)

        protocol.locate = checking_locate
        protocol.relocate(1, video)
        assert seen == [1]
        assert protocol.online_holder(video)(1)
        _assert_holder_matches(protocol, [video])

    def test_pavod_keeps_no_cache(self, tiny_dataset):
        protocol, _ = make_protocol(PaVodProtocol, tiny_dataset)
        videos = self._videos(tiny_dataset)
        for user_id in range(6):
            protocol.on_session_start(user_id)
            protocol.on_watch_started(user_id, videos[user_id])
        assert not any(protocol.online_holder(v)(u) for v in videos for u in range(6))
        _assert_holder_matches(protocol, videos)

    def test_lru_bounded_cache_after_evictions(self, tiny_dataset):
        protocol, _ = make_protocol(SocialTubeProtocol, tiny_dataset, num_peers=0)
        for user_id in range(3):
            protocol.register_peer(
                PeerState(user_id, upload_capacity_bps=2e6, cache_capacity=2)
            )
            protocol.on_session_start(user_id)
        videos = self._videos(tiny_dataset)
        for video in videos:
            protocol.on_watch_started(0, video)
        protocol.on_watch_started(1, videos[0])
        assert list(protocol.state(0).cache) == videos[-2:]
        assert [v for v in videos if protocol.online_holder(v)(0)] == videos[-2:]
        _assert_holder_matches(protocol, videos)


class CopyAndDropSocialTube(SocialTubeProtocol):
    """The neighbor filter before the flat read: copy the links, then
    drop each dead neighbor as the loop meets it."""

    def _alive_neighbors(self, node_id, links):
        guard = self.partition_guard
        alive = []
        for neighbor in list(links):
            if neighbor not in self._online:
                self.structure.drop_dead_neighbor(node_id, neighbor)
            elif guard is None or guard(node_id, neighbor):
                alive.append(neighbor)
        return alive


class TestAliveNeighborFilter:
    """Reading the link dict in place leaves the link tables exactly as
    the copy-and-drop loop does, keys and link order included."""

    def _twins(self, dataset):
        return [make_protocol(cls, dataset)[0] for cls in (SocialTubeProtocol, CopyAndDropSocialTube)]

    def _assert_same(self, twins, context):
        flat, reference = twins
        for level in ("inner", "inter"):
            assert table_state(getattr(flat.structure, level)) == table_state(
                getattr(reference.structure, level)
            ), (level, context)
        assert flat.rng.getstate() == reference.rng.getstate(), context
        assert flat.server._rng.getstate() == reference.server._rng.getstate(), context

    def test_dangling_links_after_crash(self, tiny_dataset):
        twins = self._twins(tiny_dataset)
        video = _any_video_of_channel(tiny_dataset, 0)
        for twin in twins:
            for user_id in range(8):
                twin.on_session_start(user_id)
                twin.locate(user_id, video)
            for user_id in (2, 5):
                twin.on_crash(user_id)
        flat, reference = twins
        dangling = [u for u in range(8) if 2 in flat.structure.inner.links_of(u)]
        assert dangling
        for user_id in range(8):
            if flat.is_alive(user_id):
                assert flat._alive_inner_neighbors(user_id) == reference._alive_inner_neighbors(
                    user_id
                )
                self._assert_same(twins, user_id)
        assert not any(2 in flat.structure.inner.links_of(u) for u in range(8))

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_random_sequences_match_copy_and_drop(self, tiny_dataset, partitioned):
        category = tiny_dataset.category_of_channel(0)
        videos = [
            video
            for channel in tiny_dataset.channels_of_category(category)
            for video in tiny_dataset.channels[channel].video_ids[:3]
        ]
        for seed in range(15):
            rng = random.Random(seed)
            twins = self._twins(tiny_dataset)
            if partitioned:
                for twin in twins:
                    twin.partition_guard = lambda a, b: a % 3 != 0 or b % 3 == 0
            online = set()
            for step in range(200):
                user_id = rng.randrange(30)
                roll = rng.random()
                video = rng.choice(videos)
                crashed = rng.randrange(30)
                outcomes = []
                for twin in twins:
                    if user_id not in online:
                        outcome = twin.on_session_start(user_id)
                    elif roll < 0.6:
                        outcome = twin.locate(user_id, video)
                        twin.on_watch_started(user_id, video)
                    elif roll < 0.75:
                        outcome = twin.on_crash(user_id)
                    elif roll < 0.85:
                        outcome = twin.on_session_end(user_id)
                    elif roll < 0.92:
                        outcome = twin.prefetch_source(user_id, video)
                    else:
                        outcome = twin.repair_after_crash(crashed)
                    outcomes.append(outcome)
                assert outcomes[0] == outcomes[1], (seed, step)
                if user_id not in online:
                    online.add(user_id)
                elif 0.6 <= roll < 0.85:
                    online.discard(user_id)
                self._assert_same(twins, (seed, step))
