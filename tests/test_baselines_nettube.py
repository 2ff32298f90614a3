"""Unit tests for the NetTube baseline."""

import random

import pytest

from helpers import make_protocol
from repro.baselines.nettube import NetTubeProtocol
from repro.net.message import ChunkSource
from repro.net.server import CentralServer


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


def uncached_union(proto, node_id):
    """A node's union rebuilt from scratch: every overlay, then link order."""
    seen = {}
    for video_id in proto._memberships.get(node_id, ()):
        for neighbor in proto._overlay(video_id).neighbors(node_id):
            if proto.is_alive(neighbor) and proto.can_reach(node_id, neighbor):
                seen[neighbor] = None
    return list(seen)


class TestUnionCache:
    """The cached union equals a fresh rebuild after every protocol step."""

    PEERS = 24
    #: Few overlays with tight link budgets, so links overlap across
    #: overlays and joins evict.
    VIDEOS = (0, 1, 2, 3, 8, 9, 16, 17, 40, 41)
    #: Step kinds, weighted so that most peers stay online.
    STEPS = (
        ("start",) * 3 + ("end", "crash", "repair", "maintain", "read")
        + ("watch",) * 5 + ("connect", "disconnect") + ("guard",)
    )

    def _random_step(self, proto, rng, crashed):
        online = sorted(proto._online)
        offline = [n for n in range(self.PEERS) if n not in proto._online]
        kind = rng.choice(self.STEPS)
        if kind == "start" and offline:
            user = rng.choice(offline)
            proto.on_session_start(user)
            crashed.discard(user)
        elif kind == "end" and online:
            proto.on_session_end(rng.choice(online))
        elif kind == "watch" and online:
            proto.on_watch_started(rng.choice(online), rng.choice(self.VIDEOS))
        elif kind == "maintain" and online:
            proto.on_maintenance(rng.choice(online))
        elif kind == "crash" and online:
            user = rng.choice(online)
            proto.on_crash(user)
            crashed.add(user)
        elif kind == "repair" and crashed:
            user = rng.choice(sorted(crashed))
            crashed.discard(user)
            proto.repair_after_crash(user)
        elif kind in ("connect", "disconnect"):
            # Link edits outside the protocol's own choices, so every
            # eviction case of an evicting connect is reached.
            video_id = rng.choice(self.VIDEOS)
            a, b = rng.sample(range(self.PEERS), 2)
            table = proto._overlay(video_id)
            if kind == "connect":
                proto._connect(table, a, b, evict=rng.random() < 0.7)
            else:
                proto._disconnect(table, a, b)
        elif kind == "guard":
            if proto.partition_guard is None:
                proto.partition_guard = lambda a, b: a % 2 == b % 2
            else:
                proto.partition_guard = None
        elif kind == "read" and online:
            user = rng.choice(online)
            proto.locate(user, rng.choice(self.VIDEOS))
            proto.select_prefetch(user, rng.choice(self.VIDEOS))
        return kind

    @pytest.mark.parametrize("seed", range(12))
    def test_cached_union_matches_rebuild(self, tiny_dataset, seed):
        proto, _ = make_protocol(
            NetTubeProtocol, tiny_dataset, num_peers=self.PEERS, seed=seed,
            links_per_overlay=2,
        )
        rng = random.Random(seed)
        crashed = set()
        for user in range(self.PEERS):
            proto.on_session_start(user)
            proto.on_watch_started(user, rng.choice(self.VIDEOS))
        for step in range(400):
            kind = self._random_step(proto, rng, crashed)
            for node in range(self.PEERS):
                assert proto._union_neighbors(node) == uncached_union(proto, node), (
                    f"seed {seed}, step {step} ({kind}), node {node}"
                )


class TestDrawParity:
    """NetTube's draws equal the stdlib ``shuffle``/``sample`` calls."""

    @pytest.mark.parametrize("members", [8, 30, 200])
    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_video_overlay_sample_matches_stdlib(self, tiny_dataset, members, count):
        server = CentralServer(tiny_dataset, capacity_bps=50e6, rng=random.Random(3))
        for member in range(members):
            server.register_video_overlay_member(7, member * 5)
        reference = random.Random(3)
        for exclude in (None, 0, 10, 999):
            pool = [m for m in server.video_overlay_members(7) if m != exclude]
            expected = pool if len(pool) <= count else reference.sample(pool, count)
            assert server.random_video_overlay_members(7, count, exclude=exclude) == expected
            assert server._rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("window", [1, 3, 50])
    def test_prefetch_shuffle_matches_stdlib(self, tiny_dataset, window):
        proto, _ = make_protocol(NetTubeProtocol, tiny_dataset, prefetch_window=window)
        for user in (1, 2, 3):
            proto.on_session_start(user)
        for video in range(12):
            proto.on_watch_started(2, video)
            proto.on_watch_started(3, video + 6)
        proto.on_watch_started(1, 0)
        proto.on_watch_started(1, 6)
        proto.state(1).store_prefetch(11, ChunkSource.PREFETCH_PEER, 0.0)
        reference = random.Random()
        reference.setstate(proto.rng.getstate())
        for video in (0, 6, 11):
            pool = set()
            for neighbor in uncached_union(proto, 1):
                pool.update(proto.state(neighbor).cache)
            pool -= set(proto.state(1).cache)
            pool -= set(proto.state(1).prefetched.video_ids())
            pool.discard(video)
            expected = sorted(pool)
            reference.shuffle(expected)
            assert proto.select_prefetch(1, video) == expected[:window]
            assert proto.rng.getstate() == reference.getstate()
