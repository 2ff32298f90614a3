"""Unit tests for the central server (tracker / oracle / fallback source)."""

import random
from collections import Counter

import pytest

from repro.net.server import CentralServer


class TestPresence:
    def test_online_offline_cycle(self, server):
        server.node_online(1)
        assert server.is_online(1)
        assert server.online_count == 1
        server.node_offline(1)
        assert not server.is_online(1)
        assert server.online_count == 0

    def test_offline_purges_all_tracker_maps(self, server):
        server.node_online(1)
        server.register_channel_member(0, 1)
        server.register_video_overlay_member(5, 1)
        server.watch_started(5, 1)
        server.node_offline(1)
        assert 1 not in server.channel_members(0)
        assert 1 not in server.video_overlay_members(5)
        assert server.current_watchers(5) == []


class TestChannelTracker:
    def test_register_and_pick(self, server):
        server.register_channel_member(0, 1)
        server.register_channel_member(0, 2)
        pick = server.random_channel_member(0)
        assert pick in (1, 2)

    def test_exclude_respected(self, server):
        server.register_channel_member(0, 1)
        assert server.random_channel_member(0, exclude=1) is None

    def test_empty_channel_returns_none(self, server):
        assert server.random_channel_member(3) is None

    def test_unregister(self, server):
        server.register_channel_member(0, 1)
        server.unregister_channel_member(0, 1)
        assert server.random_channel_member(0) is None

    def test_subscription_reports_counted(self, server):
        before = server.subscription_reports
        server.register_channel_member(0, 1)
        assert server.subscription_reports == before + 1

    def test_category_picks_span_channels(self, server, tiny_dataset):
        category = next(
            c for c in tiny_dataset.categories.values() if len(c.channel_ids) >= 2
        )
        ch_a, ch_b = category.channel_ids[:2]
        server.register_channel_member(ch_a, 10)
        server.register_channel_member(ch_b, 20)
        picks = server.random_members_per_channel_in_category(category.category_id)
        assert set(picks) == {10, 20}

    def test_category_picks_round_robin_past_single_channel(self, server, tiny_dataset):
        # One occupied channel with several members: the round-robin
        # draw still fills the requested limit.
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        for member in (1, 2, 3, 4):
            server.register_channel_member(channel, member)
        picks = server.random_members_per_channel_in_category(
            category.category_id, limit=3
        )
        assert len(picks) == 3
        assert len(set(picks)) == 3

    def test_category_picks_respect_exclude(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        server.register_channel_member(channel, 1)
        picks = server.random_members_per_channel_in_category(
            category.category_id, exclude=1
        )
        assert 1 not in picks


def reference_category_picks(server, category_id, rng, exclude=None, limit=None):
    """The eager category bootstrap the lazy one replaced: shuffle every
    channel of the category and every member pool, then round-robin."""
    channels = list(server.catalog.channels_of_category(category_id))
    rng.shuffle(channels)
    pools = []
    for channel_id in channels:
        members = [m for m in server.channel_members(channel_id) if m != exclude]
        if members:
            rng.shuffle(members)
            pools.append(members)
    picks = []
    round_index = 0
    while pools:
        pools = [pool for pool in pools if round_index < len(pool)]
        for pool in pools:
            picks.append(pool[round_index])
            if limit is not None and len(picks) >= limit:
                return picks
        round_index += 1
    return picks


def position_frequencies(draw, trials):
    """Per-position pick frequencies of ``trials`` calls of ``draw()``."""
    counts = Counter()
    for _ in range(trials):
        for position, member in enumerate(draw()):
            counts[position, member] += 1
    return {key: count / trials for key, count in counts.items()}


class TestCategoryBootstrapDistribution:
    #: channel -> members in category 1 of the tiny dataset; node 9 is the
    #: joining node, alone in channel 11 and sharing channel 9.
    LAYOUT = {3: (1, 2, 3, 4, 5), 4: (6, 7), 6: (8,), 9: (9, 10), 11: (9,)}
    CATEGORY = 1

    @pytest.fixture()
    def populated(self, server, tiny_dataset):
        assert set(self.LAYOUT) <= set(tiny_dataset.channels_of_category(self.CATEGORY))
        for channel, members in self.LAYOUT.items():
            for member in members:
                server.register_channel_member(channel, member)
        return server

    @pytest.mark.parametrize("limit", [2, 5, 7, None])
    def test_position_frequencies_match_eager_reference(self, populated, limit):
        trials = 4000
        populated._rng = random.Random(101)
        lazy = position_frequencies(
            lambda: populated.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9, limit=limit
            ),
            trials,
        )
        reference_rng = random.Random(202)
        eager = position_frequencies(
            lambda: reference_category_picks(
                populated, self.CATEGORY, reference_rng, exclude=9, limit=limit
            ),
            trials,
        )
        assert set(lazy) == set(eager)
        for key in eager:
            assert lazy[key] == pytest.approx(eager[key], abs=0.05), key

    def test_channel_of_only_the_excluded_node_is_skipped(self, server, tiny_dataset):
        alone, shared = tiny_dataset.channels_of_category(self.CATEGORY)[:2]
        server.register_channel_member(alone, 9)
        server.register_channel_member(shared, 1)
        for _ in range(20):
            assert server.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9, limit=5
            ) == [1]

    @pytest.mark.parametrize("limit", [None, 9, 50])
    def test_enough_limit_returns_every_other_member_once(self, populated, limit):
        expected = sorted({m for ms in self.LAYOUT.values() for m in ms} - {9})
        for seed in range(20):
            populated._rng = random.Random(seed)
            picks = populated.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9, limit=limit
            )
            assert sorted(picks) == expected

    def test_no_duplicate_picks(self, populated):
        for seed in range(50):
            populated._rng = random.Random(seed)
            for limit in range(1, 10):
                picks = populated.random_members_per_channel_in_category(
                    self.CATEGORY, exclude=9, limit=limit
                )
                assert len(picks) == len(set(picks)) == min(limit, 9)

    def test_round_zero_covers_distinct_channels_first(self, populated):
        channel_of = {m: c for c, ms in self.LAYOUT.items() for m in ms if m != 9}
        occupied = {3, 4, 6, 9}
        for seed in range(50):
            populated._rng = random.Random(seed)
            picks = populated.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9
            )
            assert {channel_of[m] for m in picks[: len(occupied)]} == occupied

    def test_tracker_down_draws_nothing(self, populated):
        populated.tracker_down = True
        state = populated._rng.getstate()
        assert populated.random_members_per_channel_in_category(self.CATEGORY) == []
        assert populated.find_holder_in_category(self.CATEGORY, is_holder=bool) is None
        assert populated.random_channel_member(3) is None
        assert populated._rng.getstate() == state


class TestHolderAssist:
    def test_finds_holder(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        server.register_channel_member(channel, 42)
        found = server.find_holder_in_category(
            category.category_id, is_holder=lambda n: n == 42
        )
        assert found == 42

    def test_returns_none_when_no_holder(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        server.register_channel_member(channel, 42)
        assert (
            server.find_holder_in_category(
                category.category_id, is_holder=lambda n: False
            )
            is None
        )

    def test_scan_limit_bounds_work(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        for member in range(50):
            server.register_channel_member(channel, member)
        calls = []

        def is_holder(n):
            calls.append(n)
            return False

        server.find_holder_in_category(
            category.category_id, is_holder=is_holder, scan_limit=10
        )
        assert len(calls) <= 10


class TestVideoOverlayTracker:
    def test_register_and_sample(self, server):
        for member in (1, 2, 3):
            server.register_video_overlay_member(7, member)
        picks = server.random_video_overlay_members(7, 2)
        assert len(picks) == 2
        assert set(picks) <= {1, 2, 3}

    def test_sample_all_when_fewer_than_count(self, server):
        server.register_video_overlay_member(7, 1)
        assert server.random_video_overlay_members(7, 5) == [1]

    def test_exclude(self, server):
        server.register_video_overlay_member(7, 1)
        assert server.random_video_overlay_members(7, 5, exclude=1) == []


class TestWatcherTracker:
    def test_watchers_lifecycle(self, server):
        server.watch_started(9, 1)
        assert server.current_watchers(9) == [1]
        server.watch_finished(9, 1)
        assert server.current_watchers(9) == []

    def test_watchers_exclude_requester(self, server):
        server.watch_started(9, 1)
        assert server.current_watchers(9, exclude=1) == []


class TestPopularityOracle:
    def test_top_videos_sorted_by_views(self, server, tiny_dataset):
        channel = max(tiny_dataset.channels.values(), key=lambda c: c.num_videos)
        top = server.top_videos_of_channel(channel.channel_id, 5)
        views = [tiny_dataset.video_views(v) for v in top]
        assert views == sorted(views, reverse=True)
        assert len(top) == min(5, channel.num_videos)

    def test_top_videos_belong_to_channel(self, server, tiny_dataset):
        channel = next(iter(tiny_dataset.channels.values()))
        top = server.top_videos_of_channel(channel.channel_id, 3)
        assert all(tiny_dataset.channel_of_video(v) == channel.channel_id for v in top)

    def test_mutating_a_feed_leaves_the_next_feed_unchanged(self, server, tiny_dataset):
        channel = max(tiny_dataset.channels.values(), key=lambda c: c.num_videos)
        first = server.top_videos_of_channel(channel.channel_id, 4)
        expected = list(first)
        first.reverse()
        first.append(-1)
        first[0] = -2
        assert server.top_videos_of_channel(channel.channel_id, 4) == expected

    def test_tied_views_keep_catalog_order(self):
        views = {10: 5, 11: 9, 12: 5, 13: 9, 14: 1, 15: 5}
        videos = list(views)

        class TiedCatalog:
            def videos_of_channel(self, channel_id):
                return videos

            def video_views(self, video_id):
                return views[video_id]

        server = CentralServer(TiedCatalog(), capacity_bps=1e6, rng=random.Random(0))
        assert server.top_videos_of_channel(0, len(videos)) == [11, 13, 10, 12, 15, 14]
        for count in range(len(videos) + 3):
            assert server.top_videos_of_channel(0, count) == sorted(
                videos, key=views.__getitem__, reverse=True
            )[:count]


class TestFallbackSource:
    def test_serve_counts_requests(self, server):
        before = server.requests_served
        grant = server.serve(1000.0)
        assert server.requests_served == before + 1
        assert grant.rate_bps > 0
        grant.release()

    def test_server_uplink_is_shared(self, tiny_dataset):
        server = CentralServer(tiny_dataset, capacity_bps=1_000_000, rng=random.Random(0))
        g1 = server.serve(0.0)
        g2 = server.serve(0.0)
        assert g2.rate_bps == pytest.approx(500_000)
        g1.release()
        g2.release()
