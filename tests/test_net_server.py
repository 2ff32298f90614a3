"""Unit tests for the central server (tracker / oracle / fallback source)."""

import random

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
