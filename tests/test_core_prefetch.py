"""Unit tests for the channel-facilitated prefetcher."""

import random

import pytest

from repro.core.prefetch import ChannelPrefetcher
from repro.net.server import CentralServer


@pytest.fixture()
def prefetcher(tiny_dataset):
    server = CentralServer(tiny_dataset, capacity_bps=1e6, rng=random.Random(0))
    return ChannelPrefetcher(server, window=3)


def _largest_channel(dataset):
    return max(dataset.iter_channels(), key=lambda c: c.num_videos)


def _full_ranking(prefetcher, dataset, channel_id):
    """The server's whole popularity feed for one channel."""
    return prefetcher.server.top_videos_of_channel(
        channel_id, len(dataset.videos_of_channel(channel_id))
    )


class TestChannelPrefetcher:
    def test_invalid_window_rejected(self, tiny_dataset):
        server = CentralServer(tiny_dataset, capacity_bps=1e6, rng=random.Random(0))
        with pytest.raises(ValueError):
            ChannelPrefetcher(server, window=-1)

    def test_candidates_ranked_by_popularity(self, prefetcher, tiny_dataset):
        channel = _largest_channel(tiny_dataset)
        watching = channel.video_ids[0]
        picks = prefetcher.candidates(channel.channel_id, set(), watching)
        views = [tiny_dataset.video_views(v) for v in picks]
        assert views == sorted(views, reverse=True)

    def test_candidates_respect_window(self, prefetcher, tiny_dataset):
        channel = _largest_channel(tiny_dataset)
        picks = prefetcher.candidates(channel.channel_id, set(), channel.video_ids[0])
        assert len(picks) <= 3

    def test_currently_watching_excluded(self, prefetcher, tiny_dataset):
        channel = _largest_channel(tiny_dataset)
        top = _full_ranking(prefetcher, tiny_dataset, channel.channel_id)[0]
        picks = prefetcher.candidates(channel.channel_id, set(), top)
        assert top not in picks

    def test_already_have_excluded_and_backfilled(self, prefetcher, tiny_dataset):
        channel = _largest_channel(tiny_dataset)
        ranked = _full_ranking(prefetcher, tiny_dataset, channel.channel_id)
        if len(ranked) < 6:
            pytest.skip("channel too small")
        have = set(ranked[:2])
        picks = prefetcher.candidates(channel.channel_id, have, ranked[-1])
        assert not set(picks) & have
        assert len(picks) == 3  # skips are backfilled from the feed

    def test_zero_count_returns_empty(self, tiny_dataset):
        # A zero window returns before asking the popularity feed.
        server = CentralServer(tiny_dataset, capacity_bps=1e6, rng=random.Random(0))
        server.top_videos_of_channel = None  # any feed call would raise
        prefetcher = ChannelPrefetcher(server, window=0)
        channel = _largest_channel(tiny_dataset)
        assert prefetcher.candidates(
            channel.channel_id, set(), channel.video_ids[0]
        ) == []

    def test_ranked_channel_videos_complete(self, prefetcher, tiny_dataset):
        channel = _largest_channel(tiny_dataset)
        ranked = _full_ranking(prefetcher, tiny_dataset, channel.channel_id)
        assert sorted(ranked) == sorted(channel.video_ids)
