"""Unit tests for the trace synthesizer.

These check the *generative invariants*; the Section III distributional
shapes are asserted in test_analysis_figures.py.
"""

import pytest

from repro.trace.synthesizer import TraceConfig, TraceSynthesizer, synthesize_trace


class TestTraceConfig:
    def test_defaults_valid(self):
        TraceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_users=0),
            dict(num_channels=0),
            dict(num_videos=0),
            dict(num_users=5, num_channels=10),   # more channels than users
            dict(num_channels=50, num_videos=10),  # more channels than videos
            dict(num_categories=0),
            dict(primary_category_share=1.5),
            dict(in_interest_subscription_prob=-0.1),
            dict(max_interests=0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TraceConfig(**kwargs)

    def test_table1_scale_counts(self):
        config = TraceConfig.table1_scale()
        assert config.num_users == 10000
        assert config.num_channels == 545
        assert config.num_videos == 10121


class TestSynthesis:
    def test_exact_entity_counts(self, tiny_dataset):
        assert tiny_dataset.num_users == 150
        assert tiny_dataset.num_channels == 30
        assert tiny_dataset.num_videos == 900
        assert tiny_dataset.num_categories == 6

    def test_validates_cleanly(self, tiny_dataset):
        tiny_dataset.validate()

    def test_deterministic_for_seed(self):
        config = TraceConfig(num_users=100, num_channels=20, num_videos=400, seed=5)
        a = TraceSynthesizer(config).synthesize()
        b = TraceSynthesizer(config).synthesize()
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        base = dict(num_users=100, num_channels=20, num_videos=400)
        a = synthesize_trace(TraceConfig(seed=1, **base))
        b = synthesize_trace(TraceConfig(seed=2, **base))
        assert a.to_json() != b.to_json()

    def test_every_channel_has_a_video(self, tiny_dataset):
        assert all(c.num_videos >= 1 for c in tiny_dataset.iter_channels())

    def test_every_channel_has_distinct_owner(self, tiny_dataset):
        owners = [c.owner_user_id for c in tiny_dataset.iter_channels()]
        assert len(owners) == len(set(owners))

    def test_owner_backlink_on_user(self, tiny_dataset):
        for channel in tiny_dataset.iter_channels():
            owner = tiny_dataset.users[channel.owner_user_id]
            assert owner.owned_channel_id == channel.channel_id

    def test_video_lengths_within_bounds(self, tiny_dataset):
        config = TraceConfig()
        for video in tiny_dataset.iter_videos():
            assert config.video_length_min <= video.length_seconds <= config.video_length_max

    def test_upload_days_within_horizon(self, tiny_dataset):
        for video in tiny_dataset.iter_videos():
            assert 0 <= video.upload_day < tiny_dataset.crawl_day

    def test_views_positive(self, tiny_dataset):
        assert all(v.views >= 1 for v in tiny_dataset.iter_videos())

    def test_channel_category_mix_matches_videos(self, tiny_dataset):
        for channel in tiny_dataset.iter_channels():
            recount = {}
            for video_id in channel.video_ids:
                cat = tiny_dataset.videos[video_id].category_id
                recount[cat] = recount.get(cat, 0) + 1
            assert recount == channel.category_mix

    def test_primary_category_dominates(self, tiny_dataset):
        # The primary category should hold the plurality of most
        # channels' videos (Fig 11: channels are focused).
        dominated = 0
        for channel in tiny_dataset.iter_channels():
            primary_count = channel.category_mix.get(channel.category_id, 0)
            if primary_count >= max(channel.category_mix.values()):
                dominated += 1
        assert dominated >= 0.8 * tiny_dataset.num_channels

    def test_interests_derived_from_favorites(self, tiny_dataset):
        for user in tiny_dataset.iter_users():
            derived = {
                tiny_dataset.videos[v].category_id for v in user.favorite_video_ids
            }
            assert user.interest_ids == derived

    def test_every_user_has_a_favorite(self, tiny_dataset):
        assert all(u.favorite_video_ids for u in tiny_dataset.iter_users())

    def test_interest_count_capped(self, tiny_dataset):
        config = TraceConfig()
        assert all(
            u.num_interests <= config.max_interests for u in tiny_dataset.iter_users()
        )

    def test_subscriptions_mirrored_on_channels(self, tiny_dataset):
        for user in tiny_dataset.iter_users():
            for channel_id in user.subscribed_channel_ids:
                assert user.user_id in tiny_dataset.channels[channel_id].subscriber_ids
