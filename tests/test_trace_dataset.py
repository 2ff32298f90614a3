"""Unit tests for the dataset container (queries, validation, JSON)."""

import pytest

from repro.trace.dataset import (
    UNAFFILIATED,
    DatasetError,
    TraceDataset,
    primary_interest,
)
from repro.trace.entities import Category, Channel, User, Video
from repro.trace.synthesizer import TraceConfig, synthesize_trace


def _micro_dataset():
    """A hand-built two-channel dataset for validation edge cases."""
    dataset = TraceDataset(crawl_day=100, seed=1)
    dataset.categories[0] = Category(0, "Music", channel_ids=[0])
    dataset.categories[1] = Category(1, "Gaming", channel_ids=[1])
    dataset.channels[0] = Channel(0, owner_user_id=0, category_id=0)
    dataset.channels[1] = Channel(1, owner_user_id=1, category_id=1)
    for vid, (ch, views) in enumerate([(0, 100), (0, 50), (1, 10)]):
        dataset.videos[vid] = Video(
            video_id=vid,
            channel_id=ch,
            category_id=dataset.channels[ch].category_id,
            upload_day=10,
            length_seconds=60.0,
            views=views,
            favorites=views // 10,
        )
        dataset.channels[ch].video_ids.append(vid)
        mix = dataset.channels[ch].category_mix
        cat = dataset.channels[ch].category_id
        mix[cat] = mix.get(cat, 0) + 1
    dataset.users[0] = User(0, owned_channel_id=0, interest_ids={0},
                            favorite_video_ids=[0])
    dataset.users[1] = User(1, owned_channel_id=1, interest_ids={1},
                            favorite_video_ids=[2])
    dataset.users[0].subscribed_channel_ids.add(1)
    dataset.channels[1].subscriber_ids.add(0)
    return dataset


class TestQueries:
    def test_channel_of_video(self):
        dataset = _micro_dataset()
        assert dataset.channel_of_video(0) == 0
        assert dataset.channel_of_video(2) == 1

    def test_category_queries(self):
        dataset = _micro_dataset()
        assert dataset.category_of_channel(1) == 1
        assert dataset.category_of_video(2) == 1
        assert list(dataset.channels_of_category(0)) == [0]

    def test_channel_total_views(self):
        dataset = _micro_dataset()
        assert dataset.channel_total_views(0) == 150
        assert dataset.channel_total_views(1) == 10

    def test_channel_view_frequency_uses_days_online(self):
        dataset = _micro_dataset()
        # Videos uploaded day 10, crawl day 100 -> 90 days online.
        expected = (100 / 90 + 50 / 90) / 2
        assert dataset.channel_view_frequency(0) == pytest.approx(expected)

    def test_subscription_queries(self):
        dataset = _micro_dataset()
        assert dataset.subscriptions_of_user(0) == {1}
        assert dataset.subscribers_of_channel(1) == {0}

    def test_summary_mentions_counts(self):
        text = _micro_dataset().summary()
        assert "2 users" in text and "2 channels" in text and "3 videos" in text


class TestValidation:
    def test_valid_dataset_passes(self):
        _micro_dataset().validate()

    def test_video_with_missing_channel_fails(self):
        dataset = _micro_dataset()
        dataset.videos[0].channel_id = 99
        with pytest.raises(DatasetError):
            dataset.validate()

    def test_negative_views_fail(self):
        dataset = _micro_dataset()
        dataset.videos[0].views = -1
        with pytest.raises(DatasetError):
            dataset.validate()

    def test_foreign_video_in_channel_fails(self):
        dataset = _micro_dataset()
        dataset.channels[0].video_ids.append(2)  # belongs to channel 1
        with pytest.raises(DatasetError):
            dataset.validate()

    def test_unmirrored_subscription_fails(self):
        dataset = _micro_dataset()
        dataset.users[1].subscribed_channel_ids.add(0)  # not mirrored
        with pytest.raises(DatasetError):
            dataset.validate()

    def test_unknown_favorite_fails(self):
        dataset = _micro_dataset()
        dataset.users[0].favorite_video_ids.append(999)
        with pytest.raises(DatasetError):
            dataset.validate()

    def test_nonpositive_length_fails(self):
        dataset = _micro_dataset()
        dataset.videos[1].length_seconds = 0.0
        with pytest.raises(DatasetError):
            dataset.validate()


class TestSerialization:
    def test_json_round_trip_micro(self):
        dataset = _micro_dataset()
        restored = TraceDataset.from_json(dataset.to_json())
        assert restored.to_json() == dataset.to_json()
        restored.validate()

    def test_json_round_trip_synthesized(self, tiny_dataset):
        restored = TraceDataset.from_json(tiny_dataset.to_json())
        assert restored.num_users == tiny_dataset.num_users
        assert restored.num_videos == tiny_dataset.num_videos
        assert restored.to_json() == tiny_dataset.to_json()

    def test_save_and_load(self, tmp_path):
        dataset = _micro_dataset()
        path = tmp_path / "trace.json"
        dataset.save(str(path))
        restored = TraceDataset.load(str(path))
        assert restored.to_json() == dataset.to_json()

    def test_round_trip_preserves_types(self):
        restored = TraceDataset.from_json(_micro_dataset().to_json())
        assert isinstance(restored.users[0].subscribed_channel_ids, set)
        assert isinstance(restored.channels[0].category_mix, dict)
        assert all(isinstance(k, int) for k in restored.channels[0].category_mix)


NUM_NODES = 60


@pytest.fixture(scope="module")
def communities():
    return synthesize_trace(
        TraceConfig(
            num_users=NUM_NODES, num_channels=12, num_videos=300,
            num_categories=4, seed=7,
        )
    )


class TestPrimaryInterest:
    def test_deterministic(self, communities):
        for user_id in range(NUM_NODES):
            assert primary_interest(communities, user_id) == primary_interest(
                communities, user_id
            )

    def test_subscribed_users_land_in_a_real_category(self, communities):
        categories = {
            communities.category_of_channel(c)
            for u in range(NUM_NODES)
            for c in communities.subscriptions_of_user(u)
        }
        for user_id in range(NUM_NODES):
            if communities.subscriptions_of_user(user_id):
                assert primary_interest(communities, user_id) in categories

    def test_unaffiliated_fallback(self, communities):
        # Every cluster id is either a real signal or the sentinel.
        for user_id in range(NUM_NODES):
            cluster = primary_interest(communities, user_id)
            assert cluster == UNAFFILIATED or cluster >= 0
