"""Unit tests for the trace entities."""

import pytest

from repro.trace.entities import DEFAULT_CATEGORY_NAMES, Channel, User, Video


class TestVideo:
    def _video(self, upload_day=10, views=900):
        return Video(
            video_id=1, channel_id=0, category_id=0, upload_day=upload_day,
            length_seconds=120.0, views=views, favorites=9,
        )

    def test_view_frequency(self):
        video = self._video(upload_day=10, views=900)
        assert video.view_frequency(crawl_day=100) == pytest.approx(10.0)

    def test_view_frequency_same_day_counts_one_day(self):
        video = self._video(upload_day=100, views=50)
        assert video.view_frequency(crawl_day=100) == pytest.approx(50.0)


class TestChannel:
    def test_counts(self):
        channel = Channel(channel_id=0, owner_user_id=1, category_id=2)
        channel.video_ids.extend([1, 2, 3])
        channel.subscriber_ids.update({10, 11})
        channel.category_mix.update({2: 2, 4: 1})
        assert channel.num_videos == 3
        assert channel.num_subscribers == 2
        assert channel.num_interests == 2


class TestUser:
    def test_interest_count(self):
        user = User(user_id=1, interest_ids={1, 2, 3})
        assert user.num_interests == 3


class TestCategoryNames:
    def test_default_names_unique(self):
        assert len(DEFAULT_CATEGORY_NAMES) == len(set(DEFAULT_CATEGORY_NAMES))

    def test_paper_examples_present(self):
        # Fig 1 names these YouTube categories explicitly.
        for name in ("Gaming", "Sports", "Comedy", "Science & Technology"):
            assert name in DEFAULT_CATEGORY_NAMES
