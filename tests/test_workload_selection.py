"""Unit tests for the 75/15/10 selection model."""

import random

import pytest

from repro.workload.selection import SelectionPolicy, VideoSelector


@pytest.fixture()
def selector(tiny_dataset):
    return VideoSelector(tiny_dataset, random.Random(0))


class TestSelectionPolicy:
    def test_defaults_sum_correctly(self):
        policy = SelectionPolicy()
        # 75% same channel, 15% same category, 10% another category.
        assert 1.0 - policy.p_same_channel - policy.p_same_category == pytest.approx(0.10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p_same_channel=1.1),
            dict(p_same_channel=0.9, p_same_category=0.2),
            dict(p_subscribed_move=-0.1),
            dict(channel_popularity_exponent=-1),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SelectionPolicy(**kwargs)


class TestSessionStart:
    def test_start_prefers_subscriptions(self, selector, tiny_dataset):
        user = next(
            u for u in tiny_dataset.iter_users() if u.subscribed_channel_ids
        )
        hits = 0
        for _ in range(50):
            selector.start_session(user.user_id)
            if selector.current_channel(user.user_id) in u_subs(user):
                hits += 1
        assert hits == 50  # session start always lands in a subscription

    def test_start_without_subscriptions_still_works(self, tiny_dataset, rng):
        # Clone the dataset and strip one user's subscriptions so the
        # no-subscription fallback path is exercised deterministically.
        from repro.trace.dataset import TraceDataset

        clone = TraceDataset.from_json(tiny_dataset.to_json())
        user = next(iter(clone.users.values()))
        for channel_id in list(user.subscribed_channel_ids):
            clone.channels[channel_id].subscriber_ids.discard(user.user_id)
        user.subscribed_channel_ids.clear()
        selector = VideoSelector(clone, rng)
        selector.start_session(user.user_id)
        assert selector.current_channel(user.user_id) in clone.channels

    def test_current_channel_requires_session(self, selector):
        with pytest.raises(KeyError):
            selector.current_channel(0)


def u_subs(user):
    return user.subscribed_channel_ids


class TestNextVideo:
    def test_videos_belong_to_dataset(self, selector, tiny_dataset):
        selector.start_session(0)
        for _ in range(100):
            video = selector.next_video(0)
            assert video in tiny_dataset.videos

    def test_same_channel_majority(self, tiny_dataset):
        # With p_same_channel = 1.0, every video is in the session channel.
        selector = VideoSelector(
            tiny_dataset,
            random.Random(1),
            policy=SelectionPolicy(p_same_channel=1.0, p_same_category=0.0),
        )
        selector.start_session(0)
        channel = selector.current_channel(0)
        for _ in range(30):
            video = selector.next_video(0)
            assert tiny_dataset.channel_of_video(video) == channel

    def test_same_category_move(self, tiny_dataset):
        selector = VideoSelector(
            tiny_dataset,
            random.Random(1),
            policy=SelectionPolicy(p_same_channel=0.0, p_same_category=1.0),
        )
        selector.start_session(0)
        before = selector.current_channel(0)
        category = tiny_dataset.category_of_channel(before)
        video = selector.next_video(0)
        after = selector.current_channel(0)
        assert tiny_dataset.category_of_channel(after) == category
        assert tiny_dataset.channel_of_video(video) == after

    def test_other_category_move(self, tiny_dataset):
        selector = VideoSelector(
            tiny_dataset,
            random.Random(1),
            policy=SelectionPolicy(p_same_channel=0.0, p_same_category=0.0),
        )
        selector.start_session(0)
        before_cat = tiny_dataset.category_of_channel(selector.current_channel(0))
        moved = 0
        for _ in range(20):
            selector.next_video(0)
            after_cat = tiny_dataset.category_of_channel(selector.current_channel(0))
            if after_cat != before_cat:
                moved += 1
            before_cat = after_cat
        assert moved >= 15  # different-category moves dominate

    def test_empirical_branch_fractions(self, tiny_dataset):
        selector = VideoSelector(tiny_dataset, random.Random(7))
        selector.start_session(0)
        same = 0
        total = 2000
        for _ in range(total):
            before = selector.current_channel(0)
            video = selector.next_video(0)
            if tiny_dataset.channel_of_video(video) == before:
                same += 1
        # ~75% same-channel picks (channel moves can land back on the
        # same channel occasionally, so allow a band).
        assert 0.70 < same / total < 0.85

    def test_popular_videos_preferred_within_channel(self, tiny_dataset):
        selector = VideoSelector(
            tiny_dataset,
            random.Random(3),
            policy=SelectionPolicy(p_same_channel=1.0, p_same_category=0.0),
        )
        selector.start_session(0)
        # Pin the session to the largest channel so the frequency test
        # has enough distinct videos to discriminate.
        channel = max(
            tiny_dataset.channels,
            key=lambda c: tiny_dataset.channels[c].num_videos,
        )
        selector._current_channel[0] = channel
        videos = tiny_dataset.videos_of_channel(channel)
        top = max(videos, key=tiny_dataset.video_views)
        draws = [selector.next_video(0) for _ in range(500)]
        top_share = draws.count(top) / len(draws)
        uniform_share = 1.0 / len(videos)
        assert top_share > 2 * uniform_share

    def test_determinism(self, tiny_dataset):
        a = VideoSelector(tiny_dataset, random.Random(5))
        b = VideoSelector(tiny_dataset, random.Random(5))
        a.start_session(0)
        b.start_session(0)
        assert [a.next_video(0) for _ in range(20)] == [
            b.next_video(0) for _ in range(20)
        ]


#: Recorded from the selector before its weights and subscription lists
#: were memoized: start_session plus 200 next_video calls per user at
#: Random(11) on the tiny corpus.  ``channels`` has the current channel
#: after start_session and after each next_video.
GOLDEN_CHANNELS = {
    0: (
        21, 21, 21, 21, 21, 11, 21, 24, 24, 24, 24, 24, 24, 24, 24, 6, 6, 6, 6,
        21, 21, 21, 21, 21, 21, 9, 9, 9, 9, 9, 9, 9, 9, 21, 21, 21, 5, 5, 5, 5,
        5, 5, 5, 1, 5, 24, 24, 24, 21, 11, 11, 11, 21, 21, 21, 21, 21, 21, 21,
        21, 21, 12, 12, 12, 12, 12, 12, 12, 21, 21, 21, 21, 21, 17, 17, 21, 21,
        21, 21, 1, 1, 1, 1, 5, 5, 21, 21, 21, 21, 21, 21, 21, 21, 1, 5, 5, 5, 5,
        1, 1, 1, 8, 8, 8, 8, 8, 8, 8, 8, 24, 24, 24, 24, 27, 27, 27, 27, 27, 21,
        5, 1, 1, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 24, 24, 24, 24, 24, 24, 24,
        24, 24, 21, 21, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
        24, 24, 24, 24, 24, 24, 24, 24, 21, 21, 21, 21, 21, 21, 21, 25, 25, 25,
        25, 25, 25, 25, 25, 25, 25, 25, 21, 21, 21, 23, 23, 23, 23, 23, 23, 23,
        23, 23, 23,
    ),
    1: (
        6, 6, 6, 4, 4, 4, 4, 4, 12, 12, 12, 22, 22, 22, 22, 22, 22, 22, 22, 22,
        22, 22, 22, 22, 6, 6, 6, 12, 12, 12, 12, 12, 12, 12, 12, 12, 6, 11, 11,
        11, 6, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 6, 0, 2, 2, 2, 2, 2, 2, 2,
        2, 2, 2, 2, 21, 21, 24, 24, 16, 16, 16, 16, 16, 13, 24, 24, 24, 24, 24,
        24, 24, 24, 24, 24, 27, 27, 27, 27, 27, 6, 6, 0, 0, 0, 0, 6, 6, 6, 6, 6,
        21, 21, 11, 15, 15, 15, 6, 6, 21, 21, 21, 21, 13, 13, 13, 13, 6, 25, 6,
        6, 6, 6, 6, 6, 6, 6, 3, 3, 3, 3, 6, 6, 6, 6, 6, 6, 2, 0, 0, 0, 2, 2, 2,
        6, 17, 17, 17, 5, 5, 5, 8, 8, 8, 8, 8, 2, 2, 2, 2, 6, 29, 29, 29, 6, 6,
        6, 21, 21, 24, 13, 13, 13, 13, 13, 13, 13, 6, 6, 21, 20, 20, 20, 20, 20,
        20, 20, 6, 6, 6, 6, 6, 6, 6, 18, 18, 18, 18, 18,
    ),
}
GOLDEN_VIDEOS = {
    0: (
        130, 126, 126, 126, 44, 130, 881, 881, 881, 880, 881, 881, 881, 885, 10,
        12, 12, 12, 130, 130, 126, 128, 126, 130, 36, 40, 38, 37, 36, 36, 37,
        41, 126, 129, 126, 9, 9, 9, 9, 9, 9, 9, 2, 9, 885, 881, 881, 126, 45,
        44, 52, 130, 125, 126, 126, 126, 126, 127, 126, 125, 59, 60, 60, 59, 60,
        60, 60, 129, 126, 126, 126, 130, 121, 121, 125, 126, 127, 126, 1, 1, 2,
        1, 9, 9, 126, 126, 130, 126, 126, 126, 126, 129, 1, 9, 9, 9, 9, 1, 1, 1,
        24, 24, 32, 24, 28, 32, 33, 33, 884, 881, 885, 882, 890, 890, 894, 893,
        894, 126, 9, 2, 2, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 885, 882, 881, 882,
        885, 881, 883, 881, 885, 126, 129, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
        9, 9, 9, 9, 9, 9, 885, 881, 881, 884, 884, 881, 880, 883, 128, 127, 126,
        125, 126, 126, 126, 886, 887, 887, 886, 886, 886, 887, 886, 886, 886,
        886, 129, 126, 126, 704, 804, 684, 201, 506, 388, 625, 815, 388, 594,
    ),
    1: (
        12, 11, 7, 5, 5, 5, 5, 60, 60, 59, 131, 131, 131, 131, 131, 131, 131,
        131, 131, 131, 131, 131, 131, 10, 12, 11, 59, 59, 59, 59, 59, 59, 59,
        60, 60, 12, 48, 52, 53, 12, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 3, 3, 11,
        0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 126, 126, 884, 881, 120, 120, 120,
        120, 120, 95, 881, 883, 881, 881, 885, 881, 884, 885, 884, 884, 894,
        890, 894, 890, 893, 10, 10, 0, 0, 0, 0, 10, 10, 11, 10, 10, 129, 126,
        52, 117, 117, 113, 10, 10, 126, 126, 130, 126, 105, 71, 70, 79, 10, 886,
        11, 12, 10, 10, 11, 11, 10, 12, 4, 4, 4, 4, 10, 11, 10, 11, 10, 10, 3,
        0, 0, 0, 3, 3, 3, 11, 121, 121, 121, 9, 9, 9, 23, 28, 21, 35, 33, 3, 3,
        3, 3, 10, 899, 899, 899, 12, 12, 11, 126, 126, 882, 79, 73, 71, 71, 71,
        63, 71, 10, 11, 130, 124, 124, 124, 124, 124, 124, 124, 10, 10, 10, 11,
        10, 10, 10, 122, 122, 122, 122, 122,
    ),
}


class TestMemoizedSelector:
    def test_reproduces_recorded_sequence(self, tiny_dataset):
        selector = VideoSelector(tiny_dataset, random.Random(11))
        for user in (0, 1):
            selector.start_session(user)
            channels = [selector.current_channel(user)]
            videos = []
            for _ in range(200):
                videos.append(selector.next_video(user))
                channels.append(selector.current_channel(user))
            assert tuple(channels) == GOLDEN_CHANNELS[user]
            assert tuple(videos) == GOLDEN_VIDEOS[user]

    def test_channel_weight_matches_definition(self, selector, tiny_dataset):
        gamma = selector.policy.channel_popularity_exponent
        for _ in range(2):  # the second pass reads the memo
            for channel_id in tiny_dataset.channels:
                assert selector._channel_weight(channel_id) == (
                    tiny_dataset.channel_total_views(channel_id) or 1.0
                ) ** gamma
