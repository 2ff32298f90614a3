"""The 75/15/10 video-selection model.

Each user carries a *current channel* (initially drawn from their
subscriptions, popularity-weighted).  For every next video:

* with ``p_same_channel`` (75%) -- a video of the current channel,
* with ``p_same_category`` (15%) -- a video from another channel of the
  current channel's category (the user then moves to that channel),
* otherwise (10%) -- a video from a channel of a different category.

Within any channel, the video is drawn proportionally to its view
count, reproducing the within-channel Zipf viewing of Fig 9 -- the
paper notes "Other percent values keeping the same magnitude
relationship will not change the relative performance differences".
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, Optional, Tuple

from repro.trace.dataset import TraceDataset
from repro.trace.distributions import DiscreteSampler


@dataclass
class SelectionPolicy:
    """The three-way branching probabilities of Section V.

    ``p_subscribed_move`` biases channel *moves* toward the user's own
    subscriptions: when a user leaves the current channel, the
    destination is one of their subscribed channels (in the target
    category) with this probability, else any channel of the category by
    popularity.  This reflects the trace observations the paper builds
    on -- subscribers watch the channels they subscribed to (O2) and
    subscribe within their interests (O5).
    """

    p_same_channel: float = 0.75
    p_same_category: float = 0.15
    p_subscribed_move: float = 0.7
    #: Channel *moves* weight destination channels by (total views)^gamma.
    #: gamma=1 concentrates the population into the few hottest channels
    #: far beyond the member counts the paper's Table I corpus implies
    #: (545 channels / 10k nodes ~ 18 members per channel); the tempered
    #: default keeps channel communities at a size one TTL-2 flood can
    #: cover, which is the regime the protocol was designed for.
    #: Video choice *within* a channel remains fully view-weighted.
    channel_popularity_exponent: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.p_same_channel <= 1 or not 0 <= self.p_same_category <= 1:
            raise ValueError("probabilities must be in [0, 1]")
        if self.p_same_channel + self.p_same_category > 1:
            raise ValueError("p_same_channel + p_same_category must be <= 1")
        if not 0 <= self.p_subscribed_move <= 1:
            raise ValueError("p_subscribed_move must be in [0, 1]")
        if self.channel_popularity_exponent < 0:
            raise ValueError("channel_popularity_exponent must be >= 0")

    @property
    def p_other_category(self) -> float:
        return 1.0 - self.p_same_channel - self.p_same_category


class VideoSelector:
    """Stateful per-user next-video chooser."""

    def __init__(
        self,
        dataset: TraceDataset,
        rng: Random,
        policy: Optional[SelectionPolicy] = None,
    ):
        self.dataset = dataset
        self.rng = rng
        self.policy = policy or SelectionPolicy()
        self._current_channel: Dict[int, int] = {}
        # Cached samplers and weights; channels/videos/subscriptions are
        # static during a run, so each is computed on first use.
        self._video_sampler: Dict[int, DiscreteSampler] = {}
        self._channel_sampler_of_category: Dict[int, DiscreteSampler] = {}
        self._weight_of_channel: Dict[int, float] = {}
        self._subscriptions: Dict[int, Tuple[int, ...]] = {}
        self._category_ids = [
            c for c in dataset.categories
            if dataset.categories[c].channel_ids
        ]
        if not self._category_ids:
            raise ValueError("dataset has no non-empty category")
        gamma = self.policy.channel_popularity_exponent
        self._category_sampler = DiscreteSampler(
            [
                (
                    sum(
                        dataset.channel_total_views(ch)
                        for ch in dataset.categories[c].channel_ids
                    )
                    or 1.0
                )
                ** gamma
                for c in self._category_ids
            ]
        )

    # -- samplers ------------------------------------------------------------

    def _channel_weight(self, channel_id: int) -> float:
        """Tempered popularity weight for channel-move choices."""
        weight = self._weight_of_channel.get(channel_id)
        if weight is None:
            views = self.dataset.channel_total_views(channel_id) or 1.0
            weight = views ** self.policy.channel_popularity_exponent
            self._weight_of_channel[channel_id] = weight
        return weight

    def _sorted_subscriptions(self, user_id: int) -> Tuple[int, ...]:
        """The user's subscribed channels in ascending id order.

        sorted(): the subscription set's hash order depends on its
        insertion history, which a pickle round trip rewrites -- the
        trace cache ships snapshots to workers, so iteration order must
        be canonical for jobs=N to equal jobs=1.
        """
        subscriptions = self._subscriptions.get(user_id)
        if subscriptions is None:
            subscriptions = tuple(sorted(self.dataset.subscriptions_of_user(user_id)))
            self._subscriptions[user_id] = subscriptions
        return subscriptions

    def _pick_video_in_channel(self, channel_id: int) -> int:
        sampler = self._video_sampler.get(channel_id)
        videos = self.dataset.videos_of_channel(channel_id)
        if sampler is None:
            sampler = DiscreteSampler([self.dataset.video_views(v) for v in videos])
            self._video_sampler[channel_id] = sampler
        return videos[sampler.sample(self.rng)]

    def _pick_channel_in_category(self, category_id: int) -> int:
        sampler = self._channel_sampler_of_category.get(category_id)
        channels = self.dataset.channels_of_category(category_id)
        if sampler is None:
            sampler = DiscreteSampler([self._channel_weight(c) for c in channels])
            self._channel_sampler_of_category[category_id] = sampler
        return channels[sampler.sample(self.rng)]

    def _pick_category(self, exclude: Optional[int] = None) -> int:
        for _ in range(10):
            category = self._category_ids[self._category_sampler.sample(self.rng)]
            if category != exclude:
                return category
        return self._category_ids[0] if exclude != self._category_ids[0] else (
            self._category_ids[-1]
        )

    # -- public API ---------------------------------------------------------------

    def start_session(self, user_id: int) -> None:
        """Pick the session's starting channel from the subscriptions.

        Subscribers gravitate to their subscribed channels (O2);
        popularity-weighted among them.  Users without subscriptions
        start from a popular channel of a popular category.
        """
        subscriptions = self._sorted_subscriptions(user_id)
        if subscriptions:
            weights = [self._channel_weight(c) for c in subscriptions]
            channel = subscriptions[DiscreteSampler(weights).sample(self.rng)]
        else:
            channel = self._pick_channel_in_category(self._pick_category())
        self._current_channel[user_id] = channel

    def current_channel(self, user_id: int) -> int:
        channel = self._current_channel.get(user_id)
        if channel is None:
            raise KeyError(f"user {user_id} has no active session; call start_session")
        return channel

    def _subscribed_channel_in(
        self, user_id: int, category_id: Optional[int], exclude: Optional[int]
    ) -> Optional[int]:
        """A popularity-weighted subscribed channel, optionally filtered
        to one category; None when the user has no match."""
        candidates = [
            c
            for c in self._sorted_subscriptions(user_id)
            if c != exclude
            and (
                category_id is None
                or self.dataset.category_of_channel(c) == category_id
            )
        ]
        if not candidates:
            return None
        weights = [self._channel_weight(c) for c in candidates]
        return candidates[DiscreteSampler(weights).sample(self.rng)]

    def next_video(self, user_id: int) -> int:
        """Draw the next video per the 75/15/10 policy and update state."""
        channel_id = self.current_channel(user_id)
        roll = self.rng.random()
        if roll < self.policy.p_same_channel:
            return self._pick_video_in_channel(channel_id)
        category_id = self.dataset.category_of_channel(channel_id)
        prefer_subscribed = self.rng.random() < self.policy.p_subscribed_move
        if roll < self.policy.p_same_channel + self.policy.p_same_category:
            # Same category, (usually) different channel.
            new_channel = None
            if prefer_subscribed:
                new_channel = self._subscribed_channel_in(
                    user_id, category_id, exclude=channel_id
                )
            if new_channel is None:
                new_channel = self._pick_channel_in_category(category_id)
        else:
            new_channel = None
            if prefer_subscribed:
                pick = self._subscribed_channel_in(user_id, None, exclude=channel_id)
                if pick is not None and (
                    self.dataset.category_of_channel(pick) != category_id
                ):
                    new_channel = pick
            if new_channel is None:
                other = self._pick_category(exclude=category_id)
                new_channel = self._pick_channel_in_category(other)
        self._current_channel[user_id] = new_channel
        return self._pick_video_in_channel(new_channel)
