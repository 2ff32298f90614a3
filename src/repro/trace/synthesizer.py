"""Synthetic YouTube social-network generator.

Replaces the paper's proprietary crawl (20,310 users / 261,110 videos,
18 Jan 2008 - 9 Sept 2010) with a generator that reproduces every
statistical property Section III measures:

========  ==========================================================
Fig 2     upload volume grows ~exponentially over the crawl horizon
Fig 3/4   channel view-frequency and subscriber counts heavy-tailed
Fig 5     channel total views strongly correlated with subscribers
Fig 6     videos-per-channel heavy-tailed
Fig 7/8   per-video views and favorites heavy-tailed and correlated
Fig 9     within-channel views ~ Zipf(s=1) regardless of channel tier
Fig 10    channels cluster by shared subscribers inside categories
Fig 11    each channel spans few categories
Fig 12    users subscribe within their interests (high similarity)
Fig 13    users hold a limited number of interests (<= 18)
========  ==========================================================

The generative story: every channel has a latent *popularity weight*
(bounded Pareto).  Users have latent interests; they subscribe mostly
to popular channels inside those interests; they favorite videos mostly
from subscribed channels; observed interests are then *derived* from
favorite-video categories exactly as the paper does.  Channel weight
drives both subscriber counts and video views, producing the Fig 5
correlation for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.rng import RngStreams
from repro.trace.dataset import TraceDataset
from repro.trace.distributions import (
    DiscreteSampler,
    bounded_pareto,
    exponential_growth_day,
    zipf_weights,
)
from repro.trace.entities import (
    DEFAULT_CATEGORY_NAMES,
    Category,
    Channel,
    User,
    Video,
)


@dataclass
class TraceConfig:
    """Knobs of the synthetic social network.

    Defaults are a laptop-friendly scale; :meth:`table1_scale` matches
    the simulation corpus of Table I.
    """

    num_users: int = 2000
    num_channels: int = 200
    num_videos: int = 8000
    num_categories: int = 15
    horizon_days: int = 970          # 18 Jan 2008 .. 9 Sept 2010
    upload_growth_rate: float = 2.2  # exponent of the Fig 2 growth curve
    seed: int = 20140630             # ICDCS 2014 vintage

    # Channel structure ----------------------------------------------------
    channel_weight_alpha: float = 0.55   # popularity-weight Pareto shape
    channel_weight_max: float = 2.0e4
    channel_size_alpha: float = 0.70     # videos-per-channel Pareto shape
    channel_size_max: float = 2000.0
    primary_category_share: float = 0.80 # fraction of uploads in primary cat
    max_secondary_categories: int = 4

    # Video statistics -----------------------------------------------------
    within_channel_zipf: float = 1.0     # Fig 9 / Section IV-B: s = 1
    view_scale: float = 900.0            # calibrates the corpus view median
    view_noise_sigma: float = 0.35
    favorite_rate: float = 0.012         # favorites ~ 1.2% of views
    favorite_noise_sigma: float = 0.45
    video_length_mu: float = math.log(210.0)  # short videos, median 3.5 min
    video_length_sigma: float = 0.60
    video_length_min: float = 20.0
    video_length_max: float = 900.0

    # User behaviour ---------------------------------------------------------
    mean_interests: float = 4.0          # latent interests; observed (Fig 13) is derived
    max_interests: int = 18              # Fig 13: observed maximum
    interest_zipf: float = 2.0           # user attention skew across interests (Fig 10)
    subscription_alpha: float = 1.3      # subscriptions-per-user Pareto shape
    subscription_min: float = 1.0
    subscription_max: float = 120.0
    in_interest_subscription_prob: float = 0.92  # Fig 12 similarity driver
    mean_favorites: float = 15.0
    favorite_from_subscription_prob: float = 0.60
    favorite_from_interest_prob: float = 0.30
    size_popularity_coupling: float = 0.35  # popular channels upload more (Fig 5)

    def __post_init__(self) -> None:
        if self.num_users < 1 or self.num_channels < 1 or self.num_videos < 1:
            raise ValueError("counts must be positive")
        if self.num_channels > self.num_users:
            raise ValueError("every channel needs a distinct owner user")
        if self.num_videos < self.num_channels:
            raise ValueError("every channel needs at least one video")
        if self.num_categories < 1:
            raise ValueError("need at least one category")
        if not 0.0 <= self.primary_category_share <= 1.0:
            raise ValueError("primary_category_share must be a probability")
        if not 0.0 <= self.in_interest_subscription_prob <= 1.0:
            raise ValueError("in_interest_subscription_prob must be a probability")
        if self.max_interests < 1:
            raise ValueError("max_interests must be >= 1")

    @classmethod
    def table1_scale(cls, seed: int = 20140630) -> "TraceConfig":
        """The Table I simulation corpus: 545 channels, ~10,121 videos."""
        return cls(
            num_users=10000,
            num_channels=545,
            num_videos=10121,
            seed=seed,
        )


class TraceSynthesizer:
    """Builds a :class:`TraceDataset` from a :class:`TraceConfig`."""

    def __init__(self, config: TraceConfig):
        self.config = config
        self._streams = RngStreams(config.seed)

    # -- public entry ---------------------------------------------------------

    def synthesize(self) -> TraceDataset:
        """Generate the full dataset.  Deterministic for a fixed config."""
        cfg = self.config
        categories = self._make_categories()
        channel_weights = self._draw_channel_weights()
        channels = self._make_channels(categories, channel_weights)
        videos = self._make_videos(channels, channel_weights)
        users = self._make_users(channels, channel_weights, videos)
        dataset = TraceDataset(
            categories={c.category_id: c for c in categories},
            channels={c.channel_id: c for c in channels},
            videos={v.video_id: v for v in videos},
            users={u.user_id: u for u in users},
            crawl_day=cfg.horizon_days,
            seed=cfg.seed,
        )
        dataset.validate()
        return dataset

    # -- categories -----------------------------------------------------------

    def _make_categories(self) -> List[Category]:
        names = list(DEFAULT_CATEGORY_NAMES)
        while len(names) < self.config.num_categories:
            names.append(f"Category {len(names) + 1}")
        return [
            Category(category_id=i, name=names[i])
            for i in range(self.config.num_categories)
        ]

    def _category_popularity_sampler(self) -> DiscreteSampler:
        """Categories themselves are Zipf-popular (Music >> Nonprofits)."""
        return DiscreteSampler(zipf_weights(self.config.num_categories, 0.8))

    # -- channels ---------------------------------------------------------------

    def _draw_channel_weights(self) -> List[float]:
        rng = self._streams.stream("channel-weights")
        cfg = self.config
        return [
            bounded_pareto(rng, cfg.channel_weight_alpha, 1.0, cfg.channel_weight_max)
            for _ in range(cfg.num_channels)
        ]

    def _make_channels(
        self, categories: List[Category], weights: List[float]
    ) -> List[Channel]:
        cfg = self.config
        rng = self._streams.stream("channels")
        cat_sampler = self._category_popularity_sampler()
        # Channel owners are a random subset of users (one channel each).
        owner_ids = rng.sample(range(cfg.num_users), cfg.num_channels)
        channels: List[Channel] = []
        for channel_id in range(cfg.num_channels):
            primary = cat_sampler.sample(rng)
            channel = Channel(
                channel_id=channel_id,
                owner_user_id=owner_ids[channel_id],
                category_id=primary,
            )
            channels.append(channel)
            categories[primary].channel_ids.append(channel_id)
        return channels

    def _channel_video_counts(self, weights: List[float]) -> List[int]:
        """Split the corpus across channels with a heavy-tailed profile.

        Draw a bounded-Pareto size weight per channel, couple it mildly
        to the channel's popularity weight (popular uploaders are also
        prolific -- this drives the Fig 5 views/subscribers correlation),
        scale so the total matches ``num_videos``, and guarantee >= 1
        video per channel.
        """
        cfg = self.config
        rng = self._streams.stream("channel-sizes")
        raw = [
            bounded_pareto(rng, cfg.channel_size_alpha, 1.0, cfg.channel_size_max)
            * (w ** cfg.size_popularity_coupling)
            for w in weights
        ]
        total_raw = sum(raw)
        counts = [max(1, int(round(w / total_raw * cfg.num_videos))) for w in raw]
        # Nudge the rounding drift back onto the largest channels.
        drift = cfg.num_videos - sum(counts)
        order = sorted(range(cfg.num_channels), key=lambda i: raw[i], reverse=True)
        i = 0
        while drift != 0 and order:
            idx = order[i % len(order)]
            if drift > 0:
                counts[idx] += 1
                drift -= 1
            elif counts[idx] > 1:
                counts[idx] -= 1
                drift += 1
            i += 1
        return counts

    # -- videos --------------------------------------------------------------

    def _make_videos(
        self, channels: List[Channel], weights: List[float]
    ) -> List[Video]:
        cfg = self.config
        rng = self._streams.stream("videos")
        counts = self._channel_video_counts(weights)
        videos: List[Video] = []
        video_id = 0
        num_cats = cfg.num_categories
        for channel, count, weight in zip(channels, counts, weights):
            # The channel's small set of secondary categories (Fig 11).
            num_secondary = rng.randint(0, min(cfg.max_secondary_categories, num_cats - 1))
            secondary = rng.sample(
                [c for c in range(num_cats) if c != channel.category_id],
                num_secondary,
            )
            zipf = zipf_weights(count, cfg.within_channel_zipf)
            ranks = list(range(count))
            rng.shuffle(ranks)  # popularity rank is independent of upload order
            for k in range(count):
                if secondary and rng.random() > cfg.primary_category_share:
                    category_id = rng.choice(secondary)
                else:
                    category_id = channel.category_id
                length = rng.lognormvariate(cfg.video_length_mu, cfg.video_length_sigma)
                length = min(max(length, cfg.video_length_min), cfg.video_length_max)
                noise = rng.lognormvariate(0.0, cfg.view_noise_sigma)
                views = int(round(weight * zipf[ranks[k]] * cfg.view_scale * noise))
                views = max(1, views)
                fav_noise = rng.lognormvariate(0.0, cfg.favorite_noise_sigma)
                favorites = int(round(views * cfg.favorite_rate * fav_noise))
                video = Video(
                    video_id=video_id,
                    channel_id=channel.channel_id,
                    category_id=category_id,
                    upload_day=exponential_growth_day(
                        rng, cfg.horizon_days, cfg.upload_growth_rate
                    ),
                    length_seconds=length,
                    views=views,
                    favorites=favorites,
                )
                videos.append(video)
                channel.video_ids.append(video_id)
                channel.category_mix[category_id] = (
                    channel.category_mix.get(category_id, 0) + 1
                )
                video_id += 1
        return videos

    # -- users ------------------------------------------------------------------

    def _draw_interest_count(self, rng) -> int:
        """Interests per user: most users < 10, hard max 18 (Fig 13)."""
        cfg = self.config
        raw = rng.lognormvariate(math.log(cfg.mean_interests), 0.45)
        return max(1, min(cfg.max_interests, int(round(raw))))

    def _make_users(
        self,
        channels: List[Channel],
        weights: List[float],
        videos: List[Video],
    ) -> List[User]:
        cfg = self.config
        rng = self._streams.stream("users")
        cat_sampler = self._category_popularity_sampler()
        channel_sampler = DiscreteSampler(weights)
        # Per-category channel samplers for interest-driven subscription.
        per_category: Dict[int, DiscreteSampler] = {}
        per_category_ids: Dict[int, List[int]] = {}
        for category_id in range(cfg.num_categories):
            ids = [c.channel_id for c in channels if c.category_id == category_id]
            if ids:
                per_category_ids[category_id] = ids
                per_category[category_id] = DiscreteSampler(
                    [weights[i] for i in ids]
                )
        # Per-channel within-channel video samplers (view-proportional),
        # built lazily and cached: big channels are sampled many times.
        video_views = [v.views for v in videos]
        channel_video_sampler: Dict[int, DiscreteSampler] = {}

        def pick_video_of(channel: Channel) -> int:
            sampler = channel_video_sampler.get(channel.channel_id)
            if sampler is None:
                sampler = DiscreteSampler([video_views[v] for v in channel.video_ids])
                channel_video_sampler[channel.channel_id] = sampler
            return channel.video_ids[sampler.sample(rng)]

        # Attention across a user's interests is itself Zipf-skewed: a
        # gamer with eight interests still spends most time on Gaming.
        # This skew is what concentrates co-subscription inside
        # categories and produces the Fig 10 clusters.
        interest_attention: Dict[int, DiscreteSampler] = {}

        def attention_sampler(k: int) -> DiscreteSampler:
            sampler = interest_attention.get(k)
            if sampler is None:
                sampler = DiscreteSampler(zipf_weights(k, cfg.interest_zipf))
                interest_attention[k] = sampler
            return sampler

        users: List[User] = []
        owner_of = {c.owner_user_id: c.channel_id for c in channels}
        for user_id in range(cfg.num_users):
            user = User(user_id=user_id, owned_channel_id=owner_of.get(user_id, -1))
            # 1. latent interests, ordered by preference ----------------------
            want = self._draw_interest_count(rng)
            latent: List[int] = []
            guard = 0
            while len(latent) < want and guard < 20 * want:
                cat = cat_sampler.sample(rng)
                if cat not in latent and cat in per_category_ids:
                    latent.append(cat)
                guard += 1
            if not latent:
                latent.append(next(iter(per_category_ids)))
            pick_interest = attention_sampler(len(latent))
            # 2. subscriptions -------------------------------------------------
            sub_count = int(round(bounded_pareto(
                rng, cfg.subscription_alpha, cfg.subscription_min, cfg.subscription_max
            )))
            sub_count = min(sub_count, cfg.num_channels)
            guard = 0
            while len(user.subscribed_channel_ids) < sub_count and guard < 30 * sub_count:
                if rng.random() < cfg.in_interest_subscription_prob:
                    cat = latent[pick_interest.sample(rng)]
                    ids = per_category_ids[cat]
                    channel_id = ids[per_category[cat].sample(rng)]
                else:
                    channel_id = channel_sampler.sample(rng)
                user.subscribed_channel_ids.add(channel_id)
                guard += 1
            for channel_id in user.subscribed_channel_ids:
                channels[channel_id].subscriber_ids.add(user_id)
            # 3. favorites (observed interests are *derived* from them,
            #    exactly as Section III-D derives C_u) ------------------------
            fav_count = max(1, int(round(rng.lognormvariate(
                math.log(cfg.mean_favorites), 0.5
            ))))
            subscribed = list(user.subscribed_channel_ids)
            p_sub = cfg.favorite_from_subscription_prob
            p_int = p_sub + cfg.favorite_from_interest_prob
            for _ in range(fav_count):
                roll = rng.random()
                if subscribed and roll < p_sub:
                    channel = channels[rng.choice(subscribed)]
                elif roll < p_int:
                    cat = latent[pick_interest.sample(rng)]
                    ids = per_category_ids[cat]
                    channel = channels[ids[per_category[cat].sample(rng)]]
                else:
                    channel = channels[channel_sampler.sample(rng)]
                picked = pick_video_of(channel)
                user.favorite_video_ids.append(picked)
                user.interest_ids.add(videos[picked].category_id)
            users.append(user)
        return users


def synthesize_trace(config: Optional[TraceConfig] = None) -> TraceDataset:
    """One-call convenience: synthesize with the given (or default) config."""
    return TraceSynthesizer(config or TraceConfig()).synthesize()
