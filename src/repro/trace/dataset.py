"""The trace dataset container.

Holds the synthesized (or crawled) social network and exposes the read
interface shared by the Section III analysis, the central server
(:class:`repro.net.server.CentralServer` duck-types against it), and
the workload generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Set

from repro.trace.entities import Category, Channel, User, Video


class DatasetError(ValueError):
    """Raised when a dataset fails structural validation."""


@dataclass
class TraceDataset:
    """An in-memory YouTube social-network snapshot."""

    categories: Dict[int, Category] = field(default_factory=dict)
    channels: Dict[int, Channel] = field(default_factory=dict)
    videos: Dict[int, Video] = field(default_factory=dict)
    users: Dict[int, User] = field(default_factory=dict)
    crawl_day: int = 0
    seed: int = 0

    # -- summary ----------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    @property
    def num_videos(self) -> int:
        return len(self.videos)

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"TraceDataset: {self.num_users} users, {self.num_channels} channels, "
            f"{self.num_videos} videos, {self.num_categories} categories, "
            f"crawl day {self.crawl_day}"
        )

    # -- catalog interface (consumed by CentralServer & workload) -----------

    def channel_of_video(self, video_id: int) -> int:
        return self.videos[video_id].channel_id

    def category_of_video(self, video_id: int) -> int:
        return self.videos[video_id].category_id

    def category_of_channel(self, channel_id: int) -> int:
        return self.channels[channel_id].category_id

    def videos_of_channel(self, channel_id: int) -> Sequence[int]:
        return self.channels[channel_id].video_ids

    def channels_of_category(self, category_id: int) -> Sequence[int]:
        return self.categories[category_id].channel_ids

    def video_views(self, video_id: int) -> int:
        return self.videos[video_id].views

    def video_length(self, video_id: int) -> float:
        return self.videos[video_id].length_seconds

    def subscribers_of_channel(self, channel_id: int) -> Set[int]:
        return self.channels[channel_id].subscriber_ids

    def subscriptions_of_user(self, user_id: int) -> Set[int]:
        return self.users[user_id].subscribed_channel_ids

    def channel_total_views(self, channel_id: int) -> int:
        """Sum of views over the channel's videos (Fig 5's y-axis)."""
        return sum(self.videos[v].views for v in self.channels[channel_id].video_ids)

    def channel_view_frequency(self, channel_id: int) -> float:
        """Average per-video view frequency of a channel (Fig 3)."""
        video_ids = self.channels[channel_id].video_ids
        if not video_ids:
            return 0.0
        total = sum(self.videos[v].view_frequency(self.crawl_day) for v in video_ids)
        return total / len(video_ids)

    def iter_videos(self) -> Iterable[Video]:
        return self.videos.values()

    def iter_channels(self) -> Iterable[Channel]:
        return self.channels.values()

    def iter_users(self) -> Iterable[User]:
        return self.users.values()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity; raise :class:`DatasetError` if broken."""
        for video in self.videos.values():
            if video.channel_id not in self.channels:
                raise DatasetError(f"video {video.video_id} references missing channel")
            if video.category_id not in self.categories:
                raise DatasetError(f"video {video.video_id} references missing category")
            if video.views < 0 or video.favorites < 0:
                raise DatasetError(f"video {video.video_id} has negative statistics")
            if video.length_seconds <= 0:
                raise DatasetError(f"video {video.video_id} has non-positive length")
        for channel in self.channels.values():
            if channel.category_id not in self.categories:
                raise DatasetError(f"channel {channel.channel_id} references missing category")
            for video_id in channel.video_ids:
                if self.videos[video_id].channel_id != channel.channel_id:
                    raise DatasetError(
                        f"channel {channel.channel_id} lists foreign video {video_id}"
                    )
            for sub in channel.subscriber_ids:
                if sub not in self.users:
                    raise DatasetError(
                        f"channel {channel.channel_id} has unknown subscriber {sub}"
                    )
        for category in self.categories.values():
            for channel_id in category.channel_ids:
                if self.channels[channel_id].category_id != category.category_id:
                    raise DatasetError(
                        f"category {category.category_id} lists foreign channel {channel_id}"
                    )
        for user in self.users.values():
            for channel_id in user.subscribed_channel_ids:
                if channel_id not in self.channels:
                    raise DatasetError(
                        f"user {user.user_id} subscribed to missing channel {channel_id}"
                    )
                if user.user_id not in self.channels[channel_id].subscriber_ids:
                    raise DatasetError(
                        f"subscription {user.user_id}->{channel_id} not mirrored on channel"
                    )
            for video_id in user.favorite_video_ids:
                if video_id not in self.videos:
                    raise DatasetError(
                        f"user {user.user_id} favorites missing video {video_id}"
                    )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string (stable field order)."""
        payload = {
            "crawl_day": self.crawl_day,
            "seed": self.seed,
            "categories": [
                {"category_id": c.category_id, "name": c.name, "channel_ids": c.channel_ids}
                for c in self.categories.values()
            ],
            "channels": [
                {
                    "channel_id": c.channel_id,
                    "owner_user_id": c.owner_user_id,
                    "category_id": c.category_id,
                    "video_ids": c.video_ids,
                    "subscriber_ids": sorted(c.subscriber_ids),
                    "category_mix": c.category_mix,
                }
                for c in self.channels.values()
            ],
            "videos": [
                {
                    "video_id": v.video_id,
                    "channel_id": v.channel_id,
                    "category_id": v.category_id,
                    "upload_day": v.upload_day,
                    "length_seconds": v.length_seconds,
                    "views": v.views,
                    "favorites": v.favorites,
                }
                for v in self.videos.values()
            ],
            "users": [
                {
                    "user_id": u.user_id,
                    "interest_ids": sorted(u.interest_ids),
                    "subscribed_channel_ids": sorted(u.subscribed_channel_ids),
                    "favorite_video_ids": u.favorite_video_ids,
                    "owned_channel_id": u.owned_channel_id,
                }
                for u in self.users.values()
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TraceDataset":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        dataset = cls(crawl_day=payload["crawl_day"], seed=payload["seed"])
        for c in payload["categories"]:
            dataset.categories[c["category_id"]] = Category(
                category_id=c["category_id"],
                name=c["name"],
                channel_ids=list(c["channel_ids"]),
            )
        for c in payload["channels"]:
            dataset.channels[c["channel_id"]] = Channel(
                channel_id=c["channel_id"],
                owner_user_id=c["owner_user_id"],
                category_id=c["category_id"],
                video_ids=list(c["video_ids"]),
                subscriber_ids=set(c["subscriber_ids"]),
                category_mix={int(k): v for k, v in c["category_mix"].items()},
            )
        for v in payload["videos"]:
            dataset.videos[v["video_id"]] = Video(**v)
        for u in payload["users"]:
            dataset.users[u["user_id"]] = User(
                user_id=u["user_id"],
                interest_ids=set(u["interest_ids"]),
                subscribed_channel_ids=set(u["subscribed_channel_ids"]),
                favorite_video_ids=list(u["favorite_video_ids"]),
                owned_channel_id=u["owned_channel_id"],
            )
        return dataset

    def save(self, path: str) -> None:
        """Write the dataset to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "TraceDataset":
        """Read a dataset previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


#: Cluster id for users with no subscriptions and no recorded interests.
UNAFFILIATED = -1


def primary_interest(dataset: TraceDataset, user_id: int) -> int:
    """The category a user's subscriptions concentrate in.

    Majority category over subscribed channels, ties to the lowest
    category id; falls back to the lowest favorite-video interest, then
    to :data:`UNAFFILIATED` for users with neither signal.  The
    community-crash and network-partition fault families group nodes
    by it.
    """
    counts: Dict[int, int] = {}
    for channel_id in dataset.subscriptions_of_user(user_id):
        category = dataset.category_of_channel(channel_id)
        counts[category] = counts.get(category, 0) + 1
    if counts:
        return min(counts, key=lambda c: (-counts[c], c))
    interests = dataset.users[user_id].interest_ids
    if interests:
        return min(interests)
    return UNAFFILIATED
