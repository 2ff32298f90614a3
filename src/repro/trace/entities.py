"""Trace entities: categories, channels, videos, users.

These mirror what the paper crawled via the YouTube Data API: for each
video its id, total views, upload date and length; for each user their
subscriptions; channels group a user's uploads; categories ("interests")
group channels (Fig 1's organisation of YouTube videos).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

#: YouTube's interest categories circa the paper's crawl (Fig 1 names a
#: few: Gaming, Sports, Comedy, Science & Technology).  The synthesizer
#: cycles through this list and falls back to numbered names beyond it.
DEFAULT_CATEGORY_NAMES = [
    "Music",
    "Entertainment",
    "Comedy",
    "Gaming",
    "Sports",
    "News & Politics",
    "Science & Technology",
    "Education",
    "Film & Animation",
    "Howto & Style",
    "Travel & Events",
    "Autos & Vehicles",
    "Pets & Animals",
    "People & Blogs",
    "Nonprofits & Activism",
]


@dataclass
class Category:
    """An interest category (the higher level of Fig 1)."""

    category_id: int
    name: str
    channel_ids: List[int] = field(default_factory=list)


@dataclass
class Video:
    """One uploaded video and its crawled statistics."""

    video_id: int
    channel_id: int
    category_id: int
    upload_day: int
    length_seconds: float
    views: int
    favorites: int

    def view_frequency(self, crawl_day: int) -> float:
        """Views per day online: ``total views / days since upload``.

        This is the per-video popularity rate behind Fig 3's per-channel
        averages.  Videos uploaded on the crawl day count one day online.
        """
        days_online = max(1, crawl_day - self.upload_day)
        return self.views / days_online


@dataclass
class Channel:
    """A user's channel: the webpage grouping all their uploads.

    ``category_id`` is the channel's *primary* category;
    ``category_mix`` maps every category its videos touch to the number
    of videos in that category (channels focus on a small number of
    categories -- Fig 11).
    """

    channel_id: int
    owner_user_id: int
    category_id: int
    video_ids: List[int] = field(default_factory=list)
    subscriber_ids: Set[int] = field(default_factory=set)
    category_mix: Dict[int, int] = field(default_factory=dict)

    @property
    def num_videos(self) -> int:
        return len(self.video_ids)

    @property
    def num_subscribers(self) -> int:
        return len(self.subscriber_ids)

    @property
    def num_interests(self) -> int:
        """Number of categories this channel's videos span (Fig 11)."""
        return len(self.category_mix)


@dataclass
class User:
    """A crawled user: interests, subscriptions and favorites.

    ``interest_ids`` are the categories of the user's favorite videos --
    exactly how the paper derives personal interests (Section III-D:
    "We determined each user's personal interests by examining the
    categories of the user's favorite videos").
    """

    user_id: int
    interest_ids: Set[int] = field(default_factory=set)
    subscribed_channel_ids: Set[int] = field(default_factory=set)
    favorite_video_ids: List[int] = field(default_factory=list)
    owned_channel_id: int = -1

    @property
    def num_interests(self) -> int:
        """Number of distinct favorite-video categories (Fig 13)."""
        return len(self.interest_ids)
