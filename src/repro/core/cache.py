"""Video cache and prefetch store.

Section IV: "SocialTube requires users to maintain a cache of all
videos watched during the period of time between logging in and logging
off (termed a session) to increase video availability; since videos are
generally small, this does not unduly burden users."  The evaluation
additionally persists caches across sessions ("Nodes store their cached
videos for their next session"), so :class:`VideoCache` is unbounded by
default but supports an LRU bound for ablations.

The prefetch store holds *first chunks only* (about 15 KB each, Section
V) and is bounded: "The value of M is determined by each node's cache
size".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.net.message import ChunkSource


class VideoCache:
    """Set of fully cached videos with optional LRU bound.

    ``touch`` refreshes recency on re-watch; with ``max_videos=None``
    the cache never evicts (the paper's setting).
    """

    def __init__(self, max_videos: Optional[int] = None):
        if max_videos is not None and max_videos < 1:
            raise ValueError("max_videos must be >= 1 or None")
        self.max_videos = max_videos
        self._videos: Dict[int, None] = {}
        self.evictions = 0

    @property
    def videos(self) -> Dict[int, None]:
        """The cached ids as the live dict behind the cache, oldest first.

        Read-only to callers: it is the same object for the cache's
        whole life (every method mutates it in place), so a hot path
        may hold it and test ``video_id in videos`` without a call.
        """
        return self._videos

    def __len__(self) -> int:
        return len(self._videos)

    def __contains__(self, video_id: int) -> bool:
        return video_id in self._videos

    def __iter__(self) -> Iterator[int]:
        return iter(self._videos)

    def add(self, video_id: int) -> Optional[int]:
        """Insert (or refresh) a video; returns an evicted id or None."""
        if video_id in self._videos:
            del self._videos[video_id]  # refresh recency
            self._videos[video_id] = None
            return None
        evicted = None
        if self.max_videos is not None and len(self._videos) >= self.max_videos:
            evicted = next(iter(self._videos))
            del self._videos[evicted]
            self.evictions += 1
        self._videos[video_id] = None
        return evicted

    def touch(self, video_id: int) -> bool:
        """Refresh recency; True when the video was cached."""
        if video_id not in self._videos:
            return False
        del self._videos[video_id]
        self._videos[video_id] = None
        return True

    def discard(self, video_id: int) -> None:
        self._videos.pop(video_id, None)

    def clear(self) -> None:
        self._videos.clear()


@dataclass
class PrefetchedChunk:
    """One first chunk in the prefetch store."""

    # Slots: a run holds hundreds of thousands of these at once.
    # (``dataclass(slots=True)`` needs Python 3.10; the package
    # supports 3.9.)
    __slots__ = ("video_id", "source", "fetched_at")

    video_id: int
    source: ChunkSource
    fetched_at: float


class PrefetchStore:
    """Bounded store of prefetched first chunks, oldest-first eviction."""

    def __init__(self, capacity: int = 50):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._chunks: Dict[int, PrefetchedChunk] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, video_id: int) -> bool:
        return video_id in self._chunks

    def video_ids(self):
        """Ids currently in the store, oldest first."""
        return list(self._chunks)

    def store(self, video_id: int, source: ChunkSource, now: float) -> None:
        """Insert unless already present; evict oldest beyond capacity."""
        if video_id in self._chunks:
            return
        if len(self._chunks) >= self.capacity:
            oldest = next(iter(self._chunks))  # insertion order = fetch order
            del self._chunks[oldest]
        self._chunks[video_id] = PrefetchedChunk(video_id, source, now)

    def take(self, video_id: int) -> Optional[PrefetchedChunk]:
        """Consume the chunk for ``video_id``; updates hit/miss counters."""
        chunk = self._chunks.pop(video_id, None)
        if chunk is None:
            self.misses += 1
        else:
            self.hits += 1
        return chunk

    def discard(self, video_id: int) -> None:
        self._chunks.pop(video_id, None)

    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (prefetch accuracy)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
