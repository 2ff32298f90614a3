# shard: module=shard-local -- instances live and die inside one run/shard
"""The central server.

In every system the paper evaluates, a central server remains in the
loop with three roles:

1. **Tracker** -- knows which nodes are online, which channel overlays /
   per-video overlays they belong to, and (for PA-VoD) who is *currently
   watching* each video.  Joining nodes ask it for bootstrap peers.
2. **Source of last resort** -- owns every video; when the P2P search
   fails, the requester downloads from the server's capped upload link.
3. **Popularity oracle** -- YouTube's site knows per-video view counts;
   SocialTube's prefetching consumes the server's periodically published
   per-channel popularity ranking (Section IV-B).  Trace views are
   static, so the run is the publication period: each channel's ranking
   is computed once, on first request, and served from then on.

The server is deliberately protocol-agnostic: the three protocols use
different subsets of the tracker maps.
"""

from __future__ import annotations

from collections import defaultdict
from random import Random
from typing import Dict, List, Optional, Set, Tuple

from repro.net.bandwidth import SharedUploadLink
from repro.obs.tracer import NULL_TRACER


class ServerOverloadError(Exception):
    """Raised by :meth:`CentralServer.serve` when admission control sheds.

    Only possible while a flash-crowd window holds an
    ``admission_limit`` on the server; the requester is expected to
    retry under the plan's :class:`~repro.faults.plan.RetryPolicy` and
    force a degraded admit past the budget.
    """


class CentralServer:
    """Tracker + fallback video source + popularity oracle.

    Parameters
    ----------
    catalog:
        Any object exposing the trace-dataset read interface used here:
        ``channel_of_video(video_id)``, ``videos_of_channel(channel_id)``,
        ``category_of_channel(channel_id)``, ``channels_of_category(cat)``
        and ``video_views(video_id)``.  :class:`repro.trace.TraceDataset`
        satisfies it.
    capacity_bps:
        Total server upload capacity (Table I).
    rng:
        Random stream used for bootstrap-peer selection.
    """

    def __init__(self, catalog, capacity_bps: float, rng: Random):
        self.catalog = catalog
        self.uplink = SharedUploadLink(capacity_bps, owner_id=None)
        self._rng = rng
        # Tracker state ----------------------------------------------------
        self._online: Set[int] = set()
        self._channel_members: Dict[int, Set[int]] = defaultdict(set)
        self._video_overlay_members: Dict[int, Set[int]] = defaultdict(set)
        self._current_watchers: Dict[int, Set[int]] = defaultdict(set)
        # Popularity oracle: per-channel ranking, filled on first request.
        self._ranking: Dict[int, Tuple[int, ...]] = {}
        # Bookkeeping the paper's comparison cares about --------------------
        self.requests_served = 0
        self.tracker_lookups = 0
        self.subscription_reports = 0
        # Infrastructure-fault state (repro.faults v2) ----------------------
        #: While True the tracker is dark: every lookup fails (counted,
        #: no RNG consumed) and registrations are dropped on the floor.
        self.tracker_down = False
        #: Flash-crowd admission control: when > 0, ``serve`` sheds any
        #: request that would exceed this many concurrent transfers.
        self.admission_limit = 0
        self.tracker_lookup_failures = 0
        self.requests_shed = 0
        #: Optional repro.obs tracer (set by the experiment runner).
        #: When truthy, every fallback serve and tracker lookup emits a
        #: trace event -- the raw feed behind the server-load time
        #: series (Figs 9-11 are trends of exactly this quantity).
        self.tracer = NULL_TRACER

    def _count_lookup(self, kind: str) -> None:
        """Count one tracker lookup and trace it (``server.lookup``)."""
        self.tracker_lookups += 1
        if self.tracer:
            self.tracer.event("server.lookup", kind=kind)

    def _count_lookup_failed(self, kind: str) -> None:
        """Count one lookup that hit a dark tracker (``tracker.lookup_failed``)."""
        self.tracker_lookup_failures += 1
        if self.tracer:
            self.tracer.event("tracker.lookup_failed", kind=kind)

    # -- tracker outage (repro.faults v2) -----------------------------------

    def tracker_outage_begin(self) -> None:
        """Take the tracker down *and lose its state*.

        Peer and watch registrations made during the outage are dropped
        (the reports have nowhere to land); recovery is
        :meth:`tracker_outage_end` followed by the runner's
        re-registration sweep, which asks every online peer to
        re-announce through ``protocol.reannounce``.
        """
        self.tracker_down = True
        self._online.clear()
        self._channel_members.clear()
        self._video_overlay_members.clear()
        self._current_watchers.clear()
        if self.tracer:
            self.tracer.event("tracker.outage", phase="begin")

    def tracker_outage_end(self) -> None:
        """Bring the tracker back up (empty-handed) and accept reports again."""
        self.tracker_down = False
        if self.tracer:
            self.tracer.event("tracker.outage", phase="end")

    # -- presence ----------------------------------------------------------

    def node_online(self, node_id: int) -> None:
        """Mark a node online (start of a session)."""
        if self.tracker_down:
            return
        self._online.add(node_id)

    def node_offline(self, node_id: int) -> None:
        """Mark a node offline and purge it from all tracker maps."""
        if self.tracker_down:
            return
        self._online.discard(node_id)
        for members in self._channel_members.values():
            members.discard(node_id)
        for members in self._video_overlay_members.values():
            members.discard(node_id)
        for watchers in self._current_watchers.values():
            watchers.discard(node_id)

    def is_online(self, node_id: int) -> bool:
        return node_id in self._online

    @property
    def online_count(self) -> int:
        return len(self._online)

    # -- channel-overlay tracker (SocialTube) -------------------------------

    def register_channel_member(self, channel_id: int, node_id: int) -> None:
        """Record that a node joined a channel overlay.

        Per Section IV-A, users report subscription changes so the
        server can bootstrap newcomers; this is the (cheap) state
        SocialTube asks the server to keep, versus NetTube's per-video
        watch reports.
        """
        if self.tracker_down:
            return
        self._channel_members[channel_id].add(node_id)
        self.subscription_reports += 1

    def unregister_channel_member(self, channel_id: int, node_id: int) -> None:
        if self.tracker_down:
            return
        self._channel_members[channel_id].discard(node_id)

    def channel_members(self, channel_id: int) -> Set[int]:
        """Online members of one channel overlay (read-only view)."""
        return self._channel_members[channel_id]

    def random_channel_member(
        self, channel_id: int, exclude: Optional[int] = None
    ) -> Optional[int]:
        """A uniformly random online member of the channel overlay."""
        if self.tracker_down:
            self._count_lookup_failed("channel-member")
            return None
        self._count_lookup("channel-member")
        members = self._channel_members.get(channel_id)
        if not members:
            return None
        candidates = list(members)
        if exclude in members:
            candidates.remove(exclude)
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _occupied_channels(self, category_id: int, exclude: Optional[int]) -> List[Set[int]]:
        """Member sets of the category's channels that hold anyone but
        ``exclude``, in uniformly random order (one ``shuffle``)."""
        channel_members = self._channel_members
        occupied = []
        for channel_id in self.catalog.channels_of_category(category_id):
            members = channel_members.get(channel_id)
            if members and (len(members) > 1 or exclude not in members):
                occupied.append(members)
        self._rng.shuffle(occupied)
        return occupied

    def random_members_per_channel_in_category(
        self, category_id: int, exclude: Optional[int] = None, limit: Optional[int] = None
    ) -> List[int]:
        """Random members drawn across the channels of a category.

        This is the bootstrap the server performs for a joining
        SocialTube node: "the server also randomly chooses a node in
        each channel in this channel's higher-level overlay".  The draw
        round-robins over the category's occupied channels in random
        order, one uniformly random member per channel per round, so
        that when the category has fewer occupied channels than
        ``limit``, further members of the same channels are handed out
        rather than returning short.

        Draws are lazy: only the first ``limit`` channels of the random
        order are reachable, the number of rounds ``R`` that reaches
        ``limit`` follows from the pool sizes alone, and each pool draws
        just its first ``min(size, R)`` members without replacement.
        That is the same distribution as shuffling every pool in full.
        """
        if self.tracker_down:
            self._count_lookup_failed("category-bootstrap")
            return []
        self._count_lookup("category-bootstrap")
        pools = self._occupied_channels(category_id, exclude)
        if limit is not None:
            del pools[limit:]
        sizes = [len(members) - (exclude in members) for members in pools]
        rounds = max(sizes, default=0)
        if limit is not None:
            # The fewest rounds that hand out ``limit`` picks.
            reached = 0
            for round_index in range(1, rounds + 1):
                reached += sum(size >= round_index for size in sizes)
                if reached >= limit:
                    rounds = round_index
                    break
        draws = []
        for members, size in zip(pools, sizes):
            candidates = list(members)
            if size < len(candidates):
                candidates.remove(exclude)
            if rounds == 1:
                draws.append((self._rng.choice(candidates),))
            else:
                draws.append(self._rng.sample(candidates, min(size, rounds)))
        picks = [
            draw[round_index]
            for round_index in range(rounds)
            for draw in draws
            if round_index < len(draw)
        ]
        return picks[:limit]

    def find_holder_in_category(
        self,
        category_id: int,
        is_holder,
        exclude: Optional[int] = None,
        scan_limit: int = 200,
    ) -> Optional[int]:
        """A category member that holds the requested video, if any.

        Implements the Section IV-A join assist: when a video's channel
        overlay is empty, "the server randomly chooses a node in each
        channel overlay (including a node with the video) in the
        higher-level overlay of the video's interest".  Only occupied
        channels are put in random order (one ``shuffle``), and each is
        scanned in tracker order; the scan is bounded to keep the
        server's work per request constant.
        """
        if self.tracker_down:
            self._count_lookup_failed("category-holder")
            return None
        self._count_lookup("category-holder")
        scanned = 0
        for members in self._occupied_channels(category_id, exclude):
            for member in members:
                if member == exclude:
                    continue
                scanned += 1
                if is_holder(member):
                    return member
                if scanned >= scan_limit:
                    return None
        return None

    # -- per-video overlay tracker (NetTube) --------------------------------

    def register_video_overlay_member(self, video_id: int, node_id: int) -> None:
        if self.tracker_down:
            return
        self._video_overlay_members[video_id].add(node_id)
        self.subscription_reports += 1

    def unregister_video_overlay_member(self, video_id: int, node_id: int) -> None:
        if self.tracker_down:
            return
        self._video_overlay_members[video_id].discard(node_id)

    def video_overlay_members(self, video_id: int) -> Set[int]:
        return self._video_overlay_members[video_id]

    def random_video_overlay_members(
        self, video_id: int, count: int, exclude: Optional[int] = None
    ) -> List[int]:
        """Up to ``count`` random members of a per-video overlay."""
        if self.tracker_down:
            self._count_lookup_failed("video-overlay")
            return []
        self._count_lookup("video-overlay")
        members = [m for m in self._video_overlay_members.get(video_id, ()) if m != exclude]
        if len(members) <= count:
            return members
        return self._rng.sample(members, count)

    # -- current-watcher tracker (PA-VoD) ------------------------------------

    def watch_started(self, video_id: int, node_id: int) -> None:
        """PA-VoD: a node begins playback and becomes a potential provider."""
        if self.tracker_down:
            return
        self._current_watchers[video_id].add(node_id)

    def watch_finished(self, video_id: int, node_id: int) -> None:
        """PA-VoD: once playback ends the node stops providing the video."""
        if self.tracker_down:
            return
        self._current_watchers[video_id].discard(node_id)

    def current_watchers(self, video_id: int, exclude: Optional[int] = None) -> List[int]:
        if self.tracker_down:
            self._count_lookup_failed("current-watchers")
            return []
        self._count_lookup("current-watchers")
        return [w for w in self._current_watchers.get(video_id, ()) if w != exclude]

    # -- popularity oracle ----------------------------------------------------

    def top_videos_of_channel(self, channel_id: int, count: int) -> List[int]:
        """The ``count`` most-viewed videos of a channel, as a fresh list.

        This is the periodically published popularity feed SocialTube's
        channel-facilitated prefetching ranks on.  Views are static trace
        fields, so the ranking is published once per channel per run: it
        is sorted on the first request (a stable sort, so tied videos
        keep their catalog order) and sliced on every later one.
        """
        ranking = self._ranking.get(channel_id)
        if ranking is None:
            ranking = tuple(
                sorted(
                    self.catalog.videos_of_channel(channel_id),
                    key=self.catalog.video_views,
                    reverse=True,
                )
            )
            self._ranking[channel_id] = ranking
        return list(ranking[:count])

    # -- fallback video source -------------------------------------------------

    def serve(self, bits: float, force: bool = False):
        """Admit one download on the server uplink; returns the grant.

        When a tracer is wired, each serve also emits a
        ``server.request`` event carrying the post-admission load
        (``active`` concurrent transfers) -- the live feed behind the
        "server load relief as overlays warm up" time series.

        While a flash-crowd window holds ``admission_limit`` above
        zero, a request that would push the uplink past the limit is
        *shed* (:class:`ServerOverloadError`, traced as
        ``server.shed``) unless ``force`` is True -- the forced path is
        the retry-budget-spent degraded admit, and failover resumes,
        which may not be bounced back into the failure they are
        recovering from.
        """
        if (
            self.admission_limit > 0
            and not force
            and self.uplink.active_transfers >= self.admission_limit
        ):
            self.requests_shed += 1
            if self.tracer:
                self.tracer.event(
                    "server.shed",
                    bits=bits,
                    active=self.uplink.active_transfers,
                    limit=self.admission_limit,
                )
            raise ServerOverloadError(
                f"admission limit {self.admission_limit} reached "
                f"({self.uplink.active_transfers} active transfers)"
            )
        self.requests_served += 1
        grant = self.uplink.admit(bits)
        if self.tracer:
            self.tracer.event(
                "server.request",
                bits=bits,
                active=self.uplink.active_transfers,
            )
        return grant
