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
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.net.bandwidth import SharedUploadLink
from repro.obs.tracer import NULL_TRACER
from repro.sim.rng import sample_from_pool, shuffle_in_place


def rounds_to_reach(sizes: List[int], limit: Optional[int]) -> int:
    """The fewest round-robin rounds over pools of ``sizes`` that hand
    out ``limit`` picks: the smallest ``R`` with
    ``sum(min(size, R) for size in sizes) >= limit``.  When the pools
    hold fewer than ``limit`` members, or ``limit`` is None, that is
    every round the largest pool holds.

    One pass over the sorted sizes: between two consecutive sizes the
    sum grows by one per pool not yet exhausted per round, so the
    crossing round is a ceiling division.
    """
    if limit is None or sum(sizes) < limit:
        return max(sizes, default=0)
    rounds = 0
    handed = 0  # members of the pools exhausted before ``rounds``
    remaining = len(sizes)
    for size in sorted(sizes):
        rounds = -(-(limit - handed) // remaining)
        if rounds <= size:
            break
        handed += size
        remaining -= 1
    return rounds


class MemberPool(dict):
    """The online members of one channel overlay, drawable by slot.

    A dict from member id to its slot in :attr:`ids`, the list of the
    members in slot order: insertion order, except that a removal moves
    the last member into the freed slot.  ``len``, truth tests and
    ``in`` are the dict's own; a uniform draw is one index into
    ``ids``, so its cost does not grow with the pool, and which member
    an index names depends only on the add/remove sequence, never on
    set hashing.
    """

    __slots__ = ("ids",)

    def __init__(self) -> None:
        super().__init__()
        self.ids: List[int] = []

    def add(self, node_id: int) -> None:
        if node_id not in self:
            self[node_id] = len(self.ids)
            self.ids.append(node_id)

    def discard(self, node_id: int) -> None:
        slot = self.pop(node_id, None)
        if slot is None:
            return
        ids = self.ids
        last = ids.pop()
        if last != node_id:
            ids[slot] = last
            self[last] = slot


#: One container of a tracker map: a channel's pool, or a video's set.
_Members = Union[MemberPool, Set[int]]

#: What a read of a tracker map returns for a key nobody registered.
_NO_MEMBERS: FrozenSet[int] = frozenset()


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
        self._channel_members: Dict[int, MemberPool] = defaultdict(MemberPool)
        self._video_overlay_members: Dict[int, Set[int]] = defaultdict(set)
        self._current_watchers: Dict[int, Set[int]] = defaultdict(set)
        #: Per node, the member containers of the three maps above that
        #: hold it, keyed by ``id``: the offline purge touches only these.
        self._memberships: Dict[int, Dict[int, _Members]] = defaultdict(dict)
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
        self._memberships.clear()
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
        """Mark a node offline and purge it from all tracker maps.

        The purge visits only the member sets that hold the node, so
        it costs O(the node's memberships), not O(channels + videos).
        """
        if self.tracker_down:
            return
        self._online.discard(node_id)
        for members in self._memberships.pop(node_id, {}).values():
            members.discard(node_id)

    def _add_member(self, members: _Members, node_id: int) -> None:
        """Add ``node_id`` to one tracker member container, remembering it."""
        members.add(node_id)
        self._memberships[node_id][id(members)] = members

    def _remove_member(self, members: Optional[_Members], node_id: int) -> None:
        """Remove ``node_id`` from one tracker member container (None: a
        key nobody registered) and forget the container."""
        if members is None:
            return
        members.discard(node_id)
        record = self._memberships.get(node_id)
        if record:
            record.pop(id(members), None)

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
        self._add_member(self._channel_members[channel_id], node_id)
        self.subscription_reports += 1

    def unregister_channel_member(self, channel_id: int, node_id: int) -> None:
        if self.tracker_down:
            return
        self._remove_member(self._channel_members.get(channel_id), node_id)

    def channel_members(self, channel_id: int) -> AbstractSet[int]:
        """Online members of one channel overlay (read-only view)."""
        pool = self._channel_members.get(channel_id)
        return _NO_MEMBERS if pool is None else pool.keys()

    def random_channel_member(
        self, channel_id: int, exclude: Optional[int] = None
    ) -> Optional[int]:
        """A uniformly random online member of the channel overlay."""
        if self.tracker_down:
            self._count_lookup_failed("channel-member")
            return None
        self._count_lookup("channel-member")
        pool = self._channel_members.get(channel_id)
        if not pool:
            return None
        ids = pool.ids
        n = len(ids)
        # Draw among the other n - 1 slots; the excluded slot stands
        # for the last one.
        excluded = pool.get(exclude)
        if excluded is not None:
            n -= 1
            if not n:
                return None
        # ``_randbelow(n)`` inlined (DESIGN.md §6, "Draw parity").
        getrandbits = self._rng.getrandbits
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        return ids[n] if j == excluded else ids[j]

    def _occupied_channels(self, category_id: int, exclude: Optional[int]) -> List[MemberPool]:
        """Pools of the category's channels that hold anyone but
        ``exclude``, in catalog order: a fresh list the caller may reorder."""
        return [
            pool
            for pool in map(
                self._channel_members.get, self.catalog.channels_of_category(category_id)
            )
            if pool and (len(pool) > 1 or exclude not in pool)
        ]

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

        Draws are lazy.  When at least ``limit`` channels are occupied,
        one round makes ``limit``: a uniform ordered sample of ``limit``
        channels, then one slot draw in each.  Otherwise the channels
        are shuffled, the number of rounds ``R`` that reaches ``limit``
        follows from the pool sizes alone, and each pool draws just its
        first ``min(size, R)`` members without replacement.  Both are
        the distribution of shuffling every channel and every pool in
        full.
        """
        if self.tracker_down:
            self._count_lookup_failed("category-bootstrap")
            return []
        self._count_lookup("category-bootstrap")
        pools = self._occupied_channels(category_id, exclude)
        # The stdlib draws inlined (DESIGN.md §6, "Draw parity").
        getrandbits = self._rng.getrandbits
        if limit is not None and len(pools) >= limit:
            picks = []
            for pool in sample_from_pool(getrandbits, pools, limit):
                # ``random_channel_member``'s draw: the excluded slot
                # stands for the last one.
                ids = pool.ids
                n = len(ids)
                excluded = pool.get(exclude)
                if excluded is not None:
                    n -= 1
                bits = n.bit_length()
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                picks.append(ids[n] if j == excluded else ids[j])
            return picks
        shuffle_in_place(getrandbits, pools)
        sizes = [len(pool) - (exclude in pool) for pool in pools]
        rounds = rounds_to_reach(sizes, limit)
        draws = []
        for pool, n in zip(pools, sizes):
            # A scratch copy of the slots, the last member moved into
            # the excluded one's slot.
            candidates = pool.ids[:]
            if n < len(candidates):
                candidates[pool[exclude]] = candidates[-1]
                candidates.pop()
            draws.append(sample_from_pool(getrandbits, candidates, min(n, rounds)))
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
        scanned in slot order; the scan is bounded to keep the server's
        work per request constant.
        """
        if self.tracker_down:
            self._count_lookup_failed("category-holder")
            return None
        self._count_lookup("category-holder")
        pools = self._occupied_channels(category_id, exclude)
        shuffle_in_place(self._rng.getrandbits, pools)
        scanned = 0
        for pool in pools:
            for member in pool.ids:
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
        self._add_member(self._video_overlay_members[video_id], node_id)
        self.subscription_reports += 1

    def unregister_video_overlay_member(self, video_id: int, node_id: int) -> None:
        if self.tracker_down:
            return
        self._remove_member(self._video_overlay_members.get(video_id), node_id)

    def video_overlay_members(self, video_id: int) -> AbstractSet[int]:
        return self._video_overlay_members.get(video_id, _NO_MEMBERS)

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
        return sample_from_pool(self._rng.getrandbits, members, count)

    # -- current-watcher tracker (PA-VoD) ------------------------------------

    def watch_started(self, video_id: int, node_id: int) -> None:
        """PA-VoD: a node begins playback and becomes a potential provider."""
        if self.tracker_down:
            return
        self._add_member(self._current_watchers[video_id], node_id)

    def watch_finished(self, video_id: int, node_id: int) -> None:
        """PA-VoD: once playback ends the node stops providing the video."""
        if self.tracker_down:
            return
        self._remove_member(self._current_watchers.get(video_id), node_id)

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
