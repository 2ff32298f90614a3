"""NetTube baseline [Cheng & Liu, INFOCOM 2009] as described in the paper.

Per-video overlays: the viewers of one video form one overlay; a node
that has watched multiple videos stays in multiple overlays ("A node
that has watched multiple videos must stay in multiple overlays and
maintain its links in each of the overlays").  Search: "To find a next
video to watch, the node sends a query to its neighbors within two
hops; if the video is not found, the user resorts to the server."
Prefetching: "a node randomly chooses the videos its neighbors have
watched to prefetch."

The maintenance-overhead pathology the paper measures (Fig 18) falls
out naturally: each watched video adds up to ``links_per_overlay``
links, and within a session the link count grows roughly linearly with
videos watched, while SocialTube's stays near ``N_l + N_h``.
"""

from __future__ import annotations

from collections import defaultdict
from random import Random
from typing import Dict, List, Set

from repro.baselines.protocol import VodProtocol
from repro.net.message import ChunkSource, LookupResult
from repro.net.server import CentralServer
from repro.overlay.flood import ttl_flood
from repro.overlay.links import LinkTable
from repro.sim.rng import shuffle_in_place
from repro.trace.dataset import TraceDataset


class NetTubeProtocol(VodProtocol):
    """Per-video overlay P2P video sharing."""

    name = "NetTube"
    uses_cache = True

    def __init__(
        self,
        dataset: TraceDataset,
        server: CentralServer,
        rng: Random,
        links_per_overlay: int = 5,
        search_hops: int = 2,
        prefetch_window: int = 3,
    ):
        super().__init__(dataset, server, rng)
        if links_per_overlay < 1:
            raise ValueError("links_per_overlay must be >= 1")
        if prefetch_window < 0:
            raise ValueError("prefetch_window must be >= 0")
        self.links_per_overlay = links_per_overlay
        self.search_hops = search_hops
        #: Videos prefetched per watch; 0 turns prefetching off.
        self.prefetch_window = prefetch_window
        #: One link table per video overlay, created on demand.
        self._overlays: Dict[int, LinkTable] = {}
        #: The overlays each node currently belongs to.
        self._memberships: Dict[int, Set[int]] = defaultdict(set)
        #: Per node, its neighbors over all its overlays, deduplicated and
        #: unfiltered (see :meth:`_union_neighbors`).  A node's entry is
        #: dropped whenever one of its memberships or link rows changes.
        self._raw_unions: Dict[int, List[int]] = {}

    # -- helpers -------------------------------------------------------------

    def _overlay(self, video_id: int) -> LinkTable:
        table = self._overlays.get(video_id)
        if table is None:
            table = LinkTable(self.links_per_overlay)
            self._overlays[video_id] = table
        return table

    def _union_neighbors(self, node_id: int) -> List[int]:
        """All reachable live neighbors across every overlay of the node.

        Redundant links to the same peer in different overlays collapse
        to one entry for forwarding purposes, but each still *counts*
        in :meth:`link_count` -- that redundancy is exactly the overhead
        the paper criticises ("two nodes may need to maintain redundant
        links for different per-video overlays though one link is
        sufficient").

        The deduplicated union (membership-set order, then link order)
        is kept per node until one of its memberships or link rows
        changes; liveness and reachability are applied on each read.
        Both depend only on the neighbor, so filtering after
        deduplication keeps the order of filtering before it.
        """
        raw = self._raw_unions.get(node_id)
        if raw is None:
            seen: Dict[int, None] = {}
            overlays = self._overlays
            for video_id in self._memberships.get(node_id, ()):
                seen.update(overlays[video_id].table.get(node_id, ()))
            raw = self._raw_unions[node_id] = list(seen)
        online = self._online
        guard = self.partition_guard
        if guard is None:
            return [n for n in raw if n in online]
        return [n for n in raw if n in online and guard(node_id, n)]

    def _connect(self, table: LinkTable, a: int, b: int, evict: bool) -> None:
        """``table.connect`` that drops the cached unions it changes.

        A link that forms rewrites the rows of ``a`` and ``b``, and an
        evicting connect also the row of each full endpoint's oldest
        neighbor.
        """
        rows = table.table
        la = rows.get(a, ())
        if b not in la:
            lb = rows.get(b, ())
            capacity = table.capacity
            if evict or (len(la) < capacity and len(lb) < capacity):
                forget = self._raw_unions.pop
                forget(a, None)
                forget(b, None)
                if len(la) >= capacity:
                    forget(next(iter(la)), None)
                if len(lb) >= capacity and a not in lb:
                    forget(next(iter(lb)), None)
        table.connect(a, b, evict=evict)

    def _disconnect(self, table: LinkTable, a: int, b: int) -> None:
        """``table.disconnect`` that drops both endpoints' cached unions."""
        forget = self._raw_unions.pop
        forget(a, None)
        forget(b, None)
        table.disconnect(a, b)

    def _join_overlay(self, user_id: int, video_id: int) -> None:
        """Join a video's overlay: link to tracker-picked members."""
        table = self._overlay(video_id)
        self._memberships[user_id].add(video_id)
        self._raw_unions.pop(user_id, None)
        self.server.register_video_overlay_member(video_id, user_id)
        needed = self.links_per_overlay - table.degree(user_id)
        if needed <= 0:
            return
        picks = self.server.random_video_overlay_members(
            video_id, needed + 2, exclude=user_id
        )
        for pick in picks:
            if table.degree(user_id) >= self.links_per_overlay:
                break
            if self.is_alive(pick):
                self._connect(table, user_id, pick, evict=True)

    # -- lifecycle ----------------------------------------------------------------

    def on_session_start(self, user_id: int) -> None:
        peer = self.state(user_id)
        peer.online = True
        self.server.node_online(user_id)
        # A NetTube node starts its session outside all overlays and
        # accumulates memberships as it watches (Fig 18: "start out
        # with few links but rapidly accumulate more").

    def on_session_end(self, user_id: int) -> None:
        peer = self.state(user_id)
        forget = self._raw_unions.pop
        for video_id in list(self._memberships.get(user_id, ())):
            table = self._overlay(video_id)
            for neighbor in table.table.get(user_id, ()):
                forget(neighbor, None)
            table.drop_all(user_id)
            self.server.unregister_video_overlay_member(video_id, user_id)
        self._memberships.pop(user_id, None)
        forget(user_id, None)
        peer.online = False
        self.server.node_offline(user_id)

    def on_crash(self, user_id: int) -> None:
        """Abrupt death: per-video overlay links stay dangling.

        The tracker purge (``node_offline``) still happens -- the server
        notices the dead TCP connection -- but no goodbye reaches the
        overlay neighbors, so every per-video link the node held lingers
        in the survivors' tables until :meth:`repair_after_crash` (or a
        survivor's own probe cycle) removes it.
        """
        peer = self.state(user_id)
        peer.online = False
        self.server.node_offline(user_id)

    def repair_after_crash(self, user_id: int) -> int:
        """Sweep the dead node's links out of every overlay it was in.

        Survivors whose link budget freed up refill on their next probe
        cycle.  A no-op when the node rejoined before the repair window
        elapsed (it kept its memberships, so its links are live again).
        """
        if self.is_alive(user_id):
            return 0
        repaired = 0
        for video_id in sorted(self._memberships.get(user_id, ())):
            table = self._overlay(video_id)
            for neighbor in table.neighbors(user_id):
                self._disconnect(table, user_id, neighbor)
                if self.is_alive(neighbor):
                    repaired += 1
        self._memberships.pop(user_id, None)
        return repaired

    # -- search ---------------------------------------------------------------------

    def locate(self, user_id: int, video_id: int) -> LookupResult:
        peer = self.state(user_id)
        if peer.has_video(video_id):
            return LookupResult(video_id=video_id, from_cache=True)
        is_holder = self.online_holder(video_id)

        # A node's *first* request after login goes to the server, which
        # directs it to providers in the video's overlay ("When a node
        # requests a video for the first time, it sends its request to
        # the server, which directs it to connect to the providers in
        # the overlay of the video").
        if not self._memberships.get(user_id):
            members = self.server.random_video_overlay_members(
                video_id, 2, exclude=user_id
            )
            for member in members:
                if self.can_reach(user_id, member) and is_holder(member):
                    return LookupResult(
                        video_id=video_id,
                        provider_id=member,
                        hops=1,
                        peers_contacted=len(members),
                    )
            return LookupResult(video_id=video_id, from_server=True, hops=0)

        # Subsequent requests: two-hop query across the union of the
        # node's overlay links; on a miss "the user resorts to the
        # server", which serves the video itself.
        with self.tracer.span(
            "flood.search", node=user_id, video=video_id, level="video-overlays"
        ):
            result = ttl_flood(
                requester=user_id,
                start_neighbors=self._union_neighbors(user_id),
                neighbors_of=self._union_neighbors,
                is_holder=is_holder,
                ttl=self.search_hops,
                tracer=self.tracer,
            )
        if result.success:
            return LookupResult(
                video_id=video_id,
                provider_id=result.found,
                hops=result.hops,
                peers_contacted=result.contacted,
                query_path=result.path,
            )
        return LookupResult(
            video_id=video_id,
            from_server=True,
            hops=self.search_hops,
            peers_contacted=result.contacted,
        )

    def on_watch_started(self, user_id: int, video_id: int) -> None:
        super().on_watch_started(user_id, video_id)
        # Watching a video makes the node a member of its overlay; it
        # remains there (providing the video) until it logs off.
        self._join_overlay(user_id, video_id)

    def on_maintenance(self, user_id: int) -> None:
        """Probe-cycle repair: prune dead links and refill each overlay."""
        if not self.state(user_id).online:
            return
        for video_id in self._memberships.get(user_id, ()):
            table = self._overlay(video_id)
            for neighbor in table.neighbors(user_id):
                if not self.is_alive(neighbor):
                    self._disconnect(table, user_id, neighbor)
            needed = self.links_per_overlay - table.degree(user_id)
            if needed <= 0:
                continue
            picks = self.server.random_video_overlay_members(
                video_id, needed + 1, exclude=user_id
            )
            for pick in picks:
                if table.degree(user_id) >= self.links_per_overlay:
                    break
                if self.is_alive(pick):
                    self._connect(table, user_id, pick, evict=False)

    def reannounce(self, user_id: int) -> int:
        """Tracker recovery: re-file presence plus every overlay membership.

        NetTube pays for its per-video tracker state here too: a node in
        many overlays files one report per overlay (sorted for
        determinism), the same linear-in-videos-watched overhead the
        paper criticises in the maintenance plane.
        """
        count = super().reannounce(user_id)
        if not count:
            return 0
        for video_id in sorted(self._memberships.get(user_id, ())):
            self.server.register_video_overlay_member(video_id, user_id)
            count += 1
        return count

    # -- prefetching -----------------------------------------------------------------

    def select_prefetch(self, user_id: int, video_id: int) -> List[int]:
        """Random videos from the neighbors' caches (NetTube's strategy)."""
        if not self.prefetch_window:
            return []
        cache_of = self._cache_of
        pool: Set[int] = set()
        for neighbor in self._union_neighbors(user_id):
            pool.update(cache_of[neighbor])
        pool.difference_update(cache_of[user_id])
        pool.difference_update(self.state(user_id).prefetched.video_ids())
        pool.discard(video_id)
        if not pool:
            return []
        picks = sorted(pool)
        shuffle_in_place(self.rng.getrandbits, picks)
        return picks[: self.prefetch_window]

    def prefetch_source(self, user_id: int, video_id: int) -> ChunkSource:
        """Prefetch pulls from the neighbor whose cache offered the video."""
        is_holder = self.online_holder(video_id)
        for neighbor in self._union_neighbors(user_id):
            if is_holder(neighbor):
                return ChunkSource.PREFETCH_PEER
        return ChunkSource.PREFETCH_SERVER

    # -- metrics -------------------------------------------------------------------------

    def link_count(self, user_id: int) -> int:
        """Sum of per-overlay links (redundant links counted, as deployed)."""
        return sum(
            self._overlay(video_id).degree(user_id)
            for video_id in self._memberships.get(user_id, ())
        )
