"""The SocialTube protocol (Section IV).

Ties together the two-level hierarchical structure, Algorithm 1's
search, and channel-facilitated prefetching behind the common
:class:`repro.baselines.protocol.VodProtocol` interface.

Algorithm 1 (per node ``u_i`` requesting video ``v_i``)::

    if no channel peers: ask server for peers (join); if channel
        overlay empty, server serves the video
    REQUEST(C_i, K_i):
        flood query with TTL over inner-links (channel peers C_i)
        if not found: flood with TTL through inter-links (category
            peers K_i), each forwarding inside its own channel overlay
        if still not found: request the video from the server
"""

from __future__ import annotations

from random import Random
from typing import Collection, List

from repro.baselines.protocol import VodProtocol
from repro.core.prefetch import ChannelPrefetcher
from repro.core.structure import HierarchicalStructure
from repro.net.message import ChunkSource, LookupResult
from repro.net.server import CentralServer
from repro.overlay.flood import ttl_flood
from repro.trace.dataset import TraceDataset


class SocialTubeProtocol(VodProtocol):
    """Interest-based per-community hierarchical P2P video sharing."""

    name = "SocialTube"
    uses_cache = True

    def __init__(
        self,
        dataset: TraceDataset,
        server: CentralServer,
        rng: Random,
        inner_link_limit: int = 5,
        inter_link_limit: int = 10,
        ttl: int = 2,
        prefetch_window: int = 3,
    ):
        super().__init__(dataset, server, rng)
        self.ttl = ttl
        self.structure = HierarchicalStructure(
            dataset,
            server,
            inner_link_limit=inner_link_limit,
            inter_link_limit=inter_link_limit,
        )
        self.prefetcher = ChannelPrefetcher(server, window=prefetch_window)
        #: Every node's inner / inter link dict, read in place.
        self._inner_links = self.structure.inner.table
        self._inter_links = self.structure.inter.table

    # -- helpers ------------------------------------------------------------

    def _alive_neighbors(self, node_id: int, links: Collection[int]) -> List[int]:
        """Filter dead neighbors, repairing links lazily (Section IV-A:
        failed neighbors are removed and replaced).

        ``links`` is the node's link dict, in link order.  A neighbor
        cut off by a network partition is *skipped*, not dropped: the
        peer is alive, only unreachable, and the link is live again the
        moment the partition heals.
        """
        online = self._online
        alive = [neighbor for neighbor in links if neighbor in online]
        if len(alive) < len(links):
            # ``drop_dead_neighbor`` deletes from ``links``: gather first.
            for neighbor in [n for n in links if n not in online]:
                self.structure.drop_dead_neighbor(node_id, neighbor)
        guard = self.partition_guard
        if guard is not None:
            alive = [neighbor for neighbor in alive if guard(node_id, neighbor)]
        return alive

    def _alive_inner_neighbors(self, node_id: int) -> List[int]:
        """The node's live, reachable inner-neighbors (a flood's next hops)."""
        return self._alive_neighbors(node_id, self._inner_links.get(node_id, ()))

    # -- lifecycle --------------------------------------------------------------

    def on_session_start(self, user_id: int) -> None:
        peer = self.state(user_id)
        peer.online = True
        self.server.node_online(user_id)
        # The node enters an overlay on its first video request of the
        # session (it does not know the channel yet); rejoin logic runs
        # in ensure_in_channel.

    def on_session_end(self, user_id: int) -> None:
        peer = self.state(user_id)
        self.structure.leave(user_id)
        peer.online = False
        self.server.node_offline(user_id)

    def on_crash(self, user_id: int) -> None:
        """Abrupt death: neighbors' links to the node stay dangling.

        Unlike :meth:`on_session_end`, the dead node sends no goodbye,
        so its inner/inter links linger in the survivors' tables until
        the repair sweep (or a survivor's own probe cycle) removes them
        -- the failure mode Section IV-A's probe cycle exists to heal.
        """
        peer = self.state(user_id)
        self.structure.crash(user_id)
        peer.online = False
        self.server.node_offline(user_id)

    def repair_after_crash(self, user_id: int) -> int:
        """Sweep the dead node's dangling links; survivors re-link.

        Returns the number of surviving neighbors repaired.  A no-op
        when the node rejoined before the repair window elapsed (its
        old links are live again).
        """
        return self.structure.repair_crashed(user_id, self.is_alive)

    def ensure_in_channel(self, user_id: int, channel_id: int) -> None:
        """Place the node in the right channel overlay before a request."""
        current = self.structure.current_channel(user_id)
        if current == channel_id:
            return
        if current is None:
            # First request after login: try previous neighbors first.
            self.structure.rejoin(user_id, channel_id, self.is_alive)
        else:
            self.structure.enter_channel(user_id, channel_id, self.is_alive)

    # -- Algorithm 1 -----------------------------------------------------------------

    def locate(self, user_id: int, video_id: int) -> LookupResult:
        # Joining the channel overlay happens on every request -- even a
        # cache hit keeps the node registered where other subscribers
        # can find it and its cache.
        channel_id = self.dataset.channel_of_video(video_id)
        self.ensure_in_channel(user_id, channel_id)

        peer = self.state(user_id)
        if peer.has_video(video_id):
            return LookupResult(video_id=video_id, from_cache=True)

        # Both floods walk channel overlays and look for the same video.
        neighbors_of = self._alive_inner_neighbors
        is_holder = self.online_holder(video_id)

        # Phase 1: flood the channel overlay over inner-links.
        inner = neighbors_of(user_id)
        with self.tracer.span(
            "flood.search", node=user_id, video=video_id, level="inner"
        ):
            result = ttl_flood(
                requester=user_id,
                start_neighbors=inner,
                neighbors_of=neighbors_of,
                is_holder=is_holder,
                ttl=self.ttl,
                tracer=self.tracer,
            )
        if result.success:
            self.structure.adopt_inner_provider(user_id, result.found)
            return LookupResult(
                video_id=video_id,
                provider_id=result.found,
                hops=result.hops,
                peers_contacted=result.contacted,
                query_path=result.path,
            )
        contacted = result.contacted

        # Phase 2: forward through inter-links; each inter-neighbor
        # floods inside its own channel overlay with a fresh TTL
        # ("Within each channel overlay, the request is forwarded along
        # TTL hops"), so total depth is 1 (the inter hop) + TTL.
        inter = self._alive_neighbors(user_id, self._inter_links.get(user_id, ()))
        with self.tracer.span(
            "flood.search", node=user_id, video=video_id, level="inter"
        ):
            result = ttl_flood(
                requester=user_id,
                start_neighbors=inter,
                neighbors_of=neighbors_of,
                is_holder=is_holder,
                ttl=self.ttl + 1,
                tracer=self.tracer,
            )
        if result.success:
            self.structure.adopt_inter_provider(user_id, result.found)
            return LookupResult(
                video_id=video_id,
                provider_id=result.found,
                hops=result.hops,
                peers_contacted=contacted + result.contacted,
                query_path=result.path,
            )
        contacted += result.contacted

        # Phase 3: the channel overlay was empty (the node is alone in
        # it), so the join assist applies: the server recommends "a node
        # in each channel overlay (including a node with the video) in
        # the higher-level overlay of the video's interest".
        if len(self.server.channel_members(channel_id)) <= 1:
            category_id = self.dataset.category_of_channel(channel_id)
            holder = self.server.find_holder_in_category(
                category_id,
                # The tracker sees both partition sides; a referral the
                # requester cannot reach is worthless, so reachability
                # joins the holder predicate.
                is_holder=lambda n: self.can_reach(user_id, n) and is_holder(n),
                exclude=user_id,
            )
            if holder is not None:
                self.structure.adopt_inter_provider(user_id, holder)
                return LookupResult(
                    video_id=video_id,
                    provider_id=holder,
                    hops=1,
                    peers_contacted=contacted + 1,
                )

        # Phase 4: the server serves the video.
        return LookupResult(
            video_id=video_id,
            from_server=True,
            hops=2 * self.ttl,  # both levels were exhausted
            peers_contacted=contacted,
        )

    def on_maintenance(self, user_id: int) -> None:
        """Probe-cycle repair: drop dead neighbors, top links back up."""
        if self.is_alive(user_id):
            self.structure.maintain(user_id, self.is_alive)

    def reannounce(self, user_id: int) -> int:
        """Tracker recovery: re-file presence plus channel membership.

        SocialTube's tracker state is cheap by design (Section IV-A:
        subscription reports, not per-video watch reports), so recovery
        is one presence report plus one channel-membership report for
        the overlay the node currently occupies.
        """
        count = super().reannounce(user_id)
        if not count:
            return 0
        channel = self.structure.current_channel(user_id)
        if channel is not None:
            self.server.register_channel_member(channel, user_id)
            count += 1
        return count

    # -- prefetching --------------------------------------------------------------------

    def select_prefetch(self, user_id: int, video_id: int) -> List[int]:
        """Top-popularity videos of the channel currently being watched."""
        peer = self.state(user_id)
        channel_id = self.dataset.channel_of_video(video_id)
        already = set(peer.cache) | set(peer.prefetched.video_ids())
        return self.prefetcher.candidates(
            channel_id, already_have=already, currently_watching=video_id
        )

    def prefetch_source(self, user_id: int, video_id: int) -> ChunkSource:
        """First chunks come from a neighbor when one holds the video."""
        is_holder = self.online_holder(video_id)
        for links in (self._inner_links, self._inter_links):
            for neighbor in links.get(user_id, ()):
                if is_holder(neighbor):
                    return ChunkSource.PREFETCH_PEER
        return ChunkSource.PREFETCH_SERVER

    # -- metrics -------------------------------------------------------------------------

    def link_count(self, user_id: int) -> int:
        return self.structure.link_count(user_id)
