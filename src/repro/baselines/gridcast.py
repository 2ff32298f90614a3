"""GridCast-style baseline: server-directed assistance + peer caching.

Section II cites GridCast [26]: "GridCast identifies that the single
uploading scheme leads to idling in P2P networks and that multiple
video caching can better reduce the server load."  It sits between
PA-VoD and the overlay systems: peers *cache* watched videos and report
replicas to the tracker (so providers are not limited to concurrent
watchers), but there is no P2P overlay -- every lookup is a tracker
query, and nodes keep no standing links.

Included as a fourth system for the ablation question "how much of
NetTube/SocialTube's gain is caching, and how much is the overlay
search?": GridCast isolates the caching contribution.
"""

from __future__ import annotations

from collections import defaultdict
from random import Random
from typing import Dict, Set

from repro.baselines.protocol import VodProtocol
from repro.net.message import LookupResult
from repro.net.server import CentralServer
from repro.trace.dataset import TraceDataset


class GridCastProtocol(VodProtocol):
    """Tracker-directed peer assistance with multi-video caching."""

    name = "GridCast"
    uses_cache = True

    def __init__(
        self,
        dataset: TraceDataset,
        server: CentralServer,
        rng: Random,
        replicas_per_referral: int = 3,
    ):
        super().__init__(dataset, server, rng)
        if replicas_per_referral < 1:
            raise ValueError("replicas_per_referral must be >= 1")
        self.replicas_per_referral = replicas_per_referral
        #: Online replica registry: video -> nodes holding a cached copy.
        #: (Conceptually server-side state; GridCast's tracker knows
        #: replica placement.  Kept here to keep CentralServer generic.)
        self._replicas: Dict[int, Set[int]] = defaultdict(set)

    # -- lifecycle -----------------------------------------------------------

    def on_session_start(self, user_id: int) -> None:
        peer = self.state(user_id)
        peer.online = True
        self.server.node_online(user_id)
        # Returning nodes re-report their cache to the tracker.
        for video_id in peer.cache:
            self._replicas[video_id].add(user_id)

    def on_session_end(self, user_id: int) -> None:
        peer = self.state(user_id)
        for video_id in peer.cache:
            self._replicas[video_id].discard(user_id)
        peer.online = False
        self.server.node_offline(user_id)

    # -- lookup ------------------------------------------------------------------

    def locate(self, user_id: int, video_id: int) -> LookupResult:
        """Tracker lookup over the replica registry; server on miss."""
        peer = self.state(user_id)
        if peer.has_video(video_id):
            return LookupResult(video_id=video_id, from_cache=True)
        self.server.tracker_lookups += 1
        is_holder = self.online_holder(video_id)
        holders = [
            h
            for h in self._replicas.get(video_id, ())
            if h != user_id and self.can_reach(user_id, h) and is_holder(h)
        ]
        if holders:
            candidates = (
                self.rng.sample(holders, self.replicas_per_referral)
                if len(holders) > self.replicas_per_referral
                else holders
            )
            return LookupResult(
                video_id=video_id,
                provider_id=self.rng.choice(candidates),
                hops=1,
                peers_contacted=len(candidates),
            )
        return LookupResult(video_id=video_id, from_server=True, hops=0)

    def on_watch_started(self, user_id: int, video_id: int) -> None:
        super().on_watch_started(user_id, video_id)
        self._replicas[video_id].add(user_id)

    # -- metrics -------------------------------------------------------------------

    def link_count(self, user_id: int) -> int:
        """No overlay: zero standing links (tracker state only)."""
        return 0

    def replica_count(self, video_id: int) -> int:
        """Online replicas of a video (exposed for tests/ablations)."""
        return len(self._replicas.get(video_id, ()))
