"""Message and result records exchanged between peers, server and harness."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class ChunkSource(enum.Enum):
    """Where a video chunk was obtained from.

    The normalized-peer-bandwidth metric (Fig. 16) is the fraction of
    chunks whose source is :attr:`PEER` (or a peer-sourced
    :attr:`PREFETCH`) out of all chunks received.
    """

    SERVER = "server"
    PEER = "peer"
    CACHE = "cache"
    PREFETCH_PEER = "prefetch_peer"
    PREFETCH_SERVER = "prefetch_server"

    @property
    def is_peer(self) -> bool:
        """True when the bytes were uploaded by another peer."""
        return self in (ChunkSource.PEER, ChunkSource.PREFETCH_PEER)


@dataclass
class LookupResult:
    """Outcome of a provider lookup for one video request.

    ``provider_id`` is None when the request must be served by the
    central server (``from_server=True``) or was satisfied locally
    (``from_cache=True``).  ``hops`` counts overlay forwarding hops the
    query travelled before a provider answered; ``peers_contacted``
    counts distinct peers that processed the query (search overhead).
    """

    video_id: int
    provider_id: Optional[int] = None
    from_server: bool = False
    from_cache: bool = False
    hops: int = 0
    peers_contacted: int = 0
    query_path: List[int] = field(default_factory=list)

    @property
    def from_peer(self) -> bool:
        """True when a peer (not the server, not the local cache) serves."""
        return self.provider_id is not None and not self.from_server and not self.from_cache

    def server_fallback(self) -> "LookupResult":
        """The same search, served by the server: the peer never delivered."""
        return LookupResult(
            self.video_id, from_server=True, hops=self.hops, peers_contacted=self.peers_contacted
        )
