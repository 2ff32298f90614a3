"""TTL-scoped flooding search.

The query primitive of both SocialTube (Algorithm 1: flood inner-links
with a TTL, then inter-links) and NetTube ("sends a query to its
neighbors within two hops").  The flood is a breadth-first expansion:
hop 1 is the requester's own neighbors, each receiver decrements the
TTL and forwards to its neighbors while TTL remains, and the first
holder encountered (in BFS order, i.e. at minimal hop distance) answers.

Per DESIGN.md, the flood is resolved by synchronous graph traversal --
per-hop network latency is priced separately by the harness using the
returned ``path`` -- which keeps the event count tractable without
changing who is found or at how many hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class FloodResult:
    """Outcome of one TTL flood."""

    found: Optional[int] = None
    hops: int = 0
    contacted: int = 0
    #: Requester -> ... -> provider node chain (empty when not found).
    path: List[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.found is not None


def ttl_flood(
    requester: int,
    start_neighbors: Iterable[int],
    neighbors_of: Callable[[int], Iterable[int]],
    is_holder: Callable[[int], bool],
    ttl: int,
    tracer=None,
) -> FloodResult:
    """Flood a query from ``requester`` over an overlay graph.

    Parameters
    ----------
    requester:
        The querying node (never considered a holder; excluded from
        forwarding).
    start_neighbors:
        The nodes that receive the query at hop 1 (the requester's
        links in the overlay being searched).
    neighbors_of:
        Adjacency of the overlay being flooded.  Should only return
        *online* nodes; offline neighbors are the caller's concern
        (lazy failure detection).
    is_holder:
        Whether a node can serve the requested video.
    ttl:
        Maximum number of forwarding hops (the paper uses TTL=2).
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`.  When truthy, each
        hop level becomes a ``flood.hop`` span (levels are visited in
        order, so hop spans never interleave), a found holder
        emits ``flood.found``, and an exhausted flood emits
        ``flood.ttl_exhausted``.  The default/``NULL_TRACER`` case
        skips all packing -- the search loop stays allocation-free.

    Returns the provider at minimal hop distance, the hop count, the
    number of distinct peers that processed the query, and the node
    path from requester to provider for latency pricing.
    """
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    visited: Dict[int, Optional[int]] = {requester: None}
    level: List[int] = []
    for neighbor in start_neighbors:
        if neighbor in visited:
            continue
        visited[neighbor] = requester
        level.append(neighbor)
    contacted = 0
    hop_span = None
    depth = 1
    # One pass per hop level: every node of ``level`` sits at ``depth``,
    # and the nodes it discovers form the next level in discovery order,
    # so ``is_holder`` and ``neighbors_of`` see the nodes in BFS order.
    while level:
        if tracer:
            tracer.end(hop_span)
            hop_span = tracer.begin("flood.hop", node=requester, depth=depth)
        forward = depth < ttl
        next_level: List[int] = []
        for node in level:
            contacted += 1
            if is_holder(node):
                path = [node]
                parent = visited[node]
                while parent is not None:
                    path.append(parent)
                    parent = visited[parent]
                path.reverse()
                if tracer:
                    tracer.end(hop_span)
                    tracer.event(
                        "flood.found", node=requester, holder=node,
                        depth=depth, contacted=contacted,
                    )
                return FloodResult(found=node, hops=depth, contacted=contacted, path=path)
            if forward:
                for neighbor in neighbors_of(node):
                    if neighbor in visited:
                        continue
                    visited[neighbor] = node
                    next_level.append(neighbor)
        level = next_level
        depth += 1
    if tracer:
        tracer.end(hop_span)
        tracer.event(
            "flood.ttl_exhausted", node=requester, ttl=ttl, contacted=contacted
        )
    return FloodResult(found=None, hops=ttl, contacted=contacted, path=[])
