"""Capped neighbor-set management.

A node's overlay links are the thing the paper's maintenance-overhead
metric counts ("the number of links a node must maintain in the
overlays"), so this module keeps the accounting explicit: every add and
remove is visible, insertion order is preserved (useful for oldest-first
eviction), and capacity is enforced at the data-structure level.
"""

from __future__ import annotations

from typing import Dict, List


class LinkTable:
    """Per-node link sets for one overlay level.

    Each node's links are an insertion-ordered ``dict`` (neighbor id ->
    None), oldest link first.  Links are kept *symmetric*: ``connect``
    records the link on both endpoints (each against its own capacity)
    and ``disconnect`` removes both directions, so a node's degree is
    exactly the number of links it maintains -- the Fig 15 / Fig 18
    quantity.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._table: Dict[int, Dict[int, None]] = {}

    @property
    def table(self) -> Dict[int, Dict[int, None]]:
        """Every node's link dict, keyed by node id (read-only to callers).

        Hot paths read a node's links in place with
        ``table.get(node_id, ())``, which, unlike :meth:`links_of`,
        creates no entry.
        """
        return self._table

    def links_of(self, node_id: int) -> Dict[int, None]:
        """The node's live link set (created empty on first use)."""
        links = self._table.get(node_id)
        if links is None:
            links = self._table[node_id] = {}
        return links

    def nodes(self) -> List[int]:
        """Every node id with a registered link set, in sorted order.

        Sorted so that whole-table sweeps (metrics, invariant checks)
        visit nodes in a deterministic order.
        """
        return sorted(self._table)

    def degree(self, node_id: int) -> int:
        return len(self._table.get(node_id, ()))

    def neighbors(self, node_id: int) -> List[int]:
        """Neighbors in link order, oldest first (a copy, safe to mutate)."""
        return list(self._table.get(node_id, ()))

    def connected(self, a: int, b: int) -> bool:
        return b in self._table.get(a, ())

    def connect(self, a: int, b: int, evict: bool = False) -> bool:
        """Create the undirected link a--b.

        Without ``evict`` the link forms only if *both* endpoints have
        spare capacity.  With ``evict`` a full endpoint drops its oldest
        link (symmetrically) to make room: ``a`` first, then ``b``.
        Returns True when the link exists afterwards.
        """
        if a == b:
            raise ValueError("a node cannot link to itself")
        table = self._table
        la = table.get(a)
        if la is None:
            la = table[a] = {}
        lb = table.get(b)
        if lb is None:
            lb = table[b] = {}
        if b in la:
            return True
        capacity = self.capacity
        if not evict and (len(la) >= capacity or len(lb) >= capacity):
            return False
        if len(la) >= capacity:
            evicted = next(iter(la))
            del la[evicted]
            self.links_of(evicted).pop(a, None)
        la[b] = None
        if a not in lb:
            if len(lb) >= capacity:
                evicted = next(iter(lb))
                del lb[evicted]
                self.links_of(evicted).pop(b, None)
            lb[a] = None
        return True

    def disconnect(self, a: int, b: int) -> None:
        table = self._table
        links = table.get(a)
        if links is not None:
            links.pop(b, None)
        links = table.get(b)
        if links is not None:
            links.pop(a, None)

    def drop_all(self, node_id: int) -> None:
        """Remove every link of ``node_id`` (graceful departure notifies
        all neighbors, Section IV-A)."""
        links = self._table.get(node_id)
        if not links:
            return
        for neighbor in list(links):
            self.links_of(neighbor).pop(node_id, None)
        links.clear()
