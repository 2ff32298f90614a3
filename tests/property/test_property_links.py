"""Property-based tests for link-table invariants.

The invariant the maintenance-overhead metric depends on: links are
always symmetric and degrees never exceed capacity (without eviction
the cap is hard; with eviction it still holds because eviction makes
room first).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.links import LinkTable

OPS = st.lists(
    st.tuples(
        st.sampled_from(["connect", "connect_evict", "disconnect", "drop_all"]),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=120,
)


def _apply(table, ops):
    """Apply ``ops``; returns the list of ``connect`` results."""
    accepted = []
    for op, a, b in ops:
        if op == "drop_all":
            table.drop_all(a)
        elif a != b:
            if op == "connect":
                accepted.append(table.connect(a, b))
            elif op == "connect_evict":
                accepted.append(table.connect(a, b, evict=True))
            else:
                table.disconnect(a, b)
    return accepted


@given(ops=OPS, capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=150)
def test_links_always_symmetric(ops, capacity):
    table = LinkTable(capacity)
    _apply(table, ops)
    for node in range(10):
        for neighbor in table.neighbors(node):
            assert node in table.neighbors(neighbor), (node, neighbor)


@given(ops=OPS, capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=150)
def test_degree_never_exceeds_capacity(ops, capacity):
    table = LinkTable(capacity)
    _apply(table, ops)
    assert all(table.degree(node) <= capacity for node in range(10))


@given(ops=OPS)
@settings(max_examples=100)
def test_no_self_links_ever(ops):
    table = LinkTable(4)
    _apply(table, ops)
    for node in range(10):
        assert node not in table.neighbors(node)


class _ReferenceLinkSet:
    """The ordered, capped neighbor set the flat table replaced."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.links = {}

    def add(self, node_id, evict=False):
        if node_id in self.links:
            return None
        evicted = None
        if len(self.links) >= self.capacity:
            if not evict:
                raise OverflowError("link set full")
            evicted = next(iter(self.links))
            del self.links[evicted]
        self.links[node_id] = None
        return evicted


class _ReferenceLinkTable:
    """Symmetric links built on ``_ReferenceLinkSet.add(evict=)``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.table = {}

    def links_of(self, node_id):
        return self.table.setdefault(node_id, _ReferenceLinkSet(self.capacity))

    def neighbors(self, node_id):
        return list(self.links_of(node_id).links)

    def connect(self, a, b, evict=False):
        la, lb = self.links_of(a), self.links_of(b)
        if b in la.links:
            return True
        if not evict and (
            len(la.links) >= self.capacity or len(lb.links) >= self.capacity
        ):
            return False
        evicted_a = la.add(b, evict=evict)
        if evicted_a is not None:
            self.links_of(evicted_a).links.pop(a, None)
        evicted_b = lb.add(a, evict=evict)
        if evicted_b is not None:
            self.links_of(evicted_b).links.pop(b, None)
        return True

    def disconnect(self, a, b):
        self.links_of(a).links.pop(b, None)
        self.links_of(b).links.pop(a, None)

    def drop_all(self, node_id):
        for neighbor in self.neighbors(node_id):
            self.links_of(neighbor).links.pop(node_id, None)
        self.links_of(node_id).links.clear()


@given(ops=OPS, capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=200)
def test_neighbor_order_matches_reference_link_set(ops, capacity):
    # Neighbor order decides oldest-first eviction, so it must match the
    # reference after every operation, not just at the end.
    table = LinkTable(capacity)
    reference = _ReferenceLinkTable(capacity)
    for op in ops:
        results = [_apply(t, [op]) for t in (table, reference)]
        assert results[0] == results[1], op
        for node in range(10):
            assert table.neighbors(node) == reference.neighbors(node), (op, node)
