"""Unit tests for link-table management."""

import random

import pytest

from repro.overlay.links import LinkTable


class TestLinkSet:
    """A node's link set: the insertion-ordered dict ``links_of`` returns,
    which the invariant checker reads.  Each case pins its exact
    contents and order on every endpoint; TestLinkTable checks the
    table's derived queries."""

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LinkTable(-1)

    def test_add_and_contains(self):
        table = LinkTable(3)
        table.connect(0, 1)
        assert table.links_of(0) == {1: None}
        assert table.links_of(1) == {0: None}

    def test_duplicate_add_is_noop(self):
        table = LinkTable(2)
        table.connect(0, 1)
        table.connect(0, 2)
        assert table.connect(0, 1, evict=True) is True
        assert list(table.links_of(0)) == [1, 2]  # neither evicted nor moved

    def test_full_connect_refused_without_evict(self):
        table = LinkTable(1)
        table.connect(0, 1)
        assert table.connect(0, 2) is False
        assert list(table.links_of(0)) == [1]
        assert table.links_of(2) == {}

    def test_evict_drops_oldest(self):
        table = LinkTable(2)
        table.connect(0, 1)
        table.connect(0, 2)
        assert table.connect(0, 3, evict=True) is True
        assert list(table.links_of(0)) == [2, 3]
        assert table.links_of(1) == {}

    def test_remove(self):
        table = LinkTable(3)
        for n in (1, 2, 3):
            table.connect(0, n)
        table.disconnect(2, 0)
        assert list(table.links_of(0)) == [1, 3]
        table.disconnect(0, 2)  # already gone: a no-op
        assert list(table.links_of(0)) == [1, 3]
        assert table.links_of(2) == {}

    def test_is_full(self):
        table = LinkTable(2)
        table.connect(0, 1)
        table.connect(0, 2)
        assert table.connect(3, 0) is False
        assert list(table.links_of(0)) == [1, 2]
        assert table.links_of(3) == {}

    def test_members_order_is_insertion(self):
        table = LinkTable(5)
        for n in (5, 3, 9):
            table.connect(0, n)
        table.connect(3, 0)  # relinking keeps the original position
        assert list(table.links_of(0)) == [5, 3, 9]

    def test_clear(self):
        table = LinkTable(3)
        table.connect(0, 1)
        table.connect(2, 1)
        table.drop_all(0)
        assert table.links_of(0) == {}
        assert list(table.links_of(1)) == [2]


class TestLinkTable:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LinkTable(0)

    def test_connect_is_symmetric(self):
        table = LinkTable(3)
        assert table.connect(1, 2)
        assert table.connected(1, 2)
        assert table.connected(2, 1)
        assert table.degree(1) == table.degree(2) == 1

    def test_self_link_rejected(self):
        table = LinkTable(3)
        with pytest.raises(ValueError):
            table.connect(1, 1)

    def test_connect_existing_is_true(self):
        table = LinkTable(3)
        table.connect(1, 2)
        assert table.connect(1, 2) is True
        assert table.degree(1) == 1

    def test_connect_refused_when_either_full(self):
        table = LinkTable(1)
        table.connect(1, 2)
        assert table.connect(1, 3) is False  # node 1 full
        assert table.connect(3, 2) is False  # node 2 full

    def test_connect_with_evict_keeps_symmetry(self):
        table = LinkTable(1)
        table.connect(1, 2)
        assert table.connect(1, 3, evict=True) is True
        # Node 1 evicted its link to 2; node 2 must not still list 1.
        assert not table.connected(2, 1)
        assert table.connected(1, 3)
        assert table.degree(2) == 0

    def test_disconnect(self):
        table = LinkTable(3)
        table.connect(1, 2)
        table.disconnect(1, 2)
        assert table.degree(1) == 0
        assert table.degree(2) == 0

    def test_drop_all_notifies_neighbors(self):
        table = LinkTable(3)
        table.connect(1, 2)
        table.connect(1, 3)
        table.drop_all(1)
        assert table.degree(1) == 0
        assert not table.connected(2, 1)
        assert not table.connected(3, 1)

    def test_neighbors_list(self):
        table = LinkTable(3)
        table.connect(1, 2)
        table.connect(1, 3)
        assert set(table.neighbors(1)) == {2, 3}
        assert table.neighbors(99) == []

    def test_degree_never_exceeds_capacity_without_evict(self):
        table = LinkTable(2)
        rng = random.Random(0)
        for _ in range(100):
            a, b = rng.randrange(10), rng.randrange(10)
            if a != b:
                table.connect(a, b)
        assert all(table.degree(n) <= 2 for n in range(10))
