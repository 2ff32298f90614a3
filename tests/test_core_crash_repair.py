"""Crash-churn on the hierarchical structure: dangling links and repair."""

import random

import pytest

from repro.core.structure import HierarchicalStructure
from repro.net.server import CentralServer


@pytest.fixture()
def structure(tiny_dataset):
    server = CentralServer(tiny_dataset, capacity_bps=50e6, rng=random.Random(3))
    return HierarchicalStructure(
        tiny_dataset,
        server,
        inner_link_limit=5,
        inter_link_limit=10,
        bootstrap_inner_links=3,
    )


def _always_alive(_node_id):
    return True


def _populate(structure, count=8, channel=0):
    for node in range(count):
        structure.enter_channel(node, channel, _always_alive)


class TestCrash:
    def test_crash_leaves_links_dangling(self, structure):
        _populate(structure)
        neighbors = structure.inner.neighbors(2)
        assert neighbors
        structure.crash(2)
        # Unlike leave(): survivors still hold their link to the dead node.
        for neighbor in neighbors:
            assert structure.inner.connected(neighbor, 2)
        assert structure.current_channel(2) is None
        assert 2 in structure.pending_repairs

    def test_crash_unregisters_from_tracker(self, structure):
        _populate(structure)
        structure.crash(2)
        assert 2 not in structure.server.channel_members(0)

    def test_invariants_tolerate_an_in_flight_repair(self, structure):
        _populate(structure)
        structure.crash(2)
        # A dangling link to a pending-repair node is not corruption.
        structure.assert_invariants()


class TestRepair:
    def test_repair_heals_survivors_and_clears_the_dead_node(self, structure):
        _populate(structure)
        neighbors = structure.inner.neighbors(2)
        structure.crash(2)
        repaired = structure.repair_crashed(2, lambda n: n != 2)
        assert repaired == len(neighbors)
        assert structure.link_count(2) == 0
        for neighbor in neighbors:
            assert not structure.inner.connected(neighbor, 2)
        assert 2 not in structure.pending_repairs
        structure.assert_invariants()

    def test_repair_respects_link_limits(self, structure):
        _populate(structure, count=12)
        structure.crash(2)
        structure.repair_crashed(2, lambda n: n != 2)
        for node in range(12):
            assert structure.inner.degree(node) <= 5

    def test_repair_is_idempotent(self, structure):
        _populate(structure)
        structure.crash(2)
        assert structure.repair_crashed(2, lambda n: n != 2) > 0
        assert structure.repair_crashed(2, lambda n: n != 2) == 0

    def test_repair_of_never_crashed_node_is_a_noop(self, structure):
        _populate(structure)
        links_before = structure.link_count(3)
        assert structure.repair_crashed(3, _always_alive) == 0
        assert structure.link_count(3) == links_before

    def test_rejoin_before_repair_makes_the_sweep_a_noop(self, structure):
        """A crashed node that returns inside its repair window is whole
        again -- the pending sweep must not tear its live links down."""
        _populate(structure)
        structure.crash(2)
        structure.rejoin(2, 0, _always_alive)
        assert 2 not in structure.pending_repairs
        links_after_rejoin = structure.link_count(2)
        assert links_after_rejoin > 0
        assert structure.repair_crashed(2, _always_alive) == 0
        assert structure.link_count(2) == links_after_rejoin
        structure.assert_invariants()
