"""Runtime overlay-invariant checker and the periodic in-sim hook."""

import random

import pytest

from repro.core.structure import HierarchicalStructure
from repro.lint.invariants import (
    OverlayInvariantError,
    check_link_table,
    check_overlay,
    install_invariant_hook,
)
from repro.net.server import CentralServer
from repro.overlay.links import LinkTable
from repro.sim.engine import EventScheduler


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


def _populated(structure, count=12, channel=0):
    for node_id in range(1, count + 1):
        structure.enter_channel(node_id, channel, _always_alive)
    return structure


def kinds_of(violations):
    return sorted({v.kind for v in violations})


class TestCheckLinkTable:
    def test_clean_table(self):
        table = LinkTable(capacity=3)
        table.connect(1, 2)
        table.connect(1, 3)
        assert check_link_table(table, "inner") == []

    def test_over_capacity_link_set_detected(self):
        # Force a link set beyond its capacity (no public API allows
        # this; the checker guards against exactly such corruption).
        table = LinkTable(capacity=2)
        table.connect(1, 2)
        table.connect(1, 3)
        for extra in (4, 5):
            table.links_of(1)[extra] = None
            table.links_of(extra)[1] = None
        violations = check_link_table(table, "inner")
        assert kinds_of(violations) == ["over-capacity"]
        assert violations[0].node_id == 1
        assert "limit of 2" in violations[0].detail

    def test_tighter_external_capacity_applies(self):
        table = LinkTable(capacity=5)
        table.connect(1, 2)
        table.connect(1, 3)
        violations = check_link_table(table, "inner", capacity=1)
        assert kinds_of(violations) == ["over-capacity"]

    def test_asymmetric_link_detected(self):
        table = LinkTable(capacity=3)
        table.links_of(1)[2] = None  # one-directional edge
        violations = check_link_table(table, "inter")
        assert kinds_of(violations) == ["asymmetric-link"]
        assert violations[0].level == "inter"

    def test_self_link_detected(self):
        table = LinkTable(capacity=3)
        table.links_of(7)[7] = None
        violations = check_link_table(table, "inner")
        assert kinds_of(violations) == ["self-link"]


class TestCheckOverlay:
    def test_populated_overlay_is_clean(self, structure):
        _populated(structure)
        assert check_overlay(structure) == []

    def test_clean_after_churn(self, structure, tiny_dataset):
        _populated(structure)
        structure.leave(3)
        structure.leave(7)
        for node_id in (1, 2, 4, 5):
            structure.maintain(
                node_id, lambda n: structure.channel_of.get(n) is not None
            )
        assert check_overlay(structure) == []

    def test_dangling_neighbor_detected(self, structure):
        _populated(structure)
        # Simulate an abrupt departure that skipped link teardown.
        structure.channel_of[2] = None
        violations = check_overlay(structure)
        assert "dangling-neighbor" in kinds_of(violations)
        assert "departed-node-with-links" in kinds_of(violations)

    def test_over_capacity_inner_detected(self, structure):
        _populated(structure)
        links = structure.inner.links_of(1)
        for extra in range(900, 900 + structure.inner_link_limit):
            links[extra] = None
            structure.inner.links_of(extra)[1] = None
            structure.channel_of[extra] = 0
        violations = check_overlay(structure)
        assert "over-capacity" in kinds_of(violations)

    def test_structure_check_invariants_method(self, structure):
        _populated(structure)
        assert structure.check_invariants() == []
        structure.assert_invariants()  # should not raise

    def test_structure_assert_invariants_raises(self, structure):
        _populated(structure)
        structure.inner.links_of(1)[1] = None  # self-link
        with pytest.raises(OverlayInvariantError) as excinfo:
            structure.assert_invariants()
        assert "self-link" in str(excinfo.value)


class TestPeriodicHook:
    def test_hook_runs_every_period(self, structure):
        _populated(structure)
        sched = EventScheduler()
        hook = install_invariant_hook(sched, structure, period_s=100.0)
        sched.run_until(350.0)
        assert hook.checks_run == 3

    def test_hook_raises_on_violation(self, structure):
        _populated(structure)
        sched = EventScheduler()
        install_invariant_hook(sched, structure, period_s=50.0)
        structure.inner.links_of(1)[1] = None
        with pytest.raises(OverlayInvariantError):
            sched.run_until(60.0)

    def test_hook_reports_via_callback(self, structure):
        _populated(structure)
        sched = EventScheduler()
        seen = []
        install_invariant_hook(
            sched, structure, period_s=50.0, on_violation=seen.append
        )
        structure.inner.links_of(1)[1] = None
        sched.run_until(120.0)
        assert len(seen) == 2  # still rescheduled after recording
        # The injected self-link also pushes node 1 past N_l.
        assert "self-link" in kinds_of(seen[0])

    def test_hook_cancel_stops_checks(self, structure):
        _populated(structure)
        sched = EventScheduler()
        hook = install_invariant_hook(sched, structure, period_s=50.0)
        sched.run_until(60.0)
        hook.cancel()
        sched.run_until(500.0)
        assert hook.checks_run == 1
        assert not hook.active

    def test_nonpositive_period_rejected(self, structure):
        with pytest.raises(ValueError):
            install_invariant_hook(EventScheduler(), structure, period_s=0.0)
