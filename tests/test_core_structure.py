"""Unit tests for the two-level hierarchical structure."""

import random

import pytest

from helpers import table_state
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


def _channels_by_category(dataset):
    """(channel_a, channel_b_same_cat, channel_c_other_cat)."""
    by_cat = {}
    for channel in dataset.iter_channels():
        by_cat.setdefault(channel.category_id, []).append(channel.channel_id)
    same = next(ids for ids in by_cat.values() if len(ids) >= 2)
    other = next(
        ids[0]
        for cat, ids in by_cat.items()
        if ids and ids[0] not in same[:2]
        and cat != next(iter(
            {dataset.category_of_channel(c) for c in same[:2]}
        ))
    )
    return same[0], same[1], other


class TestJoin:
    def test_first_node_joins_empty_channel(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        assert structure.current_channel(1) == 0
        assert structure.link_count(1) == 0  # nobody to link to yet

    def test_second_node_links_to_first(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        assert structure.inner.connected(1, 2)

    def test_reenter_same_channel_is_noop(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        links_before = structure.link_count(2)
        structure.enter_channel(2, 0, _always_alive)
        assert structure.link_count(2) == links_before

    def test_inner_links_capped(self, structure):
        for node in range(20):
            structure.enter_channel(node, 0, _always_alive)
        for node in range(20):
            assert structure.inner.degree(node) <= 5

    def test_registration_with_server(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        assert 1 in structure.server.channel_members(0)


class TestChannelSwitch:
    def test_same_category_demotes_inner_to_inter(self, structure, tiny_dataset):
        ch_a, ch_b, _ = _channels_by_category(tiny_dataset)
        structure.enter_channel(1, ch_a, _always_alive)
        structure.enter_channel(2, ch_a, _always_alive)
        assert structure.inner.connected(1, 2)
        structure.enter_channel(2, ch_b, _always_alive)
        # The old inner neighbor is now an inter neighbor.
        assert not structure.inner.connected(1, 2)
        assert structure.inter.connected(1, 2)

    def test_category_change_drops_links(self, structure, tiny_dataset):
        ch_a, _ch_b, ch_other = _channels_by_category(tiny_dataset)
        structure.enter_channel(1, ch_a, _always_alive)
        structure.enter_channel(2, ch_a, _always_alive)
        structure.enter_channel(2, ch_other, _always_alive)
        assert not structure.inner.connected(1, 2)
        assert not structure.inter.connected(1, 2)

    def test_switch_updates_server_registration(self, structure, tiny_dataset):
        ch_a, ch_b, _ = _channels_by_category(tiny_dataset)
        structure.enter_channel(1, ch_a, _always_alive)
        structure.enter_channel(1, ch_b, _always_alive)
        assert 1 not in structure.server.channel_members(ch_a)
        assert 1 in structure.server.channel_members(ch_b)


class TestLeaveAndRejoin:
    def test_leave_drops_all_links(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        structure.leave(2)
        assert structure.link_count(2) == 0
        assert structure.current_channel(2) is None
        assert not structure.inner.connected(1, 2)

    def test_leave_unregisters_from_server(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.leave(1)
        assert 1 not in structure.server.channel_members(0)

    def test_rejoin_reconnects_previous_neighbors(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        structure.leave(2)
        reconnected = structure.rejoin(2, 0, _always_alive)
        assert reconnected is True
        assert structure.inner.connected(1, 2)

    def test_rejoin_falls_back_when_neighbors_gone(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        structure.leave(2)
        structure.leave(1)
        reconnected = structure.rejoin(2, 0, lambda n: n == 2)
        assert reconnected is False
        assert structure.current_channel(2) == 0


class TestAdoption:
    def test_adopt_inner_provider(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        structure.enter_channel(3, 0, _always_alive)
        structure.inner.disconnect(1, 3)
        assert structure.adopt_inner_provider(1, 3) is True
        assert structure.inner.connected(1, 3)

    def test_adopt_self_rejected(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        assert structure.adopt_inner_provider(1, 1) is False
        assert structure.adopt_inter_provider(1, 1) is False

    def test_adopt_respects_inner_cap(self, structure):
        for node in range(1, 9):
            structure.enter_channel(node, 0, _always_alive)
        # Saturate node 1's inner links.
        for node in range(2, 9):
            if structure.inner.degree(1) < 5:
                structure.inner.connect(1, node, evict=True)
        assert structure.inner.degree(1) == 5
        structure.enter_channel(20, 0, _always_alive)
        structure.inner.disconnect(1, 20)
        assert structure.adopt_inner_provider(1, 20) is False


class TestMaintenance:
    def test_dead_neighbors_pruned(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        structure.maintain(1, lambda n: n != 2)
        assert not structure.inner.connected(1, 2)

    def test_maintenance_tops_up_to_limit(self, structure):
        for node in range(12):
            structure.enter_channel(node, 0, _always_alive)
        structure.maintain(0, _always_alive)
        # Channel has 11 other members; maintenance should reach N_l.
        assert structure.inner.degree(0) == 5

    def test_maintenance_noop_when_not_in_channel(self, structure):
        structure.maintain(42, _always_alive)  # must not raise
        assert structure.link_count(42) == 0

    def test_drop_dead_neighbor(self, structure):
        structure.enter_channel(1, 0, _always_alive)
        structure.enter_channel(2, 0, _always_alive)
        structure.drop_dead_neighbor(1, 2)
        assert not structure.inner.connected(1, 2)


class TestValidation:
    def test_invalid_limits_rejected(self, tiny_dataset):
        server = CentralServer(tiny_dataset, capacity_bps=1e6, rng=random.Random(0))
        with pytest.raises(ValueError):
            HierarchicalStructure(tiny_dataset, server, inner_link_limit=0)
        with pytest.raises(ValueError):
            HierarchicalStructure(tiny_dataset, server, bootstrap_inner_links=-1)

    def test_link_count_sums_levels(self, structure, tiny_dataset):
        ch_a, ch_b, _ = _channels_by_category(tiny_dataset)
        structure.enter_channel(1, ch_a, _always_alive)
        structure.enter_channel(2, ch_b, _always_alive)
        structure.inter.connect(1, 2, evict=True)
        assert structure.link_count(1) == (
            structure.inner.degree(1) + structure.inter.degree(1)
        )


class ConnectEveryPickStructure(HierarchicalStructure):
    """A twin whose inter bootstrap calls ``connect(evict=False)`` for
    every pick, full targets included, and lets the refusal route them
    to the eviction fallback."""

    def _bootstrap_inter(self, node_id, channel_id, category_id, is_alive):
        budget = min(
            self.bootstrap_inter_links,
            self.inter_link_limit - self.inter.degree(node_id),
        )
        if budget <= 0:
            return
        picks = self.server.random_members_per_channel_in_category(
            category_id, exclude=node_id, limit=3 * budget
        )
        added = 0
        full_targets = []
        for pick in picks:
            if added >= budget:
                break
            if pick == node_id or not is_alive(pick):
                continue
            if self.channel_of.get(pick) == channel_id:
                continue
            if self.inter.connect(node_id, pick, evict=False):
                added += 1
            else:
                full_targets.append(pick)
        for pick in full_targets:
            if added >= budget:
                break
            if self.inter.connect(node_id, pick, evict=True):
                added += 1


class TestFullTargetSkip:
    """Skipping ``connect`` for a full inter target leaves every table
    exactly as the refused call would, key order included."""

    def _twins(self, dataset, inter_link_limit=2):
        return [
            cls(
                dataset,
                CentralServer(dataset, capacity_bps=50e6, rng=random.Random(3)),
                inner_link_limit=2,
                inter_link_limit=inter_link_limit,
                bootstrap_inner_links=1,
            )
            for cls in (HierarchicalStructure, ConnectEveryPickStructure)
        ]

    def test_node_without_entry_gets_the_refused_calls_entry(self, tiny_dataset):
        skipping, connecting = self._twins(tiny_dataset, inter_link_limit=1)
        channels = tiny_dataset.channels_of_category(1)
        for twin in (skipping, connecting):
            # Channel 0 of the category: a pair whose only inter slot is
            # taken; channel 1: the newcomer, alone, so it makes no
            # inner link and enters the inter table through the skip.
            for node, channel in ((10, channels[0]), (11, channels[0]), (12, channels[2])):
                twin.enter_channel(node, channel, _always_alive)
            twin.inter.connect(10, 12, evict=True)
            twin.inter.connect(11, 13, evict=True)
            assert 20 not in twin.inter._table
            twin.enter_channel(20, channels[1], lambda n: n != 12)
        assert 20 in skipping.inter._table
        assert table_state(skipping.inter) == table_state(connecting.inter)
        assert table_state(skipping.inner) == table_state(connecting.inner)

    def test_random_sequences_match_connecting_every_pick(self, tiny_dataset):
        channels = [
            *tiny_dataset.channels_of_category(1),
            *tiny_dataset.channels_of_category(0)[:2],
        ]
        for seed in range(30):
            rng = random.Random(seed)
            twins = self._twins(tiny_dataset)
            online = set()
            for _ in range(150):
                node = rng.randrange(40)
                roll = rng.random()
                if roll < 0.6:
                    op, args = "enter_channel", (node, rng.choice(channels), online.__contains__)
                    online.add(node)
                elif roll < 0.75:
                    op, args = "leave", (node,)
                    online.discard(node)
                elif roll < 0.85:
                    op, args = "crash", (node,)
                    online.discard(node)
                elif roll < 0.92:
                    op, args = "repair_crashed", (node, online.__contains__)
                else:
                    op, args = "maintain", (node, online.__contains__)
                for twin in twins:
                    getattr(twin, op)(*args)
                skipping, connecting = twins
                assert table_state(skipping.inter) == table_state(connecting.inter), seed
                assert table_state(skipping.inner) == table_state(connecting.inner), seed
                assert skipping.server._rng.getstate() == connecting.server._rng.getstate()
