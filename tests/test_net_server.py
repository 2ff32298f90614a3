"""Unit tests for the central server (tracker / oracle / fallback source)."""

import random
from collections import Counter

import pytest

from repro.net.server import CentralServer, rounds_to_reach


class TestPresence:
    def test_online_offline_cycle(self, server):
        server.node_online(1)
        assert server.is_online(1)
        assert server.online_count == 1
        server.node_offline(1)
        assert not server.is_online(1)
        assert server.online_count == 0

    def test_offline_purges_all_tracker_maps(self, server):
        server.node_online(1)
        server.register_channel_member(0, 1)
        server.register_video_overlay_member(5, 1)
        server.watch_started(5, 1)
        server.node_offline(1)
        assert 1 not in server.channel_members(0)
        assert 1 not in server.video_overlay_members(5)
        assert server.current_watchers(5) == []


class TestChannelTracker:
    def test_register_and_pick(self, server):
        server.register_channel_member(0, 1)
        server.register_channel_member(0, 2)
        pick = server.random_channel_member(0)
        assert pick in (1, 2)

    def test_exclude_respected(self, server):
        server.register_channel_member(0, 1)
        assert server.random_channel_member(0, exclude=1) is None

    def test_empty_channel_returns_none(self, server):
        assert server.random_channel_member(3) is None

    def test_unregister(self, server):
        server.register_channel_member(0, 1)
        server.unregister_channel_member(0, 1)
        assert server.random_channel_member(0) is None

    def test_category_picks_span_channels(self, server, tiny_dataset):
        category = next(
            c for c in tiny_dataset.categories.values() if len(c.channel_ids) >= 2
        )
        ch_a, ch_b = category.channel_ids[:2]
        server.register_channel_member(ch_a, 10)
        server.register_channel_member(ch_b, 20)
        picks = server.random_members_per_channel_in_category(category.category_id)
        assert set(picks) == {10, 20}

    def test_category_picks_round_robin_past_single_channel(self, server, tiny_dataset):
        # One occupied channel with several members: the round-robin
        # draw still fills the requested limit.
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        for member in (1, 2, 3, 4):
            server.register_channel_member(channel, member)
        picks = server.random_members_per_channel_in_category(
            category.category_id, limit=3
        )
        assert len(picks) == 3
        assert len(set(picks)) == 3

    def test_category_picks_respect_exclude(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        server.register_channel_member(channel, 1)
        picks = server.random_members_per_channel_in_category(
            category.category_id, exclude=1
        )
        assert 1 not in picks


def reference_category_picks(server, category_id, rng, exclude=None, limit=None):
    """The eager category bootstrap the lazy one replaced: shuffle every
    channel of the category and every member pool, then round-robin."""
    channels = list(server.catalog.channels_of_category(category_id))
    rng.shuffle(channels)
    pools = []
    for channel_id in channels:
        members = [m for m in server.channel_members(channel_id) if m != exclude]
        if members:
            rng.shuffle(members)
            pools.append(members)
    picks = []
    round_index = 0
    while pools:
        pools = [pool for pool in pools if round_index < len(pool)]
        for pool in pools:
            picks.append(pool[round_index])
            if limit is not None and len(picks) >= limit:
                return picks
        round_index += 1
    return picks


def position_frequencies(draw, trials):
    """Per-position pick frequencies of ``trials`` calls of ``draw()``."""
    counts = Counter()
    for _ in range(trials):
        for position, member in enumerate(draw()):
            counts[position, member] += 1
    return {key: count / trials for key, count in counts.items()}


class TestCategoryBootstrapDistribution:
    #: channel -> members in category 1 of the tiny dataset; node 9 is the
    #: joining node, alone in channel 11 and sharing channel 9.
    LAYOUT = {3: (1, 2, 3, 4, 5), 4: (6, 7), 6: (8,), 9: (9, 10), 11: (9,)}
    CATEGORY = 1

    @pytest.fixture()
    def populated(self, server, tiny_dataset):
        assert set(self.LAYOUT) <= set(tiny_dataset.channels_of_category(self.CATEGORY))
        for channel, members in self.LAYOUT.items():
            for member in members:
                server.register_channel_member(channel, member)
        return server

    @pytest.mark.parametrize("limit", [2, 5, 7, None])
    def test_position_frequencies_match_eager_reference(self, populated, limit):
        trials = 4000
        populated._rng = random.Random(101)
        lazy = position_frequencies(
            lambda: populated.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9, limit=limit
            ),
            trials,
        )
        reference_rng = random.Random(202)
        eager = position_frequencies(
            lambda: reference_category_picks(
                populated, self.CATEGORY, reference_rng, exclude=9, limit=limit
            ),
            trials,
        )
        assert set(lazy) == set(eager)
        for key in eager:
            assert lazy[key] == pytest.approx(eager[key], abs=0.05), key

    def test_channel_of_only_the_excluded_node_is_skipped(self, server, tiny_dataset):
        alone, shared = tiny_dataset.channels_of_category(self.CATEGORY)[:2]
        server.register_channel_member(alone, 9)
        server.register_channel_member(shared, 1)
        for _ in range(20):
            assert server.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9, limit=5
            ) == [1]

    @pytest.mark.parametrize("limit", [None, 9, 50])
    def test_enough_limit_returns_every_other_member_once(self, populated, limit):
        expected = sorted({m for ms in self.LAYOUT.values() for m in ms} - {9})
        for seed in range(20):
            populated._rng = random.Random(seed)
            picks = populated.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9, limit=limit
            )
            assert sorted(picks) == expected

    def test_no_duplicate_picks(self, populated):
        for seed in range(50):
            populated._rng = random.Random(seed)
            for limit in range(1, 10):
                picks = populated.random_members_per_channel_in_category(
                    self.CATEGORY, exclude=9, limit=limit
                )
                assert len(picks) == len(set(picks)) == min(limit, 9)

    def test_round_zero_covers_distinct_channels_first(self, populated):
        channel_of = {m: c for c, ms in self.LAYOUT.items() for m in ms if m != 9}
        occupied = {3, 4, 6, 9}
        for seed in range(50):
            populated._rng = random.Random(seed)
            picks = populated.random_members_per_channel_in_category(
                self.CATEGORY, exclude=9
            )
            assert {channel_of[m] for m in picks[: len(occupied)]} == occupied

    def test_tracker_down_draws_nothing(self, populated):
        populated.tracker_down = True
        state = populated._rng.getstate()
        assert populated.random_members_per_channel_in_category(self.CATEGORY) == []
        assert populated.find_holder_in_category(self.CATEGORY, is_holder=bool) is None
        assert populated.random_channel_member(3) is None
        assert populated._rng.getstate() == state


def parent_category_picks(server, category_id, rng, exclude=None, limit=None):
    """The category bootstrap as it stood before a full set of occupied
    channels skipped the round count: occupied channels, the round count
    from the pool sizes, then ``choice`` or ``sample`` per pool and an
    interleave."""
    pools = []
    for channel_id in server.catalog.channels_of_category(category_id):
        members = server._channel_members.get(channel_id)
        if members and (len(members) > 1 or exclude not in members):
            pools.append(members)
    rng.shuffle(pools)
    if limit is not None:
        del pools[limit:]
    sizes = [len(members) - (exclude in members) for members in pools]
    rounds = max(sizes, default=0)
    if limit is not None:
        reached = 0
        for round_index in range(1, rounds + 1):
            reached += sum(size >= round_index for size in sizes)
            if reached >= limit:
                rounds = round_index
                break
    draws = []
    for members, size in zip(pools, sizes):
        candidates = list(members)
        if size < len(candidates):
            candidates.remove(exclude)
        if rounds == 1:
            draws.append((rng.choice(candidates),))
        else:
            draws.append(rng.sample(candidates, min(size, rounds)))
    picks = [
        draw[round_index]
        for round_index in range(rounds)
        for draw in draws
        if round_index < len(draw)
    ]
    return picks[:limit]


def parent_channel_member(server, channel_id, rng, exclude=None):
    """``random_channel_member`` as a stdlib ``choice``."""
    candidates = [m for m in server.channel_members(channel_id) if m != exclude]
    return rng.choice(candidates) if candidates else None


def parent_holder_in_category(server, category_id, is_holder, rng, exclude=None, scan_limit=200):
    """``find_holder_in_category`` as a stdlib ``shuffle`` of the occupied
    channels, each scanned in tracker order."""
    pools = []
    for channel_id in server.catalog.channels_of_category(category_id):
        members = server._channel_members.get(channel_id)
        if members and (len(members) > 1 or exclude not in members):
            pools.append(members)
    rng.shuffle(pools)
    scanned = 0
    for members in pools:
        for member in members:
            if member == exclude:
                continue
            scanned += 1
            if is_holder(member):
                return member
            if scanned >= scan_limit:
                return None
    return None


def populate(server, layout):
    for channel, members in layout.items():
        for member in members:
            server.register_channel_member(channel, member)


#: Four channels hold someone besides node 9, five hold someone at all
#: (the layout of TestCategoryBootstrapDistribution).
SMALL_LAYOUT = TestCategoryBootstrapDistribution.LAYOUT
#: Pools of 90 and 30 members: with the limits below the round count
#: passes 5, so ``sample`` takes both of its branches under the larger
#: ``setsize`` as well as the smaller one.
LARGE_LAYOUT = {
    3: tuple(range(100, 190)),
    4: tuple(range(200, 230)),
    6: tuple(range(300, 308)),
    9: (9, 10),
    11: (9,),
}


def assert_same_frequencies(draw, reference, trials=4000, tolerance=0.05):
    """``draw()`` and ``reference()`` pick each member at each position
    with frequencies within ``tolerance`` over ``trials`` calls."""
    ours = position_frequencies(draw, trials)
    theirs = position_frequencies(reference, trials)
    for key in set(ours) | set(theirs):
        assert ours.get(key, 0.0) == pytest.approx(theirs.get(key, 0.0), abs=tolerance), key


class TestCategoryBootstrapDraws:
    """The pool draws (a slot index per pick, a ``sample`` of the
    channels handed out) pick with the distribution of the set-based
    reference implementations above, which drew through the stdlib
    ``choice``, ``sample`` and ``shuffle``.  Test names keep their
    earlier ids; each now compares per-position frequencies."""

    CATEGORY = TestCategoryBootstrapDistribution.CATEGORY

    LIMITS = [1, 3, 4, 5, 6, 12, 20, 40, 100, None]

    @pytest.mark.parametrize("exclude", [9, None])
    @pytest.mark.parametrize("limit", LIMITS)
    def test_same_picks_and_rng_state_as_parent(self, server, exclude, limit):
        self._check_category_picks(server, SMALL_LAYOUT, exclude, limit)

    @pytest.mark.parametrize("exclude", [9, 100, None])
    @pytest.mark.parametrize("limit", LIMITS)
    def test_large_pools_same_picks_and_rng_state_as_parent(self, server, exclude, limit):
        self._check_category_picks(server, LARGE_LAYOUT, exclude, limit)

    @pytest.mark.parametrize("exclude", [100, 145, 189])
    @pytest.mark.parametrize("limit", [5, 12, 40, 100])
    def test_pool_holding_the_excluded_node_draws_the_others_uniformly(
        self, server, exclude, limit
    ):
        """``exclude`` sits in the 90-member pool: it is never handed
        out, and each of the other 89 is, equally often.  Limit 5 is the
        one-round path; 12 and 40 make the pool take ``sample``'s
        rejection branch, 100 its swap-out branch."""
        populate(server, LARGE_LAYOUT)
        server._rng = random.Random(11)
        others = [member for member in LARGE_LAYOUT[3] if member != exclude]
        counts = Counter()
        for _ in range(3000):
            picks = server.random_members_per_channel_in_category(
                self.CATEGORY, exclude=exclude, limit=limit
            )
            assert exclude not in picks
            drawn = [member for member in picks if 100 <= member < 190]
            assert len(set(drawn)) == len(drawn)
            counts.update(drawn)
        observed = [counts[member] for member in others]
        expected = sum(observed) / len(others)
        assert min(observed) > 0
        # Chi-square with 88 degrees of freedom (mean 88, sd 13.3); a
        # slot never drawn alone adds about ``expected`` (34 or more).
        chi_square = sum((count - expected) ** 2 for count in observed) / expected
        assert chi_square < 160, chi_square

    def _check_category_picks(self, server, layout, exclude, limit):
        populate(server, layout)
        server._rng = random.Random(11)
        reference_rng = random.Random(12)
        assert_same_frequencies(
            lambda: server.random_members_per_channel_in_category(
                self.CATEGORY, exclude=exclude, limit=limit
            ),
            lambda: parent_category_picks(
                server, self.CATEGORY, reference_rng, exclude=exclude, limit=limit
            ),
            trials=2000,
        )

    @pytest.mark.parametrize("exclude", [9, 100, 555, None])
    def test_channel_member_same_pick_and_rng_state_as_choice(self, server, exclude):
        populate(server, LARGE_LAYOUT)
        server._rng = random.Random(11)
        reference_rng = random.Random(12)
        for channel in (*LARGE_LAYOUT, 0):
            assert_same_frequencies(
                lambda: [server.random_channel_member(channel, exclude=exclude)],
                lambda: [parent_channel_member(server, channel, reference_rng, exclude)],
                tolerance=0.02,
            )

    @pytest.mark.parametrize("exclude", [9, None])
    @pytest.mark.parametrize("scan_limit", [1, 50, 200])
    def test_holder_same_pick_and_rng_state_as_shuffle(self, server, exclude, scan_limit):
        populate(server, LARGE_LAYOUT)
        server._rng = random.Random(11)
        reference_rng = random.Random(12)
        for seed in range(3):
            holders = set(random.Random(-seed).sample(range(100, 308), 3))
            assert_same_frequencies(
                lambda: [
                    server.find_holder_in_category(
                        self.CATEGORY, holders.__contains__, exclude=exclude, scan_limit=scan_limit
                    )
                ],
                lambda: [
                    parent_holder_in_category(
                        server,
                        self.CATEGORY,
                        holders.__contains__,
                        reference_rng,
                        exclude,
                        scan_limit,
                    )
                ],
            )


def test_rounds_to_reach_matches_counting_rounds():
    rng = random.Random(5)
    for _ in range(5000):
        sizes = [rng.randint(1, rng.choice([3, 10, 40])) for _ in range(rng.randint(0, 8))]
        limit = rng.choice([None, rng.randint(1, 60)])
        rounds = max(sizes, default=0)
        if limit is not None:
            for candidate in range(1, rounds + 1):
                if sum(min(size, candidate) for size in sizes) >= limit:
                    rounds = candidate
                    break
        assert rounds_to_reach(sizes, limit) == rounds, (sizes, limit)


class FullScanPurgeServer(CentralServer):
    """A twin server whose offline purge scans every tracker map."""

    def node_offline(self, node_id):
        if self.tracker_down:
            return
        self._online.discard(node_id)
        for members in self._channel_members.values():
            members.discard(node_id)
        for members in self._video_overlay_members.values():
            members.discard(node_id)
        for watchers in self._current_watchers.values():
            watchers.discard(node_id)


def tracker_maps(server):
    """Every tracker map, with each member set in iteration order."""
    return [sorted(server._online)] + [
        {key: list(members) for key, members in mapping.items()}
        for mapping in (
            server._channel_members,
            server._video_overlay_members,
            server._current_watchers,
        )
    ]


def membership_record(server):
    """The per-node membership record, as sorted ids of the sets it holds."""
    return {
        node: sorted(map(id, record.values()))
        for node, record in server._memberships.items()
        if record
    }


def held_sets(server):
    """Per node, the sorted ids of the tracker member sets that hold it."""
    held = {}
    for mapping in (
        server._channel_members,
        server._video_overlay_members,
        server._current_watchers,
    ):
        for members in mapping.values():
            for node in members:
                held.setdefault(node, []).append(id(members))
    return {node: sorted(ids) for node, ids in held.items()}


class TestTrackerMembershipIndex:
    """``node_offline`` purges through the per-node membership record."""

    NODES = range(8)
    KEYS = range(5)

    def _twins(self, tiny_dataset):
        return [
            cls(tiny_dataset, capacity_bps=50e6, rng=random.Random(7))
            for cls in (CentralServer, FullScanPurgeServer)
        ]

    def _random_op(self, rng):
        node, key = rng.choice(self.NODES), rng.choice(self.KEYS)
        roll = rng.random()
        if roll < 0.02:
            return "tracker_outage_begin", ()
        if roll < 0.06:
            return "tracker_outage_end", ()
        name = rng.choice(
            [
                "node_online",
                "node_offline",
                "node_offline",
                "register_channel_member",
                "unregister_channel_member",
                "register_video_overlay_member",
                "unregister_video_overlay_member",
                "watch_started",
                "watch_finished",
            ]
        )
        if name.startswith("node_"):
            return name, (node,)
        return name, (key, node)

    def test_random_sequences_match_full_scan_purge(self, tiny_dataset):
        for seed in range(200):
            rng = random.Random(seed)
            indexed, scanned = self._twins(tiny_dataset)
            for _ in range(80):
                name, args = self._random_op(rng)
                for server in (indexed, scanned):
                    getattr(server, name)(*args)
                if name == "node_offline":
                    assert tracker_maps(indexed) == tracker_maps(scanned), seed
                assert membership_record(indexed) == held_sets(indexed), seed

    def test_record_tracks_current_memberships_only(self, server):
        server.node_online(1)
        for _ in range(50):
            for key in self.KEYS:
                server.register_channel_member(key, 1)
                server.register_video_overlay_member(key, 1)
                server.watch_started(key, 1)
            for key in self.KEYS:
                server.unregister_channel_member(key, 1)
                server.unregister_video_overlay_member(key, 1)
                server.watch_finished(key, 1)
        server.register_channel_member(3, 1)
        server.watch_started(3, 1)
        server.watch_started(3, 1)
        assert len(server._memberships[1]) == 2
        assert membership_record(server) == held_sets(server)

    def test_registered_before_outage_offline_after_recovery(self, tiny_dataset):
        indexed, scanned = self._twins(tiny_dataset)
        for server in (indexed, scanned):
            server.node_online(1)
            server.register_channel_member(0, 1)
            server.register_video_overlay_member(5, 1)
            server.watch_started(5, 1)
            server.tracker_outage_begin()
            assert not server._memberships
            server.tracker_outage_end()
            # The re-registration sweep after recovery.
            server.node_online(1)
            server.register_channel_member(0, 1)
            server.register_channel_member(2, 2)
            server.node_offline(1)
        assert tracker_maps(indexed) == tracker_maps(scanned)
        assert 1 not in indexed.channel_members(0)
        assert indexed.channel_members(2) == {2}
        assert 1 not in indexed._memberships

    def test_offline_of_unknown_node_creates_no_entry(self, server):
        server.register_channel_member(0, 1)
        before = tracker_maps(server)
        server.node_offline(99)
        assert tracker_maps(server) == before
        assert 99 not in server._memberships

    def test_reads_and_removals_of_unknown_keys_create_no_entry(self, server):
        assert len(server.channel_members(5)) == 0
        assert len(server.video_overlay_members(6)) == 0
        server.unregister_channel_member(5, 1)
        server.unregister_video_overlay_member(6, 1)
        server.watch_finished(7, 1)
        assert tracker_maps(server) == [[], {}, {}, {}]
        assert not server._memberships


def check_pool(pool):
    """``ids`` and the slot map describe the same members."""
    assert len(pool.ids) == len(pool) == len(set(pool.ids))
    for slot, member in enumerate(pool.ids):
        assert pool[member] == slot


class TestMemberPool:
    """Channel pools against a plain set model of the tracker."""

    NODES = range(10)
    CHANNELS = range(4)

    def _random_op(self, rng):
        roll = rng.random()
        if roll < 0.03:
            return "tracker_outage_begin", ()
        if roll < 0.08:
            return "tracker_outage_end", ()
        if roll < 0.25:
            return "node_offline", (rng.choice(self.NODES),)
        name = rng.choice(["register_channel_member"] * 3 + ["unregister_channel_member"] * 2)
        return name, (rng.choice(self.CHANNELS), rng.choice(self.NODES))

    @staticmethod
    def _apply(model, down, name, args):
        """The op on ``model`` (channel -> set); returns the new ``down``."""
        if name == "tracker_outage_begin":
            model.clear()
            return True
        if name == "tracker_outage_end":
            return False
        if down:
            return down
        if name == "node_offline":
            for members in model.values():
                members.discard(args[0])
        elif name == "register_channel_member":
            model.setdefault(args[0], set()).add(args[1])
        else:
            model.get(args[0], set()).discard(args[1])
        return down

    def test_random_sequences_match_set_model(self, tiny_dataset):
        for seed in range(150):
            rng = random.Random(seed)
            server = CentralServer(tiny_dataset, capacity_bps=50e6, rng=random.Random(seed))
            model, down = {}, False
            for _ in range(120):
                name, args = self._random_op(rng)
                getattr(server, name)(*args)
                down = self._apply(model, down, name, args)
                for channel in self.CHANNELS:
                    assert set(server.channel_members(channel)) == model.get(channel, set()), seed
                for pool in server._channel_members.values():
                    check_pool(pool)
                assert membership_record(server) == held_sets(server), seed

    @pytest.fixture()
    def shuffled_pool(self, server):
        """Channel 0 with members 0-9 registered, then 3 and 7 removed, so
        two slots hold members moved there from the end."""
        for member in range(10):
            server.register_channel_member(0, member)
        server.unregister_channel_member(0, 3)
        server.unregister_channel_member(0, 7)
        server._rng = random.Random(3)
        return server

    @pytest.mark.parametrize("where", ["none", "absent", "first", "middle", "last"])
    def test_channel_member_uniform_around_exclude(self, shuffled_pool, where):
        ids = shuffled_pool._channel_members[0].ids
        assert ids == [0, 1, 2, 9, 4, 5, 6, 8]
        exclude = {"none": None, "absent": 555, "first": ids[0], "middle": ids[3], "last": ids[-1]}[
            where
        ]
        expected = [m for m in ids if m != exclude]
        trials = 4000
        counts = Counter(shuffled_pool.random_channel_member(0, exclude) for _ in range(trials))
        assert sorted(counts) == sorted(expected)
        for member in expected:
            assert counts[member] / trials == pytest.approx(1 / len(expected), abs=0.03), member


class TestHolderAssist:
    def test_finds_holder(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        server.register_channel_member(channel, 42)
        found = server.find_holder_in_category(
            category.category_id, is_holder=lambda n: n == 42
        )
        assert found == 42

    def test_returns_none_when_no_holder(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        server.register_channel_member(channel, 42)
        assert (
            server.find_holder_in_category(
                category.category_id, is_holder=lambda n: False
            )
            is None
        )

    def test_scan_limit_bounds_work(self, server, tiny_dataset):
        category = next(iter(tiny_dataset.categories.values()))
        channel = category.channel_ids[0]
        for member in range(50):
            server.register_channel_member(channel, member)
        calls = []

        def is_holder(n):
            calls.append(n)
            return False

        server.find_holder_in_category(
            category.category_id, is_holder=is_holder, scan_limit=10
        )
        assert len(calls) <= 10


class TestVideoOverlayTracker:
    def test_register_and_sample(self, server):
        for member in (1, 2, 3):
            server.register_video_overlay_member(7, member)
        picks = server.random_video_overlay_members(7, 2)
        assert len(picks) == 2
        assert set(picks) <= {1, 2, 3}

    def test_sample_all_when_fewer_than_count(self, server):
        server.register_video_overlay_member(7, 1)
        assert server.random_video_overlay_members(7, 5) == [1]

    def test_exclude(self, server):
        server.register_video_overlay_member(7, 1)
        assert server.random_video_overlay_members(7, 5, exclude=1) == []


class TestWatcherTracker:
    def test_watchers_lifecycle(self, server):
        server.watch_started(9, 1)
        assert server.current_watchers(9) == [1]
        server.watch_finished(9, 1)
        assert server.current_watchers(9) == []

    def test_watchers_exclude_requester(self, server):
        server.watch_started(9, 1)
        assert server.current_watchers(9, exclude=1) == []


class TestPopularityOracle:
    def test_top_videos_sorted_by_views(self, server, tiny_dataset):
        channel = max(tiny_dataset.channels.values(), key=lambda c: c.num_videos)
        top = server.top_videos_of_channel(channel.channel_id, 5)
        views = [tiny_dataset.video_views(v) for v in top]
        assert views == sorted(views, reverse=True)
        assert len(top) == min(5, channel.num_videos)

    def test_top_videos_belong_to_channel(self, server, tiny_dataset):
        channel = next(iter(tiny_dataset.channels.values()))
        top = server.top_videos_of_channel(channel.channel_id, 3)
        assert all(tiny_dataset.channel_of_video(v) == channel.channel_id for v in top)

    def test_mutating_a_feed_leaves_the_next_feed_unchanged(self, server, tiny_dataset):
        channel = max(tiny_dataset.channels.values(), key=lambda c: c.num_videos)
        first = server.top_videos_of_channel(channel.channel_id, 4)
        expected = list(first)
        first.reverse()
        first.append(-1)
        first[0] = -2
        assert server.top_videos_of_channel(channel.channel_id, 4) == expected

    def test_tied_views_keep_catalog_order(self):
        views = {10: 5, 11: 9, 12: 5, 13: 9, 14: 1, 15: 5}
        videos = list(views)

        class TiedCatalog:
            def videos_of_channel(self, channel_id):
                return videos

            def video_views(self, video_id):
                return views[video_id]

        server = CentralServer(TiedCatalog(), capacity_bps=1e6, rng=random.Random(0))
        assert server.top_videos_of_channel(0, len(videos)) == [11, 13, 10, 12, 15, 14]
        for count in range(len(videos) + 3):
            assert server.top_videos_of_channel(0, count) == sorted(
                videos, key=views.__getitem__, reverse=True
            )[:count]


class TestFallbackSource:
    def test_serve_counts_requests(self, server):
        before = server.requests_served
        grant = server.serve(1000.0)
        assert server.requests_served == before + 1
        assert grant.rate_bps > 0
        grant.release()

    def test_server_uplink_is_shared(self, tiny_dataset):
        server = CentralServer(tiny_dataset, capacity_bps=1_000_000, rng=random.Random(0))
        g1 = server.serve(0.0)
        g2 = server.serve(0.0)
        assert g2.rate_bps == pytest.approx(500_000)
        g1.release()
        g2.release()
