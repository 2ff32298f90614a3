"""Stateful property test: SocialTube's two-level overlay stays sound.

A hypothesis ``RuleBasedStateMachine`` drives one
:class:`SocialTubeProtocol` over the smoke corpus through any
interleaving of session starts and ends, crashes and their repair
sweeps, maintenance, lookups and watches, and a network partition that
is set and later healed.  After every step
``structure.check_invariants()`` must be empty: degrees within
``N_l``/``N_h``, symmetric links, no self-links, and no links held by
or pointing at a departed node (crashed nodes awaiting their repair
sweep excepted).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from helpers import make_protocol
from repro.core.socialtube import SocialTubeProtocol
from repro.experiments.config import SimulationConfig
from repro.experiments.trace_cache import shared_trace_cache

_DATASET = shared_trace_cache.dataset_for(SimulationConfig.smoke_scale().trace)
NUM_PEERS = 12
NODES = st.integers(min_value=0, max_value=NUM_PEERS - 1)


def _crowded_videos():
    """Videos of two channels in each of the two widest categories.

    A few peers spread over the whole corpus would rarely share a
    channel, and links only form between peers that do.
    """
    widest = sorted(
        _DATASET.categories.values(), key=lambda c: (-len(c.channel_ids), c.category_id)
    )[:2]
    return sorted(
        video
        for category in widest
        for channel in category.channel_ids[:2]
        for video in _DATASET.channels[channel].video_ids
    )


VIDEOS = st.sampled_from(_crowded_videos())


class SocialTubeStructureMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=100))
    def build(self, seed):
        self.protocol, _server = make_protocol(
            SocialTubeProtocol, _DATASET, num_peers=NUM_PEERS, seed=seed
        )
        #: Nodes crashed whose repair sweep has not run yet.
        self.unrepaired = set()

    def _online(self, node):
        return self.protocol.state(node).online

    def _watch(self, node, video):
        self.protocol.locate(node, video)
        self.protocol.on_watch_started(node, video)
        self.protocol.on_watch_finished(node, video)

    @rule(node=NODES, video=VIDEOS)
    def start_session(self, node, video):
        # As in the runner, a session opens with its first request.
        if not self._online(node):
            self.protocol.on_session_start(node)
            self._watch(node, video)

    @rule(node=NODES)
    def end_session(self, node):
        if self._online(node):
            self.protocol.on_session_end(node)

    @rule(node=NODES)
    def crash(self, node):
        if self._online(node):
            self.protocol.on_crash(node)
            self.unrepaired.add(node)

    @rule(node=NODES)
    def repair(self, node):
        # The sweep fires one repair window after the crash, whether or
        # not the node has come back since.
        if node in self.unrepaired:
            self.unrepaired.discard(node)
            self.protocol.repair_after_crash(node)

    @rule(node=NODES)
    def maintain(self, node):
        if self._online(node):
            self.protocol.on_maintenance(node)

    @rule(node=NODES, video=VIDEOS)
    def locate(self, node, video):
        if self._online(node):
            self.protocol.locate(node, video)

    @rule(node=NODES, video=VIDEOS)
    def watch(self, node, video):
        if self._online(node):
            self._watch(node, video)

    @precondition(lambda self: self.protocol.partition_guard is None)
    @rule(cut=st.integers(min_value=1, max_value=NUM_PEERS - 1))
    def partition(self, cut):
        self.protocol.partition_guard = lambda a, b: (a < cut) == (b < cut)

    @precondition(lambda self: self.protocol.partition_guard is not None)
    @rule()
    def heal(self):
        self.protocol.partition_guard = None

    @invariant()
    def structure_is_sound(self):
        assert self.protocol.structure.check_invariants() == []


SocialTubeStructureMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestSocialTubeStructure = SocialTubeStructureMachine.TestCase
