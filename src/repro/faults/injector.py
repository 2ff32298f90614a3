"""The run's fault driver: seeded fault draws and every fault handler.

The experiment runner builds one :class:`FaultInjector` for a nonzero
:class:`FaultPlan` and none for a fault-free run, and calls it at its
hook points (session start and end, serve, shed retry, watch start and
finish, run start).  Crashes, failover, repair sweeps and the
infrastructure windows are events the injector schedules itself.  A
fault counter is recorded by emitting the trace row its declaration
names (:data:`repro.metrics.collectors.COUNTERS`), so the scalar and its
time series count the same rows.

Every fault draw comes from the injector's own ``faults.*``
``RngStreams`` substreams.  Stream derivation is name-based, so these
streams never perturb the workload/churn/latency/protocol sequences, and
a fault-injected run stays byte-identical between ``--jobs 1`` and
``--jobs N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.metrics.collectors import COUNTER_ROWS
from repro.net.message import LookupResult
from repro.net.streaming import simulate_resume
from repro.sim.rng import RngStreams
from repro.trace.dataset import primary_interest

#: The windowed families in scheduling order: (family, begin, end).  The
#: plan arms each with ``has_<family>()`` and opens it at
#: ``<family>_at_s``; a window closes ``<family>_duration_s`` later, a
#: one-shot family has no end handler.
_WINDOWS = (
    ("community_crash", "_community_crash", None),
    ("tracker_outage", "_tracker_outage_begin", "_tracker_outage_end"),
    ("partition", "_partition_begin", "_partition_end"),
    ("flash_crowd", "_flash_crowd_begin", "_flash_crowd_end"),
)


@dataclass
class _ActiveWatch:
    """One in-flight watch.

    ``offset`` is the number of chunks already local when the *current*
    transfer began (1 after a prefetch hit, ``chunks_done`` after a
    failover resume), so the interruption handler can convert elapsed
    transfer time into delivered chunks.  ``transfer_start_t`` is
    approximated by the request instant -- chunk-granularity slack the
    failover model absorbs.
    """

    video_id: int
    provider_id: Optional[int]  # None for server- or cache-sourced watches
    grant: object  # TransferGrant, or None on a cache hit
    rate_bps: float  # effective (possibly fault-degraded) transfer rate
    request_t: float
    startup_s: float
    chunks: int
    offset: int
    transfer_start_t: float
    span_id: object
    finish_event: object


@dataclass
class _FailoverState:
    """One consumer between losing its provider and resuming."""

    watch: _ActiveWatch
    interrupted_at: float
    chunks_done: int
    attempt: int = 0


class FaultInjector:
    """Draws every fault decision for one run and handles every fault.

    Draw order is fixed by the (deterministic) event order of the
    simulation: one crash draw per session start, one loss draw per
    peer lookup, one slow-peer draw per peer admission.  Brownouts are
    a pure function of the virtual clock and consume no randomness.

    Without a ``runner`` the injector is a bare draw source.
    """

    def __init__(self, plan: FaultPlan, streams: RngStreams, runner=None):
        if plan.is_zero():
            raise ValueError("FaultInjector requires a nonzero FaultPlan")
        self.plan = plan
        self.retry = plan.retry
        self._rng_crash = streams.stream("faults.crash")
        self._rng_query = streams.stream("faults.query-loss")
        self._rng_slow = streams.stream("faults.slow-peer")
        self._rng_community = streams.stream("faults.community")
        if runner is None:
            return
        self.runner = runner
        self.scheduler = runner.scheduler
        self.protocol = runner.protocol
        self.server = runner.server
        self.metrics = runner.metrics
        self.tracer = runner.tracer
        self.dataset = runner.dataset
        self.config = runner.config
        self._node_ids = runner._node_ids
        self._crash_events: Dict[int, object] = {}  # user -> pending crash
        self._watches: Dict[int, _ActiveWatch] = {}
        #: provider -> ordered set of consumers mid-transfer from it.
        self._consumers: Dict[int, Dict[int, None]] = {}
        self._failovers: Dict[int, _FailoverState] = {}
        #: node -> partition side, populated lazily while a network
        #: partition is active (None otherwise).
        self._partition_sides: Optional[Dict[int, int]] = None
        #: Failovers dropped because the consumer itself crashed; kept
        #: here, not in the metrics, so the rendered rows stay as they are.
        self.abandoned_failovers = 0

    # -- seeded draws ---------------------------------------------------

    def crash_delay(self) -> Optional[float]:
        """Seconds until this session's crash, or None when crash-free.

        Drawn once per session start; the crash is cancelled if the
        session ends gracefully first.
        """
        rate = self.plan.crash_rate_per_hour
        if rate <= 0:
            return None
        return self._rng_crash.expovariate(rate / 3600.0)

    def query_lost(self) -> bool:
        """One loss draw for a peer lookup (True = the reply never came)."""
        prob = self.plan.query_loss_prob
        return prob > 0 and self._rng_query.random() < prob

    def peer_rate(self, rate_bps: float) -> float:
        """Granted peer rate after a possible slow-peer episode."""
        prob = self.plan.slow_peer_prob
        if prob > 0 and self._rng_slow.random() < prob:
            return rate_bps * self.plan.slow_peer_factor
        return rate_bps

    def in_brownout(self, now: float) -> bool:
        """Whether virtual time ``now`` falls inside a brownout window."""
        period = self.plan.brownout_period_s
        if period <= 0 or self.plan.brownout_duty <= 0:
            return False
        return now % period < self.plan.brownout_duty * period

    def server_rate(self, rate_bps: float, now: float) -> float:
        """Granted server rate after a possible brownout (clock-driven)."""
        if self.in_brownout(now):
            return rate_bps * self.plan.brownout_factor
        return rate_bps

    def community_crash_cluster(self, clusters: Sequence[int]) -> int:
        """Pick the interest cluster the correlated burst takes down.

        The *only* random draw in the community-crash family (one
        ``faults.community`` draw per run); the victim set inside the
        cluster is chosen deterministically (highest upload capacity
        first, node id as the tiebreak).
        """
        if not clusters:
            raise ValueError("community_crash_cluster needs a nonempty cluster list")
        return clusters[self._rng_community.randrange(len(clusters))]

    def _emit(self, row: str, **attrs) -> None:
        """Record every fault counter declared on ``row``, then trace the row."""
        for counter, by in COUNTER_ROWS[row]:
            self.metrics.record_count(counter, attrs[by] if by else 1)
        if self.tracer:
            self.tracer.event(row, **attrs)

    # -- runner hooks ---------------------------------------------------

    def arm(self) -> float:
        """Schedule the armed windowed families (at run start).

        Returns the instant the first one strikes: the degradation
        scorecard measures ``recovery_time_s`` from there to the last
        recovery action (failover resume, repair sweep, re-registration
        sweep, partition heal).  Zero when no windowed family is armed,
        which keeps pre-v2 plans reporting zero.
        """
        plan = self.plan
        onsets = []
        for family, begin, end in _WINDOWS:
            if not getattr(plan, f"has_{family}")():
                continue
            at = getattr(plan, f"{family}_at_s")
            onsets.append(at)
            self.scheduler.schedule(at, getattr(self, begin))
            if end is not None:
                duration = getattr(plan, f"{family}_duration_s")
                self.scheduler.schedule(at + duration, getattr(self, end))
        return min(onsets, default=0.0)

    def session_started(self, user_id: int) -> None:
        """Schedule this session's crash, if crash-churn draws one."""
        delay = self.crash_delay()
        if delay is not None:
            self._crash_events[user_id] = self.scheduler.schedule(
                delay, self._crash_node, user_id
            )

    def session_ended(self, user_id: int) -> None:
        """The session ended gracefully before its crash."""
        crash_event = self._crash_events.pop(user_id, None)
        if crash_event is not None:
            crash_event.cancel()

    def relocate_lost(self, user_id: int, video_id: int, lookup: LookupResult):
        """Lost query messages: ``(lookup, retry_delay_s)`` after retries.

        The reply from the chosen provider never arrives, so the
        requester re-floods after a backoff; past the retry budget the
        server serves the video.
        """
        retry_delay = 0.0
        lost_retries = 0
        while lookup.from_peer and self.query_lost():
            retry = lost_retries < self.retry.max_retries
            self._emit(
                "failover.query_lost", node=user_id, video=video_id, retries=int(retry)
            )
            if not retry:
                lookup = lookup.server_fallback()
                break
            retry_delay += self.retry.backoff_delay(lost_retries)
            lost_retries += 1
            lookup = self.protocol.locate(user_id, video_id)
        return lookup, retry_delay

    def shed_retry(self, user_id: int, video_id: int, shed_attempts: int) -> None:
        """Admission control shed the request (flash crowd).

        The client backs off under the shared RetryPolicy and retries
        the *same* video.  Past the shed budget the runner marks the
        retry degraded and the server admits it regardless, so a flash
        crowd delays sessions but never strands one.
        """
        self.scheduler.schedule(
            self.retry.backoff_delay(shed_attempts),
            self.runner._request_next_video,
            user_id,
            video_id,
            shed_attempts + 1,
        )

    def watch_started(
        self, user_id: int, lookup: LookupResult, grant, rate_bps: float,
        startup_s: float, prefetch_hit: bool, span_id, finish_event,
    ) -> None:
        """Track a served watch so a crash can interrupt it."""
        now = self.scheduler.now
        provider_id = lookup.provider_id if lookup.from_peer else None
        self._watches[user_id] = _ActiveWatch(
            video_id=lookup.video_id,
            provider_id=provider_id,
            grant=grant,
            rate_bps=rate_bps,
            request_t=now,
            startup_s=startup_s,
            chunks=self.config.chunks_per_video,
            offset=1 if prefetch_hit else 0,
            transfer_start_t=now,
            span_id=span_id,
            finish_event=finish_event,
        )
        if provider_id is not None:
            self._consumers.setdefault(provider_id, {})[user_id] = None

    def watch_finished(self, user_id: int) -> None:
        """Forget a tracked watch (finished, interrupted, or crashed)."""
        watch = self._watches.pop(user_id, None)
        if watch is None or watch.provider_id is None:
            return
        consumers = self._consumers.get(watch.provider_id)
        if consumers is not None:
            consumers.pop(user_id, None)
            if not consumers:
                del self._consumers[watch.provider_id]

    def check_ledger(self, metrics) -> None:
        """Raise unless every failover of the run was settled (run end).

        No watch, consumer or failover may be left, and each interrupted
        transfer ended exactly once: in a peer resume, a server fallback,
        or abandoned because the consumer itself crashed.
        """
        resumes = metrics.failover_peer_resumes
        fallbacks = metrics.failover_server_fallbacks
        left = (len(self._watches), len(self._consumers), len(self._failovers))
        interrupted = metrics.interrupted_transfers
        if any(left) or interrupted != resumes + fallbacks + self.abandoned_failovers:
            raise RuntimeError(
                f"fault ledger unbalanced at run end: {interrupted} interrupted "
                f"transfers vs {resumes} peer resumes + {fallbacks} server "
                f"fallbacks + {self.abandoned_failovers} abandoned; {left[0]} "
                f"watches, {left[1]} providers, {left[2]} failovers left"
            )

    # -- crash churn and failover ---------------------------------------

    def _crash_node(self, user_id: int) -> None:
        """Kill a node abruptly mid-session (crash-churn).

        Unlike a graceful leave: the node's own watch dies on the spot,
        every consumer streaming *from* it is interrupted into failover,
        the protocol leaves the dead node's overlay links dangling, and
        a repair sweep is scheduled one repair window out.  The crashed
        session still counts against the session plan, so the run
        terminates; the node returns after a normal off period.
        """
        self._crash_events.pop(user_id, None)
        self._emit("churn.crash", node=user_id)
        watch = self._watches.get(user_id)
        if watch is not None:
            watch.finish_event.cancel()
            if watch.grant is not None:
                watch.grant.release()
            self.tracer.end(watch.span_id)
            self.watch_finished(user_id)
        else:
            state = self._failovers.pop(user_id, None)
            if state is not None:
                self.abandoned_failovers += 1
                self.tracer.end(state.watch.span_id)
        consumers = self._consumers.pop(user_id, None)
        if consumers:
            for consumer in list(consumers):
                self._interrupt_transfer(consumer, provider_id=user_id)
        self.protocol.on_crash(user_id)
        self.scheduler.schedule(
            self.plan.repair_window_s, self._repair_after_crash, user_id
        )
        self.runner._close_session(user_id)

    def _repair_after_crash(self, user_id: int) -> None:
        """The repair window elapsed; survivors heal their link tables."""
        repaired = self.protocol.repair_after_crash(user_id)
        if repaired:
            self.metrics.note_recovery_action(self.scheduler.now)
        if self.tracer:
            # ``links``: surviving neighbors whose link tables healed.
            self.tracer.event("overlay.repair", node=user_id, links=repaired)

    def _interrupt_transfer(self, user_id: int, provider_id: int) -> None:
        """``user_id``'s provider died mid-transfer; start failover.

        Chunks delivered before the crash stay local (resume-from-last-
        chunk); if the whole video already arrived, playback proceeds
        untouched and only the bookkeeping is dropped.
        """
        watch = self._watches.get(user_id)
        if watch is None or watch.provider_id != provider_id:
            return
        now = self.scheduler.now
        chunk_bits = (
            self.config.video_bits(self.dataset.video_length(watch.video_id))
            / watch.chunks
        )
        delivered = int((now - watch.transfer_start_t) * watch.rate_bps / chunk_bits)
        chunks_done = min(watch.chunks, watch.offset + delivered)
        if chunks_done >= watch.chunks:
            # The whole video already arrived: playback proceeds, so the
            # watch stays tracked (its finish event must die if this
            # consumer later crashes) -- only the provider link drops.
            self.watch_finished(user_id)
            watch.provider_id = None
            self._watches[user_id] = watch
            return
        watch.finish_event.cancel()
        if watch.grant is not None:
            watch.grant.release()
        self.watch_finished(user_id)
        self._emit(
            "failover.interrupted",
            node=user_id,
            video=watch.video_id,
            provider=provider_id,
            chunk=chunks_done,
        )
        state = _FailoverState(
            watch=watch, interrupted_at=now, chunks_done=chunks_done
        )
        self._failovers[user_id] = state
        self.scheduler.schedule(
            self.retry.detection_timeout_s,
            self._attempt_failover,
            user_id,
            state,
        )

    def _remaining_bits(self, state: _FailoverState) -> float:
        watch = state.watch
        video_bits = self.config.video_bits(self.dataset.video_length(watch.video_id))
        return video_bits * (watch.chunks - state.chunks_done) / watch.chunks

    def _attempt_failover(self, user_id: int, state: _FailoverState) -> None:
        """Re-search for a replacement provider (retry/timeout/backoff).

        Each attempt re-floods the overlay; a found provider resumes the
        transfer from the last delivered chunk, a miss (or a lost reply)
        backs off exponentially, and past the retry budget the server
        finishes the transfer -- a degraded serve, not a lost session.
        """
        if self._failovers.get(user_id) is not state:
            return  # resolved already, or the consumer itself crashed
        watch = state.watch
        lookup = self.protocol.relocate(user_id, watch.video_id)
        if lookup.from_peer and not self.query_lost():
            provider = self.protocol.state(lookup.provider_id)
            grant = provider.uplink.admit(self._remaining_bits(state))
            rate_bps = self.peer_rate(grant.rate_bps)
            self._resume_watch(
                user_id, state, grant, rate_bps, lookup.provider_id, to_peer=True
            )
            return
        if state.attempt < self.retry.max_retries:
            delay = self.retry.backoff_delay(state.attempt)
            state.attempt += 1
            if self.tracer:
                self.tracer.event(
                    "failover.retry",
                    node=user_id,
                    video=watch.video_id,
                    attempt=state.attempt,
                )
            self.scheduler.schedule(delay, self._attempt_failover, user_id, state)
            return
        # Failover fallback bypasses admission control (force=True): the
        # consumer already absorbed an interruption plus the full retry
        # ladder; shedding it again would strand the session.
        grant = self.server.serve(self._remaining_bits(state), force=True)
        rate_bps = self.server_rate(grant.rate_bps, self.scheduler.now)
        self._resume_watch(user_id, state, grant, rate_bps, None, to_peer=False)

    def _resume_watch(
        self,
        user_id: int,
        state: _FailoverState,
        grant,
        rate_bps: float,
        provider_id: Optional[int],
        to_peer: bool,
    ) -> None:
        """Restart the interrupted transfer from its new source.

        The segmented playback model replays the viewer from the chunk
        under the playhead at the interruption (pre-crash stalls are
        chunk-granularity slack) and yields the wall-clock completion,
        which reschedules the watch's finish event.
        """
        del self._failovers[user_id]
        watch = state.watch
        now = self.scheduler.now
        latency = now - state.interrupted_at
        video_length = self.dataset.video_length(watch.video_id)
        playback_start = watch.request_t + watch.startup_s
        position = min(
            max(state.interrupted_at - playback_start, 0.0), video_length
        )
        resume = simulate_resume(
            video_length_s=video_length,
            bitrate_bps=self.config.video_bitrate_bps,
            transfer_rate_bps=rate_bps,
            chunks=watch.chunks,
            chunks_done=state.chunks_done,
            playback_position_s=position,
            resume_gap_s=latency,
            tracer=self.tracer,
            node=user_id,
            video=watch.video_id,
        )
        self.metrics.record_failover_latency(latency)
        self.metrics.note_recovery_action(now)
        self._emit(
            "failover.resume" if to_peer else "failover.server",
            node=user_id,
            video=watch.video_id,
            provider=provider_id,
            latency_s=latency,
            retries=state.attempt,
            chunk=state.chunks_done,
        )
        watch.provider_id = provider_id
        watch.grant = grant
        watch.rate_bps = rate_bps
        watch.transfer_start_t = now
        watch.offset = state.chunks_done
        # completion_s counts from the interruption; `latency` of it has
        # already elapsed, and the remainder is strictly positive.  The
        # finish event was cancelled at the interruption; one reschedule
        # revives the same handle with the refreshed grant/span args.
        watch.finish_event.reschedule(
            resume.completion_s - latency,
            user_id,
            watch.video_id,
            grant,
            watch.span_id,
        )
        self._watches[user_id] = watch
        if to_peer:
            self._consumers.setdefault(provider_id, {})[user_id] = None

    # -- infrastructure windows (v2 families) ---------------------------

    def _community_crash(self) -> None:
        """Correlated burst: kill part of one interest community at once.

        The cluster is drawn from the ``faults.community`` substream,
        restricted to communities of at least average size (a correlated
        failure taking out a three-node fringe cluster measures nothing);
        the burst then takes the highest-capacity members first -- the
        worst case for the overlay, since those nodes carry the most
        transfers and the densest link tables.  Victims already offline
        are skipped (a burst cannot kill a node twice); each kill runs
        the ordinary crash path, so consumers fail over and a repair
        sweep lands one repair window out.
        """
        by_cluster: Dict[int, list] = {}
        for node in self._node_ids:
            by_cluster.setdefault(primary_interest(self.dataset, node), []).append(
                node
            )
        mean_size = len(self._node_ids) / len(by_cluster)
        eligible = sorted(
            c for c, nodes in by_cluster.items() if len(nodes) >= mean_size
        )
        if not eligible:
            eligible = sorted(by_cluster)
        cluster = self.community_crash_cluster(eligible)
        members = by_cluster[cluster]
        count = math.ceil(self.plan.community_crash_fraction * len(members))
        members.sort(
            key=lambda node: (-self.protocol.state(node).uplink.capacity_bps, node)
        )
        killed = 0
        for victim in members[:count]:
            if not self.protocol.state(victim).online:
                continue
            pending = self._crash_events.pop(victim, None)
            if pending is not None:
                pending.cancel()  # the burst preempts the churn crash
            self._crash_node(victim)
            killed += 1
        self._emit(
            "fault.community_crash",
            cluster=cluster,
            planned=min(count, len(members)),
            victims=killed,
        )

    def _tracker_outage_begin(self) -> None:
        self.server.tracker_outage_begin()

    def _tracker_outage_end(self) -> None:
        """Tracker recovery: every online node re-files its state.

        The outage wiped the tracker's soft state, so lookups between
        recovery and a node's next report would miss it.  Deterministic
        sweep in node-id order; each protocol re-registers exactly the
        tracker state it maintains (presence, channel membership,
        overlay memberships, current watches).  Afterwards the tracker
        must list exactly the online nodes, or the run raises.
        """
        self.server.tracker_outage_end()
        reports = 0
        for node_id in self._node_ids:
            reports += self.protocol.reannounce(node_id)
        online = [n for n in self._node_ids if self.protocol.state(n).online]
        listed = self.server.online_count
        if listed != len(online) or not all(map(self.server.is_online, online)):
            raise RuntimeError(
                f"tracker lists {listed} nodes after re-registration, "
                f"but {len(online)} are online"
            )
        self.metrics.note_recovery_action(self.scheduler.now)
        self._emit("tracker.reregister", count=reports)

    def _partition_side_of(self, node_id: int) -> int:
        """Which half of the severed network a node sits in.

        Sides follow interest communities (``primary_interest % 2``) --
        the paper's per-community structure makes a community-aligned
        cut the interesting one: intra-community links mostly survive,
        inter-community (inter-link) traffic is what the cut severs.
        Unaffiliated nodes (cluster -1) land on side 1.
        """
        sides = self._partition_sides
        assert sides is not None
        side = sides.get(node_id)
        if side is None:
            side = primary_interest(self.dataset, node_id) % 2
            sides[node_id] = side
        return side

    def _partition_reach(self, a: int, b: int) -> bool:
        return self._partition_side_of(a) == self._partition_side_of(b)

    def _partition_begin(self) -> None:
        """Sever cross-community links; cut transfers fail over.

        The reachability guard makes every protocol skip (not drop)
        unreachable neighbors and referrals; the server stays reachable
        from both sides, so lookups degrade to server fallbacks rather
        than failures.  In-flight transfers crossing the cut are
        interrupted into the standard failover ladder.
        """
        self._partition_sides = {}
        self.protocol.partition_guard = self._partition_reach
        if self.tracer:
            self.tracer.event("partition.transition", phase="begin")
        interrupted = 0
        for consumer in sorted(self._watches):
            watch = self._watches.get(consumer)
            if watch is None or watch.provider_id is None:
                continue
            if not self._partition_reach(consumer, watch.provider_id):
                self._interrupt_transfer(consumer, provider_id=watch.provider_id)
                if consumer in self._failovers:
                    interrupted += 1
        self.metrics.record_count("partition_interrupts", interrupted)

    def _partition_end(self) -> None:
        """Heal the partition: restore reachability, re-probe overlays.

        Clearing the guard restores every skipped link instantly; the
        heal sweep then runs one maintenance probe per online node (in
        node-id order) so link tables refill across the healed cut
        without waiting for each node's next natural probe.
        """
        self.protocol.partition_guard = None
        self._partition_sides = None
        if self.tracer:
            self.tracer.event("partition.transition", phase="end")
        healed = 0
        for node_id in self._node_ids:
            if self.protocol.state(node_id).online:
                self.protocol.on_maintenance(node_id)
                healed += 1
        self.metrics.note_recovery_action(self.scheduler.now)
        self._emit("partition.healed", nodes=healed)

    def _flash_crowd_begin(self) -> None:
        self.server.admission_limit = self.plan.flash_crowd_admission_limit
        if self.tracer:
            self.tracer.event(
                "server.flash_crowd",
                phase="begin",
                limit=self.server.admission_limit,
            )

    def _flash_crowd_end(self) -> None:
        self.server.admission_limit = 0
        self.metrics.note_recovery_action(self.scheduler.now)
        if self.tracer:
            self.tracer.event("server.flash_crowd", phase="end")
