"""Drives one :class:`ExperimentSpec` end to end.

The runner wires together every substrate: the synthesized trace, the
event engine, the latency/bandwidth models, the central server, one
protocol stack (resolved through the typed registry), the 75/15/10
workload, churned sessions, and the metrics collectors.  The per-user
lifecycle is::

    join (staggered) -> session: [select video -> locate -> startup ->
    watch -> prefetch -> sample overhead] x videos_per_session ->
    graceful leave -> Poisson off time -> next session -> ...

Entry point: :func:`run_spec` -- the canonical call: one frozen
:class:`ExperimentSpec` in, one :class:`ExperimentResult` out.  This is
also what sweep workers execute (see :mod:`repro.experiments.parallel`).

Delay model (documented in DESIGN.md section 5):

* peer provider found by flooding: one one-way latency per hop along
  the actual query path, plus the provider's one-way response, plus the
  startup-buffer transfer at the provider's granted upload share;
* tracker referral: a server round trip plus the provider round trip;
* server fallback: the failed flood phases (2 x TTL one-way samples
  each), a server round trip, and the buffer transfer at the server's
  granted share -- which is where saturation turns into seconds;
* prefetched first chunk or cached video: playback starts locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.protocol import PeerState
from repro.experiments.config import environment_by_name
from repro.experiments.registry import create_protocol
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.faults.injector import FaultInjector
from repro.metrics.collectors import ExperimentMetrics, MetricsCollector, metric
from repro.net.latency import SERVER_NODE_ID
from repro.net.message import ChunkSource
from repro.net.streaming import simulate_playback
from repro.net.server import CentralServer, ServerOverloadError
from repro.obs.tracer import NULL_TRACER
from repro.sim.churn import ChurnModel, SessionPlan
from repro.sim.engine import EventScheduler
from repro.sim.rng import RngStreams
from repro.trace.dataset import TraceDataset
from repro.workload.selection import VideoSelector
from repro.workload.session import SessionTracker


@dataclass
class ExperimentResult:
    """Everything a bench needs from one run."""

    metrics: ExperimentMetrics
    # Run-level counters, gated and aggregated like the metrics' scalars.
    server_requests: int = metric(0.0, 0.02)
    tracker_lookups: int = metric(0.0, 0.02)
    events_processed: int = metric(0.0, 0.02)
    sim_duration_s: float

    def render_rows(self):
        rows = list(self.metrics.render_rows())
        rows.append(
            f"  server: {self.server_requests} direct serves, "
            f"{self.tracker_lookups} tracker lookups; "
            f"{self.events_processed} events over {self.sim_duration_s/3600.0:.1f} sim hours"
        )
        return rows


class ExperimentRunner:
    """Builds and runs the experiment one spec describes.

    ``dataset`` short-circuits trace synthesis with a pre-built corpus
    (the shared trace cache, a worker's deserialized snapshot).  The
    network is the one ``spec.environment`` names.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        dataset: Optional[TraceDataset] = None,
        tracer=None,
    ):
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                "ExperimentRunner takes an ExperimentSpec; build one "
                "(see ExperimentSpec.with_params/with_seed) and call run_spec"
            )
        self.spec = spec
        config = spec.config
        self.config = config
        self.environment = environment_by_name(spec.environment)
        self.params = spec.resolved_params()

        # Each run owns an independent stream family rooted at its
        # spec's seed -- the contract that makes parallel sweeps
        # byte-identical to serial execution (see RngStreams.for_run).
        streams = RngStreams.for_run(config.seed)
        self._rng_workload = streams.stream("workload")
        self._rng_churn = streams.stream("churn")
        self._rng_latency = streams.stream("latency")
        self._rng_protocol = streams.stream("protocol")
        self._rng_capacity = streams.stream("peer-capacity")
        self._rng_failures = streams.stream("failures")

        self.dataset = dataset or shared_trace_cache.dataset_for(config.trace)
        if config.num_nodes > self.dataset.num_users:
            raise ValueError("config.num_nodes exceeds dataset population")

        self.latency = self.environment.latency_factory(self._rng_latency)
        self.scheduler = EventScheduler()
        # One tracer flows through every substrate; it reads the
        # scheduler's virtual clock so traces are a pure function of the
        # spec (byte-identical across serial and parallel execution).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(lambda: self.scheduler.now)
        self.scheduler.tracer = self.tracer
        # Time-series runs ask for periodic engine.tick gauge rows; the
        # period rides on the tracer so one object configures the whole
        # observation pipeline (see repro.obs.timeseries).
        tick_every = getattr(self.tracer, "tick_every_s", None)
        if tick_every:
            self.scheduler.enable_ticks(tick_every)
        self.server = CentralServer(
            self.dataset,
            capacity_bps=config.effective_server_bandwidth_bps,
            rng=streams.stream("server"),
        )
        self.protocol = create_protocol(
            spec.protocol,
            self.dataset,
            self.server,
            self._rng_protocol,
            params=self.params,
        )
        self.protocol.now_fn = lambda: self.scheduler.now
        self.protocol.tracer = self.tracer
        self.server.tracer = self.tracer
        self.server.uplink.tracer = self.tracer
        self.selector = VideoSelector(self.dataset, self._rng_workload)
        self.sessions = SessionTracker(
            config.sessions_per_user,
            config.videos_per_session,
            tracer=self.tracer,
        )
        self.churn = ChurnModel(
            SessionPlan(
                sessions_per_user=config.sessions_per_user,
                videos_per_session=config.videos_per_session,
                mean_off_time=config.mean_off_time_s,
            ),
            self._rng_churn,
            tracer=self.tracer,
        )
        self.metrics = MetricsCollector(
            protocol=self.protocol.name, environment=self.environment.name
        )
        self._node_ids = list(range(config.num_nodes))
        for node_id in self._node_ids:
            state = PeerState(
                user_id=node_id,
                upload_capacity_bps=self._rng_capacity.uniform(
                    config.peer_upload_min_bps, config.peer_upload_max_bps
                ),
                prefetch_capacity=config.prefetch_store_capacity,
            )
            if self.tracer:
                state.uplink.tracer = self.tracer
            self.protocol.register_peer(state)
        # The fault driver (repro.faults) exists only for a nonzero plan;
        # without it each fault hook below is one None check.
        plan = spec.resolved_faults()
        self.faults = FaultInjector(plan, streams, self) if plan else None

    # -- delay model ----------------------------------------------------------

    def _path_delay(self, path) -> float:
        """One-way forwarding along the query path + provider response."""
        total = 0.0
        for src, dst in zip(path, path[1:]):
            total += self.latency.sample(src, dst)
        if path:
            total += self.latency.sample(path[-1], path[0])
        return total

    def _failed_flood_delay(self, requester: int, hops: int) -> float:
        """Cost of exhausting a flood before falling back (per DESIGN.md:
        per-hop latency approximated by requester<->server samples)."""
        total = 0.0
        for _ in range(max(1, hops)):
            total += 2.0 * self.latency.sample(requester, SERVER_NODE_ID)
        return total

    def _server_rtt(self, requester: int) -> float:
        return (
            self.latency.rtt(requester, SERVER_NODE_ID)
            + self.environment.server_processing_delay
        )

    # -- request handling ---------------------------------------------------------

    def _serve_request(self, user_id: int, video_id: int, force: bool):
        """Resolve one video request; returns (startup_delay_s, grant,
        lookup, prefetch_hit, stall_s, rate_bps).  ``force`` makes the
        server admit a server serve regardless of admission control.

        The span carries ``cluster`` -- the requested video's interest
        category, i.e. the paper's per-community unit -- so the
        time-series layer can attribute request load per cluster
        without a dataset in hand at replay time.
        """
        with self.tracer.span(
            "request.serve",
            node=user_id,
            video=video_id,
            cluster=self.dataset.category_of_video(video_id),
        ):
            return self._serve_request_inner(user_id, video_id, force)

    def _serve_request_inner(self, user_id: int, video_id: int, force: bool):
        cfg = self.config
        faults = self.faults
        peer = self.protocol.state(user_id)
        lookup = self.protocol.locate(user_id, video_id)

        if lookup.from_cache:
            self.metrics.record_chunks(user_id, ChunkSource.CACHE, cfg.chunks_per_video)
            self.metrics.record_playback(user_id, 1.0, 0.0)
            if self.tracer:
                self.tracer.event(
                    "transfer.chunks",
                    node=user_id,
                    video=video_id,
                    source="cache",
                    chunks=cfg.chunks_per_video,
                )
            return cfg.local_playback_delay_s, None, lookup, False, 0.0, 0.0

        # Transient WAN failure: the chosen peer connection breaks and
        # the request falls back to the server.
        if (
            lookup.from_peer
            and self.environment.peer_failure_prob > 0
            and self._rng_failures.random() < self.environment.peer_failure_prob
        ):
            if self.tracer:
                self.tracer.event(
                    "request.peer_failure",
                    node=user_id,
                    provider=lookup.provider_id,
                )
            lookup = lookup.server_fallback()

        retry_delay = 0.0
        if faults and lookup.from_peer:
            lookup, retry_delay = faults.relocate_lost(user_id, video_id, lookup)

        prefetch_entry = peer.take_prefetch(video_id)
        if self.tracer:
            self.tracer.event(
                "prefetch.lookup",
                node=user_id,
                video=video_id,
                hit=prefetch_entry is not None,
            )
        video_bits = cfg.video_bits(self.dataset.video_length(video_id))
        buffer_bits = cfg.startup_buffer_bits()

        if lookup.from_peer:
            provider = self.protocol.state(lookup.provider_id)
            grant = provider.uplink.admit(video_bits)
            # A slow-peer episode degrades the granted share; with
            # faults off the effective rate IS the granted rate, so the
            # arithmetic below is bit-identical to the pre-fault path.
            rate_bps = faults.peer_rate(grant.rate_bps) if faults else grant.rate_bps
            if lookup.query_path:
                query_delay = self._path_delay(lookup.query_path)
            else:
                query_delay = self._server_rtt(user_id) + self.latency.rtt(
                    user_id, lookup.provider_id
                )
            chunk_source = ChunkSource.PEER
        else:
            grant = self.server.serve(video_bits, force=force)
            rate_bps = grant.rate_bps
            if faults:
                rate_bps = faults.server_rate(rate_bps, self.scheduler.now)
            query_delay = self._failed_flood_delay(user_id, lookup.hops)
            query_delay += self._server_rtt(user_id)
            chunk_source = ChunkSource.SERVER
        if retry_delay:
            query_delay += retry_delay

        prefetch_hit = prefetch_entry is not None
        if prefetch_hit:
            # The first chunk is already local; playback starts now and
            # the provider is fetched in the background.
            startup = cfg.local_playback_delay_s
            self.metrics.record_chunks(user_id, prefetch_entry.source, 1)
            self.metrics.record_chunks(
                user_id, chunk_source, cfg.chunks_per_video - 1
            )
        else:
            startup = (
                query_delay
                + buffer_bits / rate_bps
                + cfg.local_playback_delay_s
            )
            self.metrics.record_chunks(user_id, chunk_source, cfg.chunks_per_video)

        if self.tracer:
            self.tracer.event(
                "transfer.chunks",
                node=user_id,
                video=video_id,
                source=chunk_source.value,
                chunks=cfg.chunks_per_video - (1 if prefetch_hit else 0),
                rate_bps=rate_bps,
            )

        # Chunk-level playback: stalls occur when the effective rate
        # falls below the bitrate (e.g. a saturated server share).
        playback = simulate_playback(
            video_length_s=self.dataset.video_length(video_id),
            bitrate_bps=cfg.video_bitrate_bps,
            transfer_rate_bps=rate_bps,
            chunks=cfg.chunks_per_video,
            startup_buffer_s=cfg.startup_buffer_s,
            prefetched_first_chunk=prefetch_hit,
            tracer=self.tracer,
            node=user_id,
            video=video_id,
        )
        self.metrics.record_playback(
            user_id, playback.continuity_index, playback.total_stall_s
        )
        stall_s = playback.total_stall_s
        return startup, grant, lookup, prefetch_hit, stall_s, rate_bps

    def _do_prefetch(self, user_id: int, video_id: int) -> None:
        """Prefetch first chunks while watching (Section IV-B); the
        protocol's own window bounds the picks."""
        peer = self.protocol.state(user_id)
        candidates = self.protocol.select_prefetch(user_id, video_id)
        if self.tracer and candidates:
            self.tracer.event(
                "prefetch.select",
                node=user_id,
                watching=video_id,
                count=len(candidates),
            )
        for candidate in candidates:
            source = self.protocol.prefetch_source(user_id, candidate)
            peer.store_prefetch(candidate, source, self.scheduler.now)
            if self.tracer:
                self.tracer.event(
                    "prefetch.store",
                    node=user_id,
                    video=candidate,
                    source=source.value,
                )
            # First chunks are ~15 KB (Section V): "the prefetching
            # cost can be negligible", so no bandwidth is charged.

    # -- user lifecycle ---------------------------------------------------------------

    def _start_session(self, user_id: int) -> None:
        if self.tracer:
            self.tracer.event("churn.join", node=user_id)
        self.sessions.begin_session(user_id)
        self.protocol.on_session_start(user_id)
        self.selector.start_session(user_id)
        if self.faults:
            self.faults.session_started(user_id)
        self._request_next_video(user_id)

    def _request_next_video(
        self, user_id: int, video_id: Optional[int] = None, shed_attempts: int = 0
    ) -> None:
        if shed_attempts and not self.protocol.state(user_id).online:
            return  # the requester crashed during its shed backoff
        if video_id is None:
            video_id = self.selector.next_video(user_id)
        faults = self.faults
        # Only a fault run sheds (flash crowd); past the shed budget the
        # server admits the retry regardless of admission control.
        force = shed_attempts > 0 and shed_attempts > faults.retry.max_retries
        try:
            served = self._serve_request(user_id, video_id, force)
        except ServerOverloadError:
            faults.shed_retry(user_id, video_id, shed_attempts)
            return
        startup, grant, lookup, prefetch_hit, stall_s, rate_bps = served
        self.metrics.record_request(
            user_id=user_id,
            startup_delay_s=startup,
            from_server=lookup.from_server,
            from_cache=lookup.from_cache,
            hops=lookup.hops,
            peers_contacted=lookup.peers_contacted,
            prefetch_hit=prefetch_hit,
        )
        self.protocol.on_watch_started(user_id, video_id)
        # Fig 18 samples the links the node maintains while it watches
        # its n-th video of the session.
        video_index = self.sessions.record_video(user_id)
        links = self.protocol.link_count(user_id)
        self.metrics.record_overhead(user_id, video_index, links)
        if self.tracer:
            # The per-node series behind the time-series overlay_links
            # gauge (repro.obs.timeseries).
            self.tracer.event(
                "overlay.links", node=user_id, links=links, index=video_index
            )
        self._do_prefetch(user_id, video_id)
        watch_time = startup + self.dataset.video_length(video_id) + stall_s
        span_id = None
        if self.tracer:
            if lookup.from_cache:
                source = "cache"
            elif lookup.from_server:
                source = "server"
            else:
                source = "peer"
            # Detached: the stream outlives this callback and ends in
            # _finish_video, a different scheduler event.
            span_id = self.tracer.begin_detached(
                "request.stream", node=user_id, video=video_id, source=source
            )
        finish_event = self.scheduler.schedule(
            watch_time, self._finish_video, user_id, video_id, grant, span_id
        )
        if faults:
            faults.watch_started(
                user_id, lookup, grant, rate_bps, startup, prefetch_hit,
                span_id, finish_event,
            )

    def _finish_video(
        self, user_id: int, video_id: int, grant, span_id=None
    ) -> None:
        if self.faults:
            self.faults.watch_finished(user_id)
        if grant is not None:
            grant.release()
        self.tracer.end(span_id)
        self.protocol.on_watch_finished(user_id, video_id)
        if self.sessions.session_finished(user_id):
            # A leaving node drops its links: repairing them first
            # would be work the same event throws away.
            self._end_session(user_id)
        else:
            self.protocol.on_maintenance(user_id)
            self._request_next_video(user_id)

    def _end_session(self, user_id: int) -> None:
        if self.faults:
            self.faults.session_ended(user_id)
        if self.tracer:
            self.tracer.event("churn.leave", node=user_id)
        self.protocol.on_session_end(user_id)
        self._close_session(user_id)

    def _close_session(self, user_id: int) -> None:
        """The session is over (left or crashed): schedule the next one."""
        self.sessions.end_session(user_id)
        if not self.sessions.all_sessions_done(user_id):
            self.scheduler.schedule(
                self.churn.off_duration(), self._start_session, user_id
            )

    # -- run --------------------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Execute the full experiment; returns the summarised result."""
        for node_id in self._node_ids:
            self.scheduler.schedule(
                self.churn.initial_join_delay(), self._start_session, node_id
            )
        faults = self.faults
        if faults:
            self.metrics.fault_onset_t = faults.arm()
        self.scheduler.run()
        self.metrics.check_chunks(self.config.chunks_per_video)
        # Server-side fault counters live on the server; fold them into
        # the collector so the summary (and the regress gate) sees them.
        self.metrics.record_count(
            "tracker_lookup_failures", self.server.tracker_lookup_failures
        )
        self.metrics.record_count("server_sheds", self.server.requests_shed)
        metrics = self.metrics.summarize()
        if faults:
            faults.check_ledger(metrics)
        return ExperimentResult(
            metrics=metrics,
            server_requests=self.server.requests_served,
            tracker_lookups=self.server.tracker_lookups,
            events_processed=self.scheduler.events_processed,
            sim_duration_s=self.scheduler.now,
        )


def run_spec(
    spec: ExperimentSpec,
    dataset: Optional[TraceDataset] = None,
    tracer=None,
) -> ExperimentResult:
    """Execute one spec; the canonical single-run entry point.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) records the run as
    a deterministic trace; the default NULL_TRACER keeps every hook a
    no-op.  See :mod:`repro.obs.export` for turning a traced run into
    JSONL plus a profile report, whose per-name counts and simulated
    time and whose engine-loop wall time a
    :class:`repro.obs.perf.PerfMeter` sink reads off the rows.
    """
    return ExperimentRunner(spec, dataset=dataset, tracer=tracer).run()
