"""Chunk-level streaming playback model.

The evaluation's headline QoS metric is startup delay, but the paper's
motivation (Section I) is broader: "quality of service often suffers
from massive number of requests to the server during peak usage times".
This module models what happens *after* startup: the video's chunks
arrive at the granted transfer rate while playback consumes them at the
bitrate; whenever the playhead reaches a chunk that has not fully
arrived, playback **stalls** until it does.

Given the admission-time rate model (DESIGN.md §5) the whole schedule
is closed-form per chunk, so no extra simulation events are needed:

* chunk ``i`` (0-based) finishes arriving at
  ``t_arrive(i) = (i+1) * chunk_bits / rate``;
* playback would reach the end of chunk ``i`` at
  ``t_play(i) = startup + (i+1) * chunk_seconds + stalls so far``;
* a stall happens whenever ``t_arrive(i) > t_play(i-1) + chunk_seconds``
  -- i.e. the chunk is late even after all earlier waiting.

A transfer at or above the bitrate never stalls once the startup buffer
is filled; a saturated server share below the bitrate stalls
repeatedly, which is PA-VoD's failure mode under load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


class StreamingError(ValueError):
    """Raised for invalid playback-model parameters."""


@dataclass
class PlaybackReport:
    """Outcome of streaming one video at a fixed transfer rate."""

    startup_delay_s: float
    stall_count: int
    total_stall_s: float
    playback_duration_s: float
    #: Per-stall durations in playback order (empty when smooth).
    stalls: List[float] = field(default_factory=list)

    @property
    def continuity_index(self) -> float:
        """Fraction of wall-clock playback time spent *playing*.

        1.0 = perfectly smooth; the standard streaming-QoS continuity
        metric (playback time / (playback time + stall time)).
        """
        total = self.playback_duration_s + self.total_stall_s
        if total <= 0:
            return 1.0
        return self.playback_duration_s / total

    @property
    def smooth(self) -> bool:
        return self.stall_count == 0


def simulate_playback(
    video_length_s: float,
    bitrate_bps: float,
    transfer_rate_bps: float,
    chunks: int,
    startup_buffer_s: float,
    prefetched_first_chunk: bool = False,
    tracer=None,
    node=None,
    video=None,
) -> PlaybackReport:
    """Stream one video and report startup, stalls, and continuity.

    Parameters mirror the experiment config: the video is split into
    ``chunks`` equal chunks; playback needs ``startup_buffer_s`` of
    media buffered before starting (or starts immediately on a
    prefetched first chunk, with the remainder fetched in background).

    ``tracer`` (a truthy :class:`repro.obs.tracer.Tracer`) adds one
    ``playback.stall`` event per stall and a ``playback.report``
    summary, attributed to ``node``/``video``.  The schedule is
    closed-form -- evaluated at a single instant of virtual time -- so
    the per-stall *offsets into playback* travel as event attributes
    rather than as separate timestamps.
    """
    if video_length_s <= 0 or bitrate_bps <= 0:
        raise StreamingError("video length and bitrate must be positive")
    if transfer_rate_bps <= 0:
        raise StreamingError("transfer rate must be positive")
    if chunks < 1:
        raise StreamingError("need at least one chunk")
    if startup_buffer_s < 0:
        raise StreamingError("startup buffer must be non-negative")

    chunk_seconds = video_length_s / chunks
    chunk_bits = bitrate_bps * chunk_seconds

    # Arrival time of the *end* of each chunk, at the granted rate.
    # A prefetched first chunk is already local (arrival 0); the
    # remaining chunks stream from the provider starting at t=0.
    arrivals: List[float] = []
    clock = 0.0
    for index in range(chunks):
        if index == 0 and prefetched_first_chunk:
            arrivals.append(0.0)
            continue
        clock += chunk_bits / transfer_rate_bps
        arrivals.append(clock)

    # Startup: wait until `startup_buffer_s` of media has arrived
    # (clamped to the video length), or start right away on a prefetch.
    if prefetched_first_chunk:
        startup = 0.0  # the prefetched chunk covers the startup buffer
    else:
        buffered_target = min(startup_buffer_s, video_length_s)
        buffered_chunks = max(1, -(-buffered_target // chunk_seconds))  # ceil
        buffered_chunks = min(chunks, int(buffered_chunks))
        startup = arrivals[buffered_chunks - 1]

    # Play through the chunks, stalling on late arrivals.
    stalls: List[float] = []
    playhead = startup  # wall-clock time when the current chunk starts
    for index in range(chunks):
        ready_at = arrivals[index]
        if ready_at > playhead:
            stalls.append(ready_at - playhead)
            if tracer:
                tracer.event(
                    "playback.stall",
                    node=node,
                    video=video,
                    chunk=index,
                    stall_s=ready_at - playhead,
                )
            playhead = ready_at
        playhead += chunk_seconds

    if tracer:
        tracer.event(
            "playback.report",
            node=node,
            video=video,
            stalls=len(stalls),
            stall_s=sum(stalls),
            startup_s=startup,
        )
    return PlaybackReport(
        startup_delay_s=startup,
        stall_count=len(stalls),
        total_stall_s=sum(stalls),
        playback_duration_s=video_length_s,
        stalls=stalls,
    )


@dataclass
class ResumeReport:
    """Outcome of resuming one interrupted transfer from a new provider.

    ``completion_s`` is measured from the *interruption instant*: the
    wall-clock span covering the failover gap, any extra stalls, and the
    remaining playback.  The experiment runner schedules the watch's new
    finish event ``completion_s - resume_gap_s`` after the resume fires.
    """

    stall_count: int
    total_stall_s: float
    completion_s: float
    #: Per-stall durations in playback order (empty when smooth).
    stalls: List[float] = field(default_factory=list)


def simulate_resume(
    video_length_s: float,
    bitrate_bps: float,
    transfer_rate_bps: float,
    chunks: int,
    chunks_done: int,
    playback_position_s: float,
    resume_gap_s: float,
    tracer=None,
    node=None,
    video=None,
) -> ResumeReport:
    """Segmented playback after a mid-transfer provider failover.

    The original provider delivered chunks ``[0, chunks_done)`` before
    crashing; the new provider streams the rest at
    ``transfer_rate_bps`` starting ``resume_gap_s`` after the
    interruption (detection timeout + retries).  The playhead restarts
    at ``playback_position_s`` (where the viewer was when the outage
    hit, at chunk granularity) and walks the remaining chunks with the
    same late-arrival stall rule as :func:`simulate_playback` -- the
    failover gap itself counts as a stall whenever playback needs a
    chunk the outage delayed.

    Returns the extra stalls attributable to the failover plus the
    wall-clock time from interruption to the last chunk both *arrived
    and played* -- closed form, like the happy path, so recovery costs
    no extra simulation events.
    """
    if video_length_s <= 0 or bitrate_bps <= 0:
        raise StreamingError("video length and bitrate must be positive")
    if transfer_rate_bps <= 0:
        raise StreamingError("transfer rate must be positive")
    if chunks < 1:
        raise StreamingError("need at least one chunk")
    if not 0 <= chunks_done < chunks:
        raise StreamingError("chunks_done must be in [0, chunks)")
    if resume_gap_s < 0:
        raise StreamingError("resume gap must be non-negative")

    chunk_seconds = video_length_s / chunks
    chunk_bits = bitrate_bps * chunk_seconds
    position = min(max(playback_position_s, 0.0), video_length_s)
    start_chunk = min(int(position // chunk_seconds), chunks - 1)

    stalls: List[float] = []
    playhead = 0.0  # wall clock since the interruption
    for index in range(start_chunk, chunks):
        if index < chunks_done:
            ready_at = 0.0  # already local when the provider died
        else:
            ready_at = (
                resume_gap_s
                + (index - chunks_done + 1) * chunk_bits / transfer_rate_bps
            )
        if ready_at > playhead:
            stalls.append(ready_at - playhead)
            if tracer:
                tracer.event(
                    "playback.stall",
                    node=node,
                    video=video,
                    chunk=index,
                    stall_s=ready_at - playhead,
                )
            playhead = ready_at
        playhead += chunk_seconds

    if tracer:
        tracer.event(
            "failover.playback",
            node=node,
            video=video,
            stalls=len(stalls),
            stall_s=sum(stalls),
            chunk=start_chunk,
        )
    return ResumeReport(
        stall_count=len(stalls),
        total_stall_s=sum(stalls),
        completion_s=playhead,
        stalls=stalls,
    )


def stall_free_rate(bitrate_bps: float, safety_factor: float = 1.0) -> float:
    """Minimum transfer rate for stall-free playback after startup.

    With equal-size chunks and a filled startup buffer, any rate at or
    above the bitrate is sufficient; ``safety_factor`` adds headroom for
    callers that admit at a load-dependent share.
    """
    if bitrate_bps <= 0:
        raise StreamingError("bitrate must be positive")
    if safety_factor < 1.0:
        raise StreamingError("safety_factor must be >= 1")
    return bitrate_bps * safety_factor
