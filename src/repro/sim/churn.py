"""Churn: the session on/off process.

Section V of the paper: *"Each node is assumed to watch ten videos in one
session.  One experiment consists of 250 sessions for each user.  Each
node leaves the system after each session and joins in the system for the
next session; the off time periods for a user's sessions are determined
using a Poisson distribution with mean of 500s."*

We model a user's lifetime as alternating ON (session) and OFF periods.
The OFF period lengths are exponential draws with the configured mean
(the paper's "Poisson distribution" for off-times describes the Poisson
arrival process whose inter-arrival gaps are exponential; we follow the
standard reading, matching [27]'s Poisson user-arrival observation).
Session length is implied by watching a fixed number of videos, so the
churn model only decides *when* the next session starts once the current
one ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random


@dataclass
class SessionPlan:
    """The static per-user session parameters for an experiment."""

    sessions_per_user: int
    videos_per_session: int
    mean_off_time: float

    def __post_init__(self) -> None:
        if self.sessions_per_user < 1:
            raise ValueError("sessions_per_user must be >= 1")
        if self.videos_per_session < 1:
            raise ValueError("videos_per_session must be >= 1")
        if self.mean_off_time < 0:
            raise ValueError("mean_off_time must be >= 0")


class ChurnModel:
    """Draws per-user off-period durations and initial join jitter.

    The initial join times are spread uniformly over ``warmup_window``
    seconds so that 10,000 nodes do not all hit the server at t=0 (the
    paper's simulator likewise staggers arrivals; an instantaneous flash
    crowd is not the phenomenon under study).
    """

    def __init__(
        self,
        plan: SessionPlan,
        rng: Random,
        warmup_window: float = 600.0,
        tracer=None,
    ):
        if warmup_window < 0:
            raise ValueError("warmup_window must be >= 0")
        self.plan = plan
        self._rng = rng
        self.warmup_window = warmup_window
        #: Optional repro.obs tracer: each drawn delay becomes a trace
        #: event, making the churn process inspectable without touching
        #: the RNG stream.
        self.tracer = tracer

    def initial_join_delay(self) -> float:
        """Delay before a user's first session begins."""
        delay = self._rng.uniform(0.0, self.warmup_window)
        if self.tracer:
            self.tracer.event("churn.join_delay", delay=delay)
        return delay

    def off_duration(self) -> float:
        """Length of the OFF gap between two consecutive sessions."""
        if self.plan.mean_off_time == 0:
            return 0.0
        duration = self._rng.expovariate(1.0 / self.plan.mean_off_time)
        if self.tracer:
            self.tracer.event("churn.off_time", dur=duration)
        return duration
