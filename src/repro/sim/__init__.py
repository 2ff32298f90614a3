"""Discrete-event simulation substrate.

This subpackage is the reproduction's stand-in for PeerSim: a small,
deterministic, event-driven simulation kernel on which every protocol
(SocialTube and the baselines) runs.

Public API:

* :class:`repro.sim.engine.EventScheduler` -- the event heap and clock.
* :class:`repro.sim.engine.Event` -- a cancellable, reschedulable
  scheduled callback handle.
* :class:`repro.sim.rng.RngStreams` -- named, independently seeded random
  streams so that sub-systems draw from decoupled sequences.
* :class:`repro.sim.churn.ChurnModel` -- per-node session on/off process
  with Poisson-distributed off periods (Section V of the paper).
"""

from repro.sim.engine import Event, EventScheduler, SimulationError
from repro.sim.churn import ChurnModel, SessionPlan
from repro.sim.rng import RngStreams

__all__ = [
    "Event",
    "EventScheduler",
    "SimulationError",
    "ChurnModel",
    "SessionPlan",
    "RngStreams",
]
