"""Deterministic fault injection (crash-churn, loss, degradation).

Public surface:

* :class:`repro.faults.plan.FaultPlan` / ``RetryPolicy`` -- the frozen
  fault model carried by :class:`repro.experiments.spec.ExperimentSpec`;
* :class:`repro.faults.injector.FaultInjector` -- the run's fault
  driver: the seeded draws plus every crash, failover and
  infrastructure-fault handler, built only for a nonzero plan.

See DESIGN.md section 9 for the fault model and the recovery protocol.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy

__all__ = [
    "FaultPlan",
    "RetryPolicy",
    "FaultInjector",
]
