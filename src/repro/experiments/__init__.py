"""Evaluation harness: Section V experiments.

* :mod:`repro.experiments.config` -- Table I defaults, environments
  (PeerSim-style simulator vs PlanetLab-style WAN), scaling helpers.
* :mod:`repro.experiments.registry` -- the typed protocol registry:
  per-protocol parameter dataclasses and the one sanctioned protocol
  construction site.
* :mod:`repro.experiments.spec` -- :class:`ExperimentSpec`, the frozen,
  content-hashable description of one run.
* :mod:`repro.experiments.runner` -- drives one spec end to end.
* :mod:`repro.experiments.parallel` -- fans specs across worker
  processes and folds seed sweeps into means + 95% CIs.
* :mod:`repro.experiments.trace_cache` -- content-hash-keyed cache of
  synthesized trace corpora.
* :mod:`repro.experiments.figures` -- regenerates the evaluation
  figures (Figs 15-18) and Table I.
* :mod:`repro.experiments.report` -- renders paper-style text tables.
"""

from repro.experiments.config import (
    ENVIRONMENT_FACTORIES,
    Environment,
    SimulationConfig,
    environment_by_name,
    planetlab_environment,
    simulator_environment,
)
from repro.experiments.parallel import (
    AggregatedResult,
    aggregate_runs,
    aggregate_sweep,
    run_sweep,
    sweep_specs,
)
from repro.experiments.registry import (
    ProtocolEntry,
    create_protocol,
    get_protocol,
    protocol_names,
    register_protocol,
    resolve_params,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    run_spec,
)
from repro.experiments.spec import ExperimentSpec, seed_sweep
from repro.experiments.trace_cache import TraceCache, shared_trace_cache

__all__ = [
    "ENVIRONMENT_FACTORIES",
    "Environment",
    "SimulationConfig",
    "environment_by_name",
    "planetlab_environment",
    "simulator_environment",
    "AggregatedResult",
    "aggregate_runs",
    "aggregate_sweep",
    "run_sweep",
    "sweep_specs",
    "ProtocolEntry",
    "create_protocol",
    "get_protocol",
    "protocol_names",
    "register_protocol",
    "resolve_params",
    "ExperimentResult",
    "ExperimentRunner",
    "run_spec",
    "ExperimentSpec",
    "seed_sweep",
    "TraceCache",
    "shared_trace_cache",
]
