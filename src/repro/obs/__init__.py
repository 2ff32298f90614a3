"""Observability: deterministic tracing and profiling (`repro.obs`).

* :mod:`repro.obs.tracer` -- the span/event API with
  sim-clock timestamps and a zero-cost :data:`NULL_TRACER` no-op mode.
* :mod:`repro.obs.export` -- canonical JSONL trace export keyed by
  ``ExperimentSpec.content_hash`` plus the profile report behind
  ``python -m repro profile``.
* :mod:`repro.obs.perf` -- the sanctioned wall-clock layer:
  :class:`PerfMeter`, the hash-neutral trace-row sink that folds the
  profile's counts and simulated time per name and times the engine
  loop.

This ``__init__`` deliberately re-exports only the leaf primitives:
:mod:`repro.obs.export` pulls in the experiment runner, and the
substrates (``sim.engine`` et al.) import the tracer layer, so
importing the report layer here would create a cycle.  Import it
explicitly::

    from repro.obs import Tracer, NULL_TRACER, PerfMeter
    from repro.obs.export import run_profiled
"""

from repro.obs.perf import PERF_SCHEMA_VERSION, PerfMeter
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    SpanHandle,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "PERF_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "NullTracer",
    "PerfMeter",
    "SpanHandle",
    "Tracer",
]
