"""Canonical JSONL trace export and the profile report.

A trace artifact is a JSON-Lines file: one header row identifying the
run (schema version, :meth:`ExperimentSpec.content_hash`, protocol,
seed, environment), then the span/event rows in emission order.
Serialization is canonical -- sorted keys, compact separators,
``repr``-stable floats -- so the bytes of a trace are a pure function
of its spec: running the same spec twice, in-process or in a worker of
:func:`repro.experiments.parallel.run_sweep`, produces byte-identical
files (tested by ``tests/test_obs_determinism.py``).

The profile report is what ``python -m repro profile`` writes beside
the trace: a :class:`repro.obs.perf.PerfMeter` sink folds the live rows
into a count, inclusive simulated seconds and wall seconds per row
name, the busiest nodes, and the event-loop throughput.

Example::

    from repro.obs.export import render_profile, run_profiled

    result, jsonl, report = run_profiled(spec)
    open(path, "wb").write(jsonl)
    print(render_profile(report))
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import ExperimentResult, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.obs.perf import PERF_SCHEMA_VERSION, PerfMeter
from repro.obs.tracer import TRACE_SCHEMA_VERSION, Tracer


def trace_header(spec: ExperimentSpec) -> Dict[str, Any]:
    """The identifying first row of a trace artifact.

    Fault-injected runs (a nonzero ``spec.faults``) carry a ``faults``
    marker, which tells the time-series replay path to enable the
    fault-recovery columns; fault-free headers are byte-identical to
    headers predating fault injection.

    Example::

        header = trace_header(spec)
        assert header["content_hash"] == spec.content_hash()
    """
    header = {
        "kind": "header",
        "schema": TRACE_SCHEMA_VERSION,
        "content_hash": spec.content_hash(),
        "protocol": spec.protocol,
        "environment": spec.environment,
        "seed": spec.seed,
    }
    if spec.has_faults():
        header["faults"] = True
    return header


def _canonical_row(row: Dict[str, Any]) -> str:
    """One row as canonical JSON (sorted keys, compact separators)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"), default=str)


def trace_to_jsonl_bytes(header: Dict[str, Any], rows: List[Dict[str, Any]]) -> bytes:
    """Serialize the header row and the trace rows to canonical JSONL."""
    lines = [_canonical_row(header)]
    lines.extend(_canonical_row(row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_jsonl_bytes(payload: bytes) -> List[Dict[str, Any]]:
    """Inverse of :func:`trace_to_jsonl_bytes` (header row included)."""
    return [json.loads(line) for line in payload.decode("utf-8").splitlines() if line]


def write_trace(path: str, payload: bytes) -> str:
    """Write trace bytes to ``path`` (creating parent dirs); returns ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(payload)
    return path


def trace_filename(spec: ExperimentSpec) -> str:
    """Artifact name keyed by the spec's identity: protocol + hash prefix."""
    return f"trace_{spec.protocol}_{spec.content_hash()[:16]}.jsonl"


# ---------------------------------------------------------------------------
# traced / profiled execution


def run_traced(
    spec: ExperimentSpec,
    dataset: Optional[object] = None,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    tick_every_s: Optional[float] = None,
) -> Tuple[ExperimentResult, bytes]:
    """Execute one spec with a live tracer; returns the result and its JSONL.

    This is the one place a traced run is built.  The tracer is created
    here (one per run -- tracers are not shared across runs, matching
    the per-run RNG stream discipline) and wired through the runner
    into every instrumented substrate.  ``sink`` sees every row as it
    is emitted (a :class:`repro.obs.perf.PerfMeter` or a time-series
    collector); ``tick_every_s`` asks the engine for one
    ``engine.tick`` gauge row per that many virtual seconds.  Neither
    changes a trace byte.

    Example::

        result, jsonl = run_traced(spec)
        rows = parse_jsonl_bytes(jsonl)     # header first
    """
    tracer = Tracer(sink=sink, tick_every_s=tick_every_s)
    result = run_spec(spec, dataset=dataset, tracer=tracer)
    return result, trace_to_jsonl_bytes(trace_header(spec), tracer.rows())


def run_profiled(
    spec: ExperimentSpec,
) -> Tuple[ExperimentResult, bytes, Dict[str, Any]]:
    """Trace one spec with a :class:`PerfMeter` sink; the ``repro profile`` core.

    Returns the result, the trace JSONL and the profile report
    (:func:`build_profile_report`).  The meter only reads rows, so the
    trace bytes equal :func:`run_traced`'s.

    Example::

        result, jsonl, report = run_profiled(spec)
        print(render_profile(report))
    """
    meter = PerfMeter()
    result, jsonl = run_traced(spec, sink=meter.observe_row)
    return result, jsonl, build_profile_report(spec, result, meter)


# ---------------------------------------------------------------------------
# profile report

#: Top-level keys of a profile report (:func:`build_profile_report`).
#: Documented in docs/performance.md (cross-checked by
#: tools/check_docs.py).
PERF_REPORT_FIELDS: Tuple[str, ...] = (
    "schema",
    "content_hash",
    "protocol",
    "environment",
    "seed",
    "engine",
    "names",
    "busiest_nodes",
)


def build_profile_report(
    spec: ExperimentSpec, result: ExperimentResult, meter: PerfMeter
) -> Dict[str, Any]:
    """Fold one metered run into the :data:`PERF_REPORT_FIELDS` dict."""
    return {
        "schema": PERF_SCHEMA_VERSION,
        "content_hash": spec.content_hash(),
        "protocol": spec.protocol,
        "environment": spec.environment,
        "seed": spec.seed,
        "engine": {
            "wall_s": meter.wall_s,
            "events": meter.events,
            "events_per_s": meter.events_per_s(),
            "rows": meter.rows,
            "rows_per_s": meter.rows_per_s(),
            "sim_duration_s": result.sim_duration_s,
        },
        "names": meter.by_name(),
        "busiest_nodes": [
            {"node": node, "rows": rows} for node, rows in meter.busiest_nodes()
        ],
    }


def profile_report_to_json_bytes(report: Dict[str, Any]) -> bytes:
    """Serialize one report to canonical JSON bytes (sorted keys)."""
    return (
        json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    ).encode("utf-8")


def profile_filename(spec: ExperimentSpec) -> str:
    """Report name keyed by the spec's identity: protocol + hash prefix."""
    return f"perf_{spec.protocol}_{spec.content_hash()[:16]}.json"


def render_profile(report: Dict[str, Any]) -> str:
    """The ``python -m repro profile`` table as text.

    The throughput line, then every row name in name order with its
    count and inclusive simulated seconds, then the busiest nodes by
    trace rows.
    """
    engine = report["engine"]
    lines: List[str] = [
        f"profile (schema {report['schema']}) -- "
        f"{report['protocol']} / {report['environment']} / "
        f"seed {report['seed']} / {report['content_hash'][:16]}",
        f"  engine: {engine['events']} events in {engine['wall_s']:.2f} s "
        f"wall ({engine['events_per_s']:.0f} events/s, "
        f"{engine['rows']} rows, {engine['rows_per_s']:.0f} rows/s, "
        f"{engine['sim_duration_s'] / 3600.0:.1f} sim hours)",
        f"  {'name':<24} {'count':>8} {'sim s':>14}",
    ]
    for entry in report["names"]:
        lines.append(
            f"  {entry['name']:<24} {entry['count']:>8} {entry['sim_s']:>14.3f}"
        )
    if report["busiest_nodes"]:
        lines.append("busiest nodes (trace rows)")
        for entry in report["busiest_nodes"]:
            lines.append(f"  node {entry['node']:<19} {entry['rows']:>8} rows")
    return "\n".join(lines)
