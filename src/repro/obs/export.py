"""Canonical JSONL trace export and the profile summary.

A trace artifact is a JSON-Lines file: one header row identifying the
run (schema version, :meth:`ExperimentSpec.content_hash`, protocol,
seed, environment), then the span/event rows in emission order.
Serialization is canonical -- sorted keys, compact separators,
``repr``-stable floats -- so the bytes of a trace are a pure function
of its spec: running the same spec twice, in-process or in a worker of
:func:`repro.experiments.parallel.run_sweep`, produces byte-identical
files (tested by ``tests/test_obs_determinism.py``).

The profile summary folds a trace into the table behind
``python -m repro profile``: simulated time per span name
("time-in-phase"), row counts by name ("events-by-type"), per-node
and per-node hotspots.

Example::

    from repro.obs.export import run_profiled, render_profile

    profiled = run_profiled(spec)
    open(path, "wb").write(profiled.jsonl)
    print(render_profile(profiled.summary))
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import ExperimentResult, run_spec
from repro.experiments.spec import ExperimentSpec
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
# profile summary


@dataclass
class PhaseStat:
    """Aggregate of one span name: how often, how much simulated time."""

    name: str
    count: int = 0
    total_sim_s: float = 0.0


@dataclass
class ProfileSummary:
    """The folded view of one trace: phases, event counts, hotspots.

    ``phases`` maps span name to :class:`PhaseStat` (time is
    *inclusive* simulated time: a parent span's total contains its
    children).  ``events_by_type`` counts every named row.
    ``node_hotspots`` ranks nodes by how many rows carry their
    ``node`` attribute -- the per-node instrumentation cost/activity
    view.
    """

    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    events_by_type: Dict[str, int] = field(default_factory=dict)
    node_hotspots: List[Tuple[int, int]] = field(default_factory=list)
    total_rows: int = 0

    @classmethod
    def from_rows(cls, rows: List[Dict[str, Any]], top_nodes: int = 10) -> "ProfileSummary":
        """Fold parsed trace rows (header tolerated) into a summary.

        Example::

            summary = ProfileSummary.from_rows(parse_jsonl_bytes(payload))
            print(summary.phases["engine.run"].total_sim_s)
        """
        summary = cls()
        span_names: Dict[int, str] = {}
        node_rows: Dict[int, int] = {}
        for row in rows:
            kind = row.get("kind")
            if kind in ("header",):
                continue
            summary.total_rows += 1
            name = row.get("name")
            if kind == "span_begin":
                span_names[row["span"]] = name
                stat = summary.phases.setdefault(name, PhaseStat(name=name))
                stat.count += 1
            elif kind == "span_end":
                name = span_names.get(row["span"])
                if name is not None:
                    summary.phases[name].total_sim_s += row.get("dur", 0.0)
                continue  # span_end rows carry no name; counted at begin
            if name is not None:
                summary.events_by_type[name] = summary.events_by_type.get(name, 0) + 1
            node = row.get("attrs", {}).get("node")
            if isinstance(node, int):
                node_rows[node] = node_rows.get(node, 0) + 1
        ranked = sorted(node_rows.items(), key=lambda item: (-item[1], item[0]))
        summary.node_hotspots = ranked[:top_nodes]
        return summary


def render_profile(summary: ProfileSummary) -> str:
    """The ``python -m repro profile`` summary table as text.

    Three sections: time-in-phase (span names sorted by inclusive
    simulated time), events-by-type (row counts), and the busiest
    nodes.  Output is deterministic: ties break on name/id.
    """
    lines: List[str] = []
    lines.append("time in phase (inclusive sim seconds)")
    phases = sorted(
        summary.phases.values(), key=lambda s: (-s.total_sim_s, s.name)
    )
    for stat in phases:
        lines.append(
            f"  {stat.name:<24} {stat.count:>8} spans  {stat.total_sim_s:>14.3f} s"
        )
    lines.append("events by type")
    for name in sorted(summary.events_by_type):
        lines.append(f"  {name:<24} {summary.events_by_type[name]:>8} rows")
    if summary.node_hotspots:
        lines.append("busiest nodes (trace rows)")
        for node, count in summary.node_hotspots:
            lines.append(f"  node {node:<19} {count:>8} rows")
    lines.append(f"{summary.total_rows} trace rows")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# traced / profiled execution


@dataclass
class ProfiledRun:
    """One traced experiment: its result, trace bytes, and summary."""

    spec: ExperimentSpec
    result: ExperimentResult
    jsonl: bytes
    summary: ProfileSummary


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


def run_profiled(spec: ExperimentSpec) -> ProfiledRun:
    """Trace one spec in-process and fold the trace into a profile summary.

    Example::

        profiled = run_profiled(spec)
        print(render_profile(profiled.summary))
    """
    result, payload = run_traced(spec)
    return ProfiledRun(
        spec=spec,
        result=result,
        jsonl=payload,
        summary=ProfileSummary.from_rows(parse_jsonl_bytes(payload)),
    )
