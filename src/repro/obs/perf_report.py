"""The sidecar perf report: schema-versioned wall-clock artifact.

A perf report is the wall-clock sibling of the canonical trace: one
JSON document keyed by the spec's ``content_hash`` holding everything
:class:`repro.obs.perf.PerfMeter` measured -- engine throughput and
hotspot attribution.  It lives *next to* the trace, never inside it:
running ``repro perf`` produces a trace byte-identical to ``repro
profile``'s plus this separate artifact (the perf-smoke CI job diffs
the former).

Example::

    run = run_perf(spec)
    open(report_path, "wb").write(perf_report_to_json_bytes(run.report))
    print(render_perf_report(run.report))
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.obs.export import run_traced
from repro.obs.perf import PERF_SCHEMA_VERSION, PerfMeter

#: Top-level keys of a perf report (:func:`build_perf_report`).
#: Documented in docs/performance.md (cross-checked by
#: tools/check_docs.py).
PERF_REPORT_FIELDS: Tuple[str, ...] = (
    "schema",
    "content_hash",
    "protocol",
    "environment",
    "seed",
    "engine",
    "hotspots",
)


def build_perf_report(
    spec: ExperimentSpec,
    result: ExperimentResult,
    meter: PerfMeter,
    top_k: int = 10,
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
        "hotspots": meter.hotspots(top_k),
    }


def perf_report_to_json_bytes(report: Dict[str, Any]) -> bytes:
    """Serialize one report to canonical JSON bytes (sorted keys)."""
    return (
        json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    ).encode("utf-8")


def perf_filename(spec: ExperimentSpec) -> str:
    """Artifact name keyed by the spec's identity: protocol + hash prefix."""
    return f"perf_{spec.protocol}_{spec.content_hash()[:16]}.json"


def render_perf_report(report: Dict[str, Any]) -> str:
    """The ``python -m repro perf`` human summary as text."""
    engine = report["engine"]
    lines: List[str] = [
        f"perf report (schema {report['schema']}) -- "
        f"{report['protocol']} / {report['environment']} / "
        f"seed {report['seed']} / {report['content_hash'][:16]}",
        f"  engine: {engine['events']} events in {engine['wall_s']:.2f} s "
        f"wall ({engine['events_per_s']:.0f} events/s, "
        f"{engine['rows_per_s']:.0f} rows/s, "
        f"{engine['sim_duration_s'] / 3600.0:.1f} sim hours)",
        "hotspots (attributed wall seconds)",
    ]
    for spot in report["hotspots"]:
        lines.append(
            f"  {spot['name']:<24} {spot['rows']:>9} rows "
            f"{spot['wall_s']:>9.3f} s  {100.0 * spot['share']:>5.1f}%"
        )
    return "\n".join(lines)


@dataclass
class PerfRun:
    """One metered run: its result, perf report, and (untouched) trace."""

    spec: ExperimentSpec
    result: ExperimentResult
    report: Dict[str, Any]
    jsonl: bytes


def run_perf(spec: ExperimentSpec, top_k: int = 10) -> PerfRun:
    """Execute one spec with a :class:`PerfMeter` sink; the ``repro perf`` core.

    The meter reads the rows of an ordinary traced run, so the trace
    bytes stay identical to ``run_profiled``'s.

    Example::

        run = run_perf(spec)
        assert run.report["content_hash"] == spec.content_hash()
    """
    meter = PerfMeter()
    result, jsonl = run_traced(spec, sink=meter.observe_row)
    report = build_perf_report(spec, result, meter, top_k=top_k)
    return PerfRun(spec=spec, result=result, report=report, jsonl=jsonl)
