"""Wall-clock benchmark for fault-injected runs and the resilience grid.

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_faults.py

Times one shortened default-scale run two ways, round-robin --

* ``no_faults``     -- a fault-free spec: the runner builds no fault
  driver, and every fault hook is one ``None`` check;
* ``chaos``         -- :meth:`FaultPlan.demo`, the canonical
  fault-injected run (crashes, failovers, repairs), reported for
  scale, not held to a bar.

It also times one serial pass of the resilience grid (the
``repro chaos --grid`` scorecard: 3 protocols x 4 infrastructure fault
families at smoke scale) as ``timings_s.grid_smoke`` -- the headline
``tools/perf_trend.py`` tracks for this file -- and records the grid's
worst-continuity cell so a resilience collapse shows up in the PR diff.

Measurements go to ``BENCH_faults.json`` at the repo root (same schema
family as ``BENCH_timeseries.json``; see ``benchmarks/README.md``).
That a fault-free run pays nothing for the fault layer is checked
deterministically, not timed: ``tests/test_faults_runner.py``
(``TestDeterminism``) asserts that such a run builds no ``FaultInjector``,
and that a nonzero but inert plan renders the fault-free run's rows.
"""

from __future__ import annotations

import json
import sys

import harness

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.faults.grid import run_grid
from repro.faults.plan import FaultPlan

PROTOCOL = "socialtube"
REPEATS = 3
OUTPUT = "BENCH_faults.json"


def main() -> int:
    # Default scale shortened to 2 sessions: a few seconds per run.
    config = SimulationConfig.default_scale().scaled_sessions(2)
    dataset = shared_trace_cache.dataset_for(config.trace)  # warm the cache
    base = ExperimentSpec(protocol=PROTOCOL, config=config)
    chaos = base.with_faults(FaultPlan.demo())

    chaos_rows = []

    def run_chaos():
        result = run_spec(chaos, dataset=dataset)
        chaos_rows.append(result.render_rows())
        return result

    (plain_s, plain), (chaos_s, chaos_result) = harness.best_of_each(
        [lambda: run_spec(base, dataset=dataset), run_chaos], repeats=REPEATS
    )

    if not chaos_result.metrics.crashes:
        raise AssertionError("the demo plan must crash nodes at this scale")
    if any(rows != chaos_rows[0] for rows in chaos_rows):
        raise AssertionError("the demo-plan run did not replay byte-identically")

    # The resilience grid, timed once (12 smoke cells, serial): the
    # wall-clock price of the full protocols x families scorecard, the
    # quantity the trend table tracks for this file.
    grid_s, grid_cells = harness.best_of(
        lambda: run_grid(seed=2014, scale="smoke", jobs=1), repeats=1
    )
    worst = min(grid_cells, key=lambda cell: cell.continuity)

    events = plain.events_processed
    payload = {
        **harness.envelope(
            "fault-injected run cost (default scale, 2 sessions)",
            "PYTHONPATH=src python benchmarks/bench_faults.py",
        ),
        "run": {
            "protocol": PROTOCOL,
            "num_nodes": config.num_nodes,
            "events_processed": events,
            "repeats_best_of": REPEATS,
        },
        "timings_s": {
            "no_faults": round(plain_s, 4),
            "chaos": round(chaos_s, 4),
            "grid_smoke": round(grid_s, 4),
        },
        "throughput_events_per_s": {
            "no_faults": round(events / plain_s),
            "chaos": round(chaos_result.events_processed / chaos_s),
        },
        "chaos_pct_vs_no_faults": round(100.0 * (chaos_s - plain_s) / plain_s, 2),
        "chaos_recovery": {
            "crashes": chaos_result.metrics.crashes,
            "interrupted_transfers": chaos_result.metrics.interrupted_transfers,
            "failover_peer_resumes": chaos_result.metrics.failover_peer_resumes,
            "failover_server_fallbacks": chaos_result.metrics.failover_server_fallbacks,
        },
        "grid": {
            "cells": len(grid_cells),
            "scale": "smoke",
            "seed": 2014,
            "worst_continuity": {
                "protocol": worst.protocol,
                "family": worst.family,
                "continuity": round(worst.continuity, 4),
            },
        },
        "determinism": (
            "every round of the FaultPlan.demo() run rendered "
            "byte-identical metric rows"
        ),
        "note": (
            "timings_s are best-of-rounds minima, the two runs timed "
            "round-robin.  grid_smoke is the headline.  chaos is "
            "FaultPlan.demo() for scale: recovery work (failover "
            "re-searches, resume scheduling, repair sweeps) is real "
            "load, not overhead, and crashes cut sessions short.  "
            "The fault-free path is checked deterministically by "
            "tests/test_faults_runner.py::TestDeterminism, not timed."
        ),
    }
    path = harness.write_bench(OUTPUT, payload)

    print(json.dumps(payload["timings_s"], indent=2))
    print(f"chaos vs no-faults: {payload['chaos_pct_vs_no_faults']}%")
    print(
        f"resilience grid: {len(grid_cells)} cells in {grid_s:.2f}s "
        f"(worst continuity {worst.continuity:.4f}: "
        f"{worst.protocol}/{worst.family})"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
