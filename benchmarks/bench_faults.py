"""Wall-clock benchmark for the fault-injection hook overhead.

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_faults.py

Times one shortened default-scale run three ways --

* ``no_faults``     -- a fault-free spec: the runner builds no fault
  driver, and every fault hook is one ``None`` check;
* ``hooks_armed``   -- a nonzero :class:`FaultPlan` whose faults can
  never alter the run: brownouts with ``brownout_factor=1.0`` and no
  crash/loss/slow-peer rates.  The injector is real, every watch is
  tracked, every serve consults the brownout clock -- the full
  bookkeeping cost with zero recovery work and zero RNG draws;
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
The headline is ``hooks_pct_vs_no_faults``: the price a *fault-free*
experiment pays for the hooks existing.  It is the median over the
rounds of the paired ``(armed - plain) / plain``, each pair timed back
to back, so one fast or slow outlier of either leg moves it by at most
one rank; the per-round values and their interquartile range are
recorded beside it.  The acceptance bar is <3%, asserted here (exit
non-zero past the bar) -- the ``no_faults`` path must stay effectively
free.
"""

from __future__ import annotations

import json
import statistics
import sys

import harness

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.faults.grid import run_grid
from repro.faults.plan import FaultPlan

PROTOCOL = "socialtube"
# Five round-robin rounds: on a noisy single-core container the
# per-round jitter of a ~7 s run can exceed the 3% bar all by itself,
# and the median of five paired differences discards the two most
# extreme rounds.
REPEATS = 5
OVERHEAD_BAR_PCT = 3.0
OUTPUT = "BENCH_faults.json"

#: Nonzero per ``is_zero`` (so the injector and every runner hook are
#: live) yet behaviourally inert: factor 1.0 leaves server rates
#: untouched and no other class can fire, so no RNG is drawn and no
#: recovery path runs.  This isolates the pure bookkeeping cost.
ARMED_INERT_PLAN = FaultPlan(
    brownout_period_s=600.0, brownout_duty=0.5, brownout_factor=1.0
)


def main() -> int:
    # Default scale shortened to 2 sessions: a few seconds per run, so
    # a <3% bar sits well above perf_counter noise (smoke scale runs in
    # ~0.15 s where the timer jitter alone exceeds the bar).
    config = SimulationConfig.default_scale().scaled_sessions(2)
    dataset = shared_trace_cache.dataset_for(config.trace)  # warm the cache
    base = ExperimentSpec(protocol=PROTOCOL, config=config)
    armed = base.with_faults(ARMED_INERT_PLAN)
    chaos = base.with_faults(FaultPlan.demo())

    # Round-robin repeats: the headline is the plain-vs-armed *delta*,
    # and running the configurations in blocks lets host-speed drift
    # alone exceed the 3% bar.
    (plain_t, armed_t, chaos_t), (plain, armed_result, chaos_result) = (
        harness.rounds_of_each(
            [
                lambda: run_spec(base, dataset=dataset),
                lambda: run_spec(armed, dataset=dataset),
                lambda: run_spec(chaos, dataset=dataset),
            ],
            repeats=REPEATS,
        )
    )
    plain_s, armed_s, chaos_s = min(plain_t), min(armed_t), min(chaos_t)

    if armed_result.metrics.crashes or armed_result.metrics.interrupted_transfers:
        raise AssertionError("the armed-inert plan must never fire a fault")
    if not chaos_result.metrics.crashes:
        raise AssertionError("the demo plan must crash nodes at this scale")
    # The inert plan changes the spec hash but must not change a single
    # simulated outcome -- the strongest statement that hook cost is
    # pure bookkeeping.  (The fault ledger row only renders when a
    # crash or interruption happened, so the row lists match exactly.)
    if armed_result.render_rows() != plain.render_rows():
        raise AssertionError("armed-inert run drifted from the no-faults run")

    # The resilience grid, timed once (12 smoke cells, serial): the
    # wall-clock price of the full protocols x families scorecard, the
    # quantity the trend table tracks for this file.
    grid_s, grid_cells = harness.best_of(
        lambda: run_grid(seed=2014, scale="smoke", jobs=1), repeats=1
    )
    worst = min(grid_cells, key=lambda cell: cell.continuity)

    round_pcts = [100.0 * (a - p) / p for p, a in zip(plain_t, armed_t)]
    hooks_pct = statistics.median(round_pcts)
    q1, _median, q3 = statistics.quantiles(round_pcts, n=4, method="inclusive")
    events = plain.events_processed
    payload = {
        **harness.envelope(
            "fault-injection hook overhead (default scale, 2 sessions)",
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
            "hooks_armed": round(armed_s, 4),
            "chaos": round(chaos_s, 4),
            "grid_smoke": round(grid_s, 4),
        },
        "throughput_events_per_s": {
            "no_faults": round(events / plain_s),
            "hooks_armed": round(events / armed_s),
            "chaos": round(chaos_result.events_processed / chaos_s),
        },
        "hooks_pct_vs_no_faults": round(hooks_pct, 2),
        "hooks_pct_per_round": [round(pct, 2) for pct in round_pcts],
        "hooks_pct_iqr": round(q3 - q1, 2),
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
        "overhead_bar_pct": OVERHEAD_BAR_PCT,
        "determinism": (
            "armed-inert run rendered byte-identical metric rows to "
            "the no-faults run"
        ),
        "note": (
            "hooks_armed runs a nonzero-but-inert FaultPlan (brownout "
            "factor 1.0, nothing else): the injector is constructed, "
            "every watch is tracked and every serve consults the "
            "brownout clock, but no fault ever fires and no RNG is "
            "drawn.  hooks_pct_vs_no_faults is therefore the full "
            "bookkeeping cost the fault layer adds to a run that uses "
            "it without faults; the no_faults row itself is a "
            "fault-free spec, for which no fault driver is built and "
            "each hook costs one None check.  hooks_pct_vs_no_faults "
            "is the median of the per-round paired percentages "
            "(hooks_pct_per_round, spread hooks_pct_iqr); timings_s "
            "are best-of-rounds minima.  chaos is FaultPlan.demo() "
            "for scale: recovery work (failover re-searches, resume "
            "scheduling, repair sweeps) is real load, not overhead."
        ),
    }
    path = harness.write_bench(OUTPUT, payload)

    print(json.dumps(payload["timings_s"], indent=2))
    print(
        f"hooks overhead vs no-faults: {payload['hooks_pct_vs_no_faults']}% "
        f"(median of {payload['hooks_pct_per_round']}, "
        f"IQR {payload['hooks_pct_iqr']})"
    )
    print(f"chaos vs no-faults: {payload['chaos_pct_vs_no_faults']}%")
    print(
        f"resilience grid: {len(grid_cells)} cells in {grid_s:.2f}s "
        f"(worst continuity {worst.continuity:.4f}: "
        f"{worst.protocol}/{worst.family})"
    )
    print(f"wrote {path}")
    if harness.bar(
        hooks_pct >= OVERHEAD_BAR_PCT,
        f"median hook overhead {hooks_pct:.2f}% >= {OVERHEAD_BAR_PCT}% bar",
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
