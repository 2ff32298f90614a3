"""Wall-clock benchmark for raw engine throughput (events per second).

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick]

Times the production fast path -- ``run_spec`` with ``NULL_TRACER``
and ``NULL_PERF``, warm trace cache -- at the two canonical scales:

* ``nodes_1000``   -- ``default_scale`` shortened to 2 sessions per
  user (a few seconds per run, best of 2);
* ``nodes_10000``  -- ``paper_scale`` (Table I verbatim) shortened to
  1 session per user (~a minute per run, single shot; skipped under
  ``--quick`` so CI stays fast).

``throughput_events_per_s.nodes_1000`` is **the headline** that
``tools/perf_trend.py`` tracks across PRs: it is the number a protocol
or engine regression moves first.  A perf-armed run (a live
:class:`~repro.obs.perf.PerfMeter` passed to ``run_spec``) is timed at
the 1k point for context -- the sidecar meter must ride for free.

The in-script acceptance bar is **constructive**, like
``tests/test_obs_overhead.py``: the marginal cost of one disabled
``if perf:`` guard is measured in isolation (guard loop minus empty
loop, best of N), scaled to two guards per processed event -- a
conservative over-count, since the engine carries only run-level
``if perf:`` guards -- and that projected cost must stay under
``INERT_BAR_PCT`` of the measured 1k-point wall clock.  Run-minus-run
deltas at this scale sit inside scheduler noise; the projection does
not.  Exit is non-zero past the bar.  Measurements go to
``BENCH_engine.json`` at the repo root (shared envelope from
``benchmarks/harness.py``; see ``benchmarks/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.obs.perf import NULL_PERF, PerfMeter

PROTOCOL = "socialtube"
INERT_BAR_PCT = 2.0
GUARDS_PER_EVENT = 2
GUARD_LOOPS = 2_000_000
GUARD_REPEATS = 5
OUTPUT = "BENCH_engine.json"


def _time_empty_loop(loops: int) -> float:
    """Best-of wall seconds for the bare loop the guard loop rides on."""
    best = float("inf")
    for _ in range(GUARD_REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            pass
        best = min(best, time.perf_counter() - t0)
    return best


def _time_guard_loop(loops: int) -> float:
    """Best-of wall seconds for ``loops`` disabled ``if perf:`` checks."""
    perf = NULL_PERF
    best = float("inf")
    for _ in range(GUARD_REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            if perf:
                raise AssertionError("NULL_PERF must stay falsy")
        best = min(best, time.perf_counter() - t0)
    return best


def _point(config: SimulationConfig, repeats: int, armed: bool = False) -> dict:
    """One scale point: base (inert-perf) timing plus event count.

    With ``armed`` a live-meter run is timed too, round-robin with the
    base runs (host-speed drift hits both equally -- the armed delta
    is a difference of timings, exactly the case
    :func:`harness.best_of_each` exists for).
    """
    spec = ExperimentSpec(protocol=PROTOCOL, config=config)
    dataset = shared_trace_cache.dataset_for(config.trace)  # warm the cache
    point = {"config": config, "spec": spec, "repeats": repeats}
    if armed:
        (base_s, result), (armed_s, _) = harness.best_of_each(
            [
                lambda: run_spec(spec, dataset=dataset),
                lambda: run_spec(spec, dataset=dataset, perf=PerfMeter()),
            ],
            repeats=repeats,
        )
        point["armed_s"] = armed_s
    else:
        base_s, result = harness.best_of(
            lambda: run_spec(spec, dataset=dataset), repeats=repeats
        )
    point["base_s"] = base_s
    point["events"] = result.events_processed
    return point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the ~60s nodes_10000 point (CI smoke mode)",
    )
    args = parser.parse_args()

    # The 1k point also times a perf-armed run (a live meter, no
    # tracer -- what `python -m repro perf` pays on the engine leg).
    # Context only; even round-robined the delta sits near scheduler
    # noise, which is exactly why the bar below is constructive.
    points = {
        "nodes_1000": _point(
            SimulationConfig.default_scale().scaled_sessions(2),
            repeats=3,
            armed=True,
        )
    }
    if not args.quick:
        points["nodes_10000"] = _point(
            SimulationConfig.paper_scale().scaled_sessions(1), repeats=1
        )

    p1k = points["nodes_1000"]
    armed_s = p1k["armed_s"]

    # Constructive inert-path bar: per-guard cost measured in
    # isolation, projected to 2 guards per processed event.
    empty_s = _time_empty_loop(GUARD_LOOPS)
    guard_s = _time_guard_loop(GUARD_LOOPS)
    per_guard_ns = max(0.0, (guard_s - empty_s) / GUARD_LOOPS) * 1e9
    projected_s = per_guard_ns * 1e-9 * GUARDS_PER_EVENT * p1k["events"]
    inert_pct = 100.0 * projected_s / p1k["base_s"]

    payload = {
        **harness.envelope(
            "engine throughput at canonical scales (production fast path)",
            "PYTHONPATH=src python benchmarks/bench_engine.py",
        ),
        "run": {
            "protocol": PROTOCOL,
            "points": {
                name: {
                    "num_nodes": p["config"].num_nodes,
                    "sessions_per_user": p["config"].sessions_per_user,
                    "events_processed": p["events"],
                    "repeats_best_of": p["repeats"],
                }
                for name, p in points.items()
            },
        },
        "timings_s": {name: round(p["base_s"], 4) for name, p in points.items()},
        "throughput_events_per_s": {
            name: round(p["events"] / p["base_s"]) for name, p in points.items()
        },
        "perf_armed_nodes_1000": {
            "timings_s": round(armed_s, 4),
            "events_per_s": round(p1k["events"] / armed_s),
            "pct_vs_inert": round(
                100.0 * (armed_s - p1k["base_s"]) / p1k["base_s"], 2
            ),
        },
        "inert_guard": {
            "per_guard_ns": round(per_guard_ns, 2),
            "guards_per_event": GUARDS_PER_EVENT,
            "projected_pct_of_nodes_1000": round(inert_pct, 4),
            "bar_pct": INERT_BAR_PCT,
        },
        "determinism": (
            "the timed path is the canonical run_spec fast path; perf "
            "arming is hash-neutral (asserted byte-for-byte in "
            "tests/test_obs_perf.py and the CI perf-smoke job)"
        ),
        "note": (
            "throughput_events_per_s.nodes_1000 is the headline "
            "tools/perf_trend.py tracks across PRs.  inert_guard is the "
            "constructive <2% bar: per-guard cost of a disabled "
            "`if perf:` check measured in isolation and projected to "
            "two guards per event (a conservative over-count: the "
            "engine has only run-level guards); run-minus-run deltas "
            "at this scale are scheduler noise, the projection is not.  "
            "perf_armed_nodes_1000 records what a live meter costs the "
            "engine leg, for context, no bar.  --quick skips the "
            "minute-long nodes_10000 point; CI uses it, the committed "
            "snapshot must not."
        ),
    }
    path = harness.write_bench(OUTPUT, payload)

    print(json.dumps(payload["throughput_events_per_s"], indent=2))
    print(f"perf-armed 1k point: {payload['perf_armed_nodes_1000']}")
    print(
        f"inert guard: {per_guard_ns:.1f} ns/guard -> "
        f"{inert_pct:.4f}% of nodes_1000 (bar {INERT_BAR_PCT}%)"
    )
    print(f"wrote {path}")
    if harness.bar(
        inert_pct >= INERT_BAR_PCT,
        f"projected inert-guard cost {inert_pct:.4f}% >= {INERT_BAR_PCT}% bar",
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
