"""Wall-clock benchmark for raw engine throughput (events per second).

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick]

Times the production fast path -- ``run_spec`` with ``NULL_TRACER``,
warm trace cache -- at three points:

* ``nodes_1000``   -- ``default_scale`` shortened to 2 sessions per
  user (a few seconds per run, best of 3);
* ``nodes_10000``  -- ``paper_scale`` (Table I verbatim) shortened to
  1 session per user (~a minute per run, single shot; skipped under
  ``--quick`` so CI stays fast);
* ``nettube_1000`` -- NetTube at the ``nodes_1000`` config (best of 3),
  the arm that sets what a five-arm paper-scale comparison costs.

The two ``nodes_*`` points, the canonical scales, run SocialTube.

``throughput_events_per_s.nodes_1000`` is **the headline** that
``tools/perf_trend.py`` tracks across PRs: it is the number a protocol
or engine regression moves first.  There is no in-script bar: the
runner carries no perf hook, and the wall-clock meter
(:mod:`repro.obs.perf`) is a trace sink, so it rides only on traced
runs.  Measurements go to ``BENCH_engine.json`` at the repo root
(shared envelope from ``benchmarks/harness.py``; see
``benchmarks/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache

OUTPUT = "BENCH_engine.json"


def _point(protocol: str, config: SimulationConfig, repeats: int) -> dict:
    """One scale point: best-of timing plus event count."""
    spec = ExperimentSpec(protocol=protocol, config=config)
    dataset = shared_trace_cache.dataset_for(config.trace)  # warm the cache
    base_s, result = harness.best_of(
        lambda: run_spec(spec, dataset=dataset), repeats=repeats
    )
    return {
        "protocol": protocol,
        "config": config,
        "repeats": repeats,
        "base_s": base_s,
        "events": result.events_processed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the ~60s nodes_10000 point (CI smoke mode)",
    )
    args = parser.parse_args()

    nodes_1000 = SimulationConfig.default_scale().scaled_sessions(2)
    points = {"nodes_1000": _point("socialtube", nodes_1000, repeats=3)}
    if not args.quick:
        points["nodes_10000"] = _point(
            "socialtube", SimulationConfig.paper_scale().scaled_sessions(1), repeats=1
        )
    points["nettube_1000"] = _point("nettube", nodes_1000, repeats=3)

    payload = {
        **harness.envelope(
            "engine throughput at canonical scales (production fast path)",
            "PYTHONPATH=src python benchmarks/bench_engine.py",
        ),
        "run": {
            "points": {
                name: {
                    "protocol": p["protocol"],
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
        "determinism": (
            "the timed path is the canonical run_spec fast path; the perf "
            "meter is a trace sink that changes no byte (asserted in "
            "tests/test_obs_perf.py)"
        ),
        "note": (
            "throughput_events_per_s.nodes_1000 is the headline "
            "tools/perf_trend.py tracks across PRs.  --quick skips the "
            "minute-long nodes_10000 point; CI uses it, the committed "
            "snapshot must not."
        ),
    }
    path = harness.write_bench(OUTPUT, payload)

    print(json.dumps(payload["throughput_events_per_s"], indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
