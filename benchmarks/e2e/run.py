"""End-to-end benchmark of the paper pipeline.

Usage (from the repository root; the script puts ``src`` on the path)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 2014]
        [--trace-seed N] [--repeats N] [--seconds S] [--trace 0|1]
        [--out PATH] [--smoke]

For each workload (all four unless ``--workload`` names one) the script
starts two child processes, one after the other, each single-threaded:

* the untraced pass makes 7 cold set-ups and then the timed runs: exactly
  ``--repeats`` of them (default 3), or, with ``--seconds``, as many as
  fit in that many seconds from the start of the pass and at least
  ``--repeats`` (default 2).  Its timings are scaled by the host speed
  that ``hostspeed.py`` samples meanwhile;
* the traced pass (skipped under ``--trace 0``) makes one more run with
  the probe table of ``probes.py`` installed, for the per-layer metrics.

Every metric is printed with its unit, and every run's output is
checked (see README.md).  The last line of standard output is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``: ``metrics``
holds the end-to-end metrics under ``--trace 0``, the per-layer metrics
under ``--trace 1``, and both without ``--trace``; with several workloads
each name is prefixed by ``<workload>.``.  A probe whose target no
longer exists reads null in the report and 0 on that line, which carries
numbers only.  The exit code is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import probes  # noqa: E402
import workloads  # noqa: E402  (imports repro: fails outside a checkout)

E2E_UNITS = {"wall_s": "s", "events_per_s": "events/s", "setup_s": "s", "peak_rss_mb": "MB"}
#: A pass still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 170
#: Default minimum of timed runs under a ``--seconds`` budget.
MIN_TIMED_REPEATS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the paper pipeline (see README.md)."
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2014, help="simulation seed")
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=workloads.CORPUS_SEED,
        help="corpus seed (default: the canonical corpus)",
    )
    parser.add_argument("--repeats", type=int, help="timed runs (minimum under --seconds)")
    parser.add_argument("--seconds", type=float, default=0.0, help="time budget of the timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: untraced only; 1: per-layer")
    parser.add_argument("--out", help="write the full report as JSON to this path")
    parser.add_argument("--smoke", action="store_true", help="smoke_scale for every workload")
    parser.add_argument("--pass", dest="pass_", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = MIN_TIMED_REPEATS if args.seconds else 3
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def run_pass(kind: str, name: str, args: argparse.Namespace) -> dict:
    """Run one pass in a child process; its last stdout line is its result."""
    command = [
        sys.executable, __file__, "--pass", kind, "--workload", name,
        "--seed", str(args.seed), "--trace-seed", str(args.trace_seed),
        "--repeats", str(args.repeats), "--seconds", str(args.seconds),
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"{kind} pass killed after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"crashed": f"{kind} pass exited with code {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(untraced: dict, traced) -> dict:
    """Metrics, failures and info of one workload from its passes."""
    summary = {"failures": [], "attempted": 0, "e2e": {}, "layers": {}, "info": {}}
    failures = summary["failures"]
    runs = untraced.get("runs", [])
    if "crashed" in untraced:
        summary["attempted"] += 1
        failures.append(untraced["crashed"])
    else:
        summary["attempted"] += len(runs)
        for index, run in enumerate(runs, 1):
            errors = list(run["errors"])
            if run["digest"] != runs[0]["digest"]:
                errors.append("digest differs from run 1")
            if errors:
                failures.append(f"untraced run {index}: " + "; ".join(errors))
        setups = [s["scaled_s"] for s in untraced["setups"]] + [r["scaled_setup_s"] for r in runs]
        summary["e2e"] = {
            "wall_s": statistics.median(r["scaled_wall_s"] for r in runs),
            "events_per_s": statistics.median(r["events"] / r["scaled_run_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        summary["info"] = {
            key: runs[0][key]
            for key in ("digest", "startup_delay_ms_mean", "server_fallback_fraction", "events", "requests")
        }
        summary["unscaled"] = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "events_per_s": statistics.median(r["events"] / r["run_s"] for r in runs),
            "setup_s": statistics.median(
                [s["setup_s"] for s in untraced["setups"]] + [r["setup_s"] for r in runs]
            ),
            "host_speed": statistics.median(r["host_speed"] for r in runs),
        }
        summary["n"] = {"runs": len(runs), "setups": len(setups), "host_samples": untraced["host_samples"]}
        summary["runs"] = runs
    if traced is not None:
        summary["attempted"] += 1
        if "crashed" in traced:
            failures.append(traced["crashed"])
        else:
            summary["info"]["traced_digest"] = traced["digest"]
            errors = list(traced["errors"])
            if runs and traced["digest"] != runs[0]["digest"]:
                errors.append("traced digest differs from the untraced digest")
            if errors:
                failures.append("traced run: " + "; ".join(errors))
            layers = dict(traced["layers"])
            layers["trace_overhead_pct"] = (
                100.0 * (traced["scaled_run_s"] / statistics.median(r["scaled_run_s"] for r in runs) - 1.0)
                if runs
                else None
            )
            summary["layers"] = layers
    summary["error_rate"] = len(failures) / summary["attempted"]
    return summary


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def report(name: str, args: argparse.Namespace, summary: dict) -> None:
    cfg = workloads.WORKLOADS[name].config(args.seed, args.trace_seed, args.smoke)
    faults = "FaultPlan.demo()" if workloads.WORKLOADS[name].faults else "no faults"
    print(
        f"{name}: {cfg.num_nodes} nodes, {cfg.sessions_per_user} sessions x "
        f"{cfg.videos_per_session} videos, {faults}; seed {cfg.seed}, trace seed {cfg.trace.seed}"
    )
    n = summary.get("n", {})
    notes = {
        "wall_s": f"median of n={n.get('runs')} runs, scaled",
        "events_per_s": f"median of n={n.get('runs')} runs, scaled",
        "setup_s": f"median of n={n.get('setups')} cold set-ups, scaled",
        "peak_rss_mb": f"ru_maxrss after n={n.get('runs')} runs",
    }
    for metric, value in summary["e2e"].items():
        print(f"  {metric:<64} {_fmt(value):>12} {E2E_UNITS[metric]:<9} {notes[metric]}")
    if "unscaled" in summary:
        unscaled = summary["unscaled"]
        print(
            f"  unscaled medians: wall_s {_fmt(unscaled['wall_s'])} s, events_per_s "
            f"{_fmt(unscaled['events_per_s'])} events/s, setup_s {_fmt(unscaled['setup_s'])} s; "
            f"host speed {_fmt(unscaled['host_speed'])} of the reference "
            f"(n={n.get('host_samples')} probes)"
        )
    failed = len(summary["failures"])
    print(
        f"  {'error_rate':<64} {_fmt(summary['error_rate']):>12} {'fraction':<9} "
        f"{failed} of {summary['attempted']} runs failed"
    )
    for failure in summary["failures"]:
        print(f"    FAILED {failure}")
    info = summary["info"]
    if "digest" in info:
        print(
            f"  info: digest {info['digest'][:16]}, events {info['events']}, requests "
            f"{info['requests']}, startup_delay_ms_mean {_fmt(info['startup_delay_ms_mean'])}, "
            f"server_fallback_fraction {_fmt(info['server_fallback_fraction'])}"
        )
    if summary["layers"]:
        print("  per-layer metrics (traced pass, n=1 run):")
        for metric, unit in probes.layer_metric_units().items():
            print(f"  {metric:<64} {_fmt(summary['layers'].get(metric)):>12} {unit}")


def contract_metrics(summary: dict, trace) -> dict:
    """The metrics of the final JSON line, each ``{"value", "unit"}``."""
    units = {}
    if trace != 1:
        units.update(E2E_UNITS)
    if trace != 0:
        units.update(probes.layer_metric_units())
    values = {**summary["e2e"], **summary["layers"]}
    return {
        metric: {"value": values[metric] or 0, "unit": unit}
        for metric, unit in units.items()
        if metric in values
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pass_:
        workload = workloads.WORKLOADS[args.workload]
        if args.pass_ == "untraced":
            result = workloads.untraced_pass(
                workload, args.seed, args.trace_seed, args.smoke, args.repeats, args.seconds
            )
        else:
            result = workloads.traced_pass(workload, args.seed, args.trace_seed, args.smoke)
        print(json.dumps(result))
        return 0

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    summaries = {}
    for name in names:
        untraced = run_pass("untraced", name, args)
        traced = run_pass("traced", name, args) if args.trace != 0 else None
        summaries[name] = summarize(untraced, traced)
        report(name, args, summaries[name])

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": args.seed, "trace_seed": args.trace_seed, "smoke": args.smoke, "workloads": summaries},
                handle,
                indent=2,
            )
            handle.write("\n")

    metrics = {}
    for name, summary in summaries.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, entry in contract_metrics(summary, args.trace).items():
            metrics[prefix + metric] = entry
    failed = sum(len(s["failures"]) for s in summaries.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
