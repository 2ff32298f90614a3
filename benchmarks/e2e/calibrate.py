"""Measure the benchmark's run-to-run spread, from which its bounds come.

    python3 benchmarks/e2e/calibrate.py [--seconds 30] [--seeds 10] [--sets 2]

Each set runs ``run.py --workload W --seed S --seconds N --trace 0`` once
per workload for ``--seeds`` consecutive seeds (set 1 uses seeds 1..10,
set 2 seeds 11..20, and so on), exactly as a comparison of two commits
would, then one ``--trace 1`` run per workload at seed 2014.  For every
end-to-end metric and workload, and for the unscaled timings and host
speed, it reports the median, the quartile spread
``(Q3 - Q1) / median`` within each set and the relative change of the
median from set 1 to each later set.  Everything goes to
``reference/calibration.json`` next to this file; the per-layer lines go
to ``reference/per_layer.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: The same timings before host-speed scaling, and the host speed itself,
#: from each invocation's ``--out`` report: what scaling removes.
UNSCALED = ["unscaled.wall_s", "unscaled.events_per_s", "unscaled.setup_s", "unscaled.host_speed"]


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark invocation as a comparison makes it:
    (result line, unscaled medians, wall s)."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        elapsed = time.perf_counter() - start
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not line["correct"]:
            raise SystemExit(f"{workload} seed {seed}: run failed:\n{proc.stdout}")
        unscaled = json.loads(out.read_text())["workloads"][workload]["unscaled"]
    return line, unscaled, elapsed


def spread(values: list) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]

    sets = []
    invocation_s = {w: [] for w in workloads}
    for index in range(args.sets):
        seeds = range(index * args.seeds + 1, (index + 1) * args.seeds + 1)
        values = {w: {m: [] for m in metrics + UNSCALED} for w in workloads}
        for seed in seeds:
            for workload in workloads:
                line, unscaled, elapsed = invoke(workload, seed, args.seconds, trace=0)
                invocation_s[workload].append(elapsed)
                for metric in metrics:
                    values[workload][metric].append(line["metrics"][metric]["value"])
                for metric in UNSCALED:
                    values[workload][metric].append(unscaled[metric.replace("unscaled.", "")])
                print(f"set {index + 1} seed {seed} {workload}: {elapsed:.1f} s", flush=True)
        sets.append({"seeds": list(seeds), "values": values})

    per_layer = {}
    for workload in workloads:
        line, _unscaled, elapsed = invoke(workload, 2014, args.seconds, trace=1)
        invocation_s[workload].append(elapsed)
        per_layer[workload] = line["metrics"]

    table = {}
    for workload in workloads:
        for metric in metrics + UNSCALED:
            columns = [s["values"][workload][metric] for s in sets]
            medians = [statistics.median(c) for c in columns]
            table[f"{workload}.{metric}"] = {
                "medians": medians,
                "spreads": [spread(c) for c in columns],
                "median_changes": [m / medians[0] - 1.0 for m in medians[1:]],
            }
            row = table[f"{workload}.{metric}"]
            print(
                f"{workload:<20} {metric:<22} medians "
                + " ".join(f"{m:.5g}" for m in medians)
                + "  spreads " + " ".join(f"{s:.3f}" for s in row["spreads"])
                + "  changes " + " ".join(f"{c:+.3f}" for c in row["median_changes"])
            )
    runs_per_workload = 22
    projected = 4 * statistics.mean(sum(invocation_s.values(), [])) + sum(
        runs_per_workload * statistics.mean(times) for times in invocation_s.values()
    )
    print(f"projected time of {4 + runs_per_workload * len(workloads)} invocations: {projected:.0f} s")

    reference = HERE / "reference"
    reference.mkdir(exist_ok=True)
    host = {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
    }
    with open(reference / "calibration.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "command": "python3 benchmarks/e2e/calibrate.py",
                "host": host,
                "seconds": args.seconds,
                "sets": sets,
                "invocation_s": invocation_s,
                "projected_total_s": projected,
                "table": table,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    with open(reference / "per_layer.json", "w", encoding="utf-8") as handle:
        json.dump({"seed": 2014, "host": host, "workloads": per_layer}, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
