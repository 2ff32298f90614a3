"""Self-test of the end-to-end benchmark (outside the tier-1 test paths).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs the whole benchmark at ``smoke_scale`` once and checks the traced
pass against the untraced one, the metric names against BENCHMARK.json,
and that a broken output is counted as a failed run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import probes
import run
import workloads
from repro.core.structure import HierarchicalStructure

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The smoke run's report and its final JSON line."""
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    return json.loads(out.read_text()), json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_pass_is_transparent(smoke):
    report, _line = smoke
    for name, summary in report["workloads"].items():
        assert summary["failures"] == [], name
        assert summary["info"]["traced_digest"] == summary["info"]["digest"], name
        assert summary["layers"]["layer_coverage"] >= 0.9, name


def test_every_benchmark_name_is_emitted(smoke):
    _report, line = smoke
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for metric, unit in declared.items():
            assert NAME.fullmatch(metric) and len(metric) <= 64, metric
            entry = line["metrics"][f"{workload}.{metric}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float)), (workload, metric)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == probes.layer_metric_units()


def test_host_clock_scales_program_time_by_mean_speed():
    clock = hostspeed.HostClock()
    for tick in range(40):
        clock.tick_at.append(float(tick))
        clock.speeds.append(0.5 if tick < 20 else 1.0)
    # 39 s of wall time, 3 s of them in the handler, at a mean speed of 0.75.
    begin, end = (0.0, 1.0), (39.0, 4.0)
    assert clock.net(begin, end) == 36.0
    assert clock.scaled(begin, end) == pytest.approx(36.0 * 0.75)
    # An interval with few ticks takes 2 * WINDOW_SAMPLES around its middle.
    assert clock.speed(30.0, 31.0) == 1.0
    assert clock.speed(19.5, 20.5) == 0.75


def test_invariant_violation_counts_as_failed_run(monkeypatch):
    monkeypatch.setattr(HierarchicalStructure, "check_invariants", lambda self: ["broken link"])
    untraced = workloads.untraced_pass(
        workloads.WORKLOADS["socialtube_1k"], 2014, workloads.CORPUS_SEED, True, repeats=1
    )
    summary = run.summarize(untraced, None)
    assert summary["error_rate"] == 1.0
    assert "invariant" in summary["failures"][0]


def test_missing_probe_target_reads_null_and_originals_come_back(monkeypatch):
    import repro.core.socialtube as socialtube
    import repro.overlay.flood as flood

    monkeypatch.setattr(
        probes,
        "PROBES",
        probes.PROBES + (probes.Probe("core.gone", ("repro.core.structure:Gone.method",)),),
    )
    maintain, ttl_flood = HierarchicalStructure.maintain, flood.ttl_flood
    recorder = probes.Recorder()
    recorder.install()
    assert socialtube.ttl_flood is not ttl_flood
    recorder.uninstall()
    assert HierarchicalStructure.maintain is maintain
    assert socialtube.ttl_flood is ttl_flood and flood.ttl_flood is ttl_flood
    layers = recorder.layer_metrics(1.0)
    assert layers["core.gone.calls"] is None and layers["core.gone.self_s"] is None
    assert layers["core.structure.maintain.calls"] == 0
