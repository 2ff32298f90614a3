"""The baseline regression gate: bands, drift detection, update path.

Determinism makes the expected drift exactly zero, so the interesting
behaviour is at the edges: the tolerance-band boundary, a perturbed
committed value (the gate must fail loudly, naming the metric and the
observed-vs-allowed delta), a renamed metric, a stale content hash,
and the ``--update`` bootstrap.  One fresh capture per module keeps
this inside the tier-1 budget.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.faults.plan import FaultPlan
from repro.metrics.collectors import COUNTERS, ExperimentMetrics, metric_bands
from repro.obs.baseline import (
    Deviation,
    baseline_path,
    capture_baseline,
    compare_to_baseline,
    load_baselines,
    run_regression,
    spec_for_baseline,
    write_baseline,
)
from repro.obs.timeseries import TimeSeriesCollector
from repro.obs.tracer import Tracer

_BASELINE_DIR = os.path.join(os.path.dirname(__file__), "..", "baselines")

# ---------------------------------------------------------------------------
# band arithmetic


def test_deviation_band_is_abs_plus_rel():
    deviation = Deviation(
        metric="x", baseline=200.0, observed=212.0, abs_tol=2.0, rel_tol=0.05
    )
    assert deviation.delta == 12.0
    assert deviation.allowed == 12.0
    assert deviation.ok  # exactly on the band edge still passes


def test_deviation_just_outside_band_fails():
    deviation = Deviation(
        metric="x", baseline=200.0, observed=212.001, abs_tol=2.0, rel_tol=0.05
    )
    assert not deviation.ok
    line = deviation.render()
    assert "FAIL" in line and "x" in line


def test_deviation_render_shows_drift_and_allowance():
    line = Deviation(
        metric="startup_delay_ms_mean",
        baseline=100.0,
        observed=90.0,
        abs_tol=1.0,
        rel_tol=0.05,
    ).render()
    assert "startup_delay_ms_mean" in line
    assert "drift=" in line and "allowed=" in line
    assert "-10.0000" in line and "6.0000" in line


def test_compare_unions_metric_names():
    """A renamed or dropped metric cannot silently pass the gate."""
    baseline = {"metrics": {"old_name": 5.0}}
    fresh = {"metrics": {"new_name": 5.0}}
    deviations = {d.metric: d for d in compare_to_baseline(baseline, fresh)}
    assert set(deviations) == {"old_name", "new_name"}
    assert not deviations["old_name"].ok  # 5.0 -> 0.0
    assert not deviations["new_name"].ok  # 0.0 -> 5.0


# ---------------------------------------------------------------------------
# capture + the gate end to end (one smoke run, reused)


@pytest.fixture(scope="module")
def payload():
    return capture_baseline("socialtube", scale="smoke")


def test_capture_payload_shape(payload):
    assert payload["protocol"] == "socialtube"
    assert payload["scale"] == "smoke"
    assert len(payload["series_digest"]) == 64
    assert payload["num_windows"] > 0
    # fault-free captures carry every declared metric except the
    # fault-only ones (those appear only under a fault plan)
    assert set(payload["metrics"]) == set(
        metric_bands(ExperimentMetrics, faults=False)
    ) | set(metric_bands(ExperimentResult))


def test_chaos_capture_adds_exactly_the_fault_only_metrics(payload):
    chaos = capture_baseline("socialtube", scale="smoke", faults=FaultPlan.demo())
    fault_only = set(metric_bands(ExperimentMetrics)) - set(
        metric_bands(ExperimentMetrics, faults=False)
    )
    assert fault_only
    assert set(chaos["metrics"]) == set(payload["metrics"]) | fault_only
    assert chaos["faults"] == FaultPlan.demo().to_dict()


def test_every_metric_field_declares_a_band():
    """A scalar without a band would skip the gate and the seed means."""
    unbanded = {
        field.name
        for field in dataclasses.fields(ExperimentMetrics)
        if "band" not in field.metadata
    }
    assert unbanded == {"protocol", "environment", "overhead_by_video_index"}
    for abs_tol, rel_tol in metric_bands(ExperimentMetrics).values():
        assert abs_tol >= 0.0 and rel_tol >= 0.0


def test_spec_roundtrips_through_payload(payload):
    spec = spec_for_baseline(payload)
    assert spec.content_hash() == payload["content_hash"]


def test_write_load_roundtrip(tmp_path, payload):
    path = write_baseline(baseline_path(str(tmp_path), payload), payload)
    assert path.endswith("baseline_socialtube_peersim.json")
    entries = load_baselines(str(tmp_path))
    assert entries == [(path, payload)]


def test_regress_passes_on_fresh_baseline(tmp_path, payload, capsys):
    write_baseline(baseline_path(str(tmp_path), payload), payload)
    assert run_regression(baseline_dir=str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "within tolerance" in out
    assert "series digest ok" in out


def test_regress_fails_on_perturbed_metric(tmp_path, payload, capsys):
    """The advertised demonstration: nudge one committed value past
    its band and the gate exits non-zero, naming the metric and the
    observed-vs-allowed delta."""
    perturbed = json.loads(json.dumps(payload))
    perturbed["metrics"]["startup_delay_ms_mean"] *= 1.5
    write_baseline(baseline_path(str(tmp_path), perturbed), perturbed)
    assert run_regression(baseline_dir=str(tmp_path)) == 1
    out = capsys.readouterr().out
    line = next(
        l for l in out.splitlines()
        if "startup_delay_ms_mean" in l and "FAIL" in l
    )
    assert "drift=" in line and "allowed=" in line


def test_regress_fails_on_content_hash_mismatch(tmp_path, payload, capsys):
    stale = json.loads(json.dumps(payload))
    stale["content_hash"] = "0" * 64
    write_baseline(baseline_path(str(tmp_path), stale), stale)
    assert run_regression(baseline_dir=str(tmp_path)) == 1
    assert "content_hash mismatch" in capsys.readouterr().out


def test_series_digest_drift_fails(tmp_path, payload, capsys):
    drifted = json.loads(json.dumps(payload))
    drifted["series_digest"] = "f" * 64
    write_baseline(baseline_path(str(tmp_path), drifted), drifted)
    assert run_regression(baseline_dir=str(tmp_path)) == 1
    assert "FAIL series digest drift" in capsys.readouterr().out


def test_regress_update_bootstraps_empty_dir(tmp_path, payload, capsys):
    code = run_regression(
        baseline_dir=str(tmp_path), update=True, protocols=("socialtube",)
    )
    assert code == 0
    entries = load_baselines(str(tmp_path))
    assert len(entries) == 1
    # the bootstrap capture matches the module fixture byte for byte
    assert entries[0][1] == payload


def test_regress_without_baselines_demands_update(tmp_path, capsys):
    assert run_regression(baseline_dir=str(tmp_path / "missing")) == 1
    assert "--update" in capsys.readouterr().out


def test_quick_filters_to_smoke_scale(tmp_path, payload, capsys):
    other = json.loads(json.dumps(payload))
    other["scale"] = "default"
    other["protocol"] = "nettube"
    write_baseline(baseline_path(str(tmp_path), payload), payload)
    write_baseline(baseline_path(str(tmp_path), other), other)
    assert run_regression(baseline_dir=str(tmp_path), quick=True) == 0
    out = capsys.readouterr().out
    assert "socialtube/peersim" in out
    assert "nettube" not in out


# ---------------------------------------------------------------------------
# window columns sum to their scalars on every committed baseline spec


@pytest.mark.parametrize(
    "path",
    [path for path, _payload in load_baselines(_BASELINE_DIR)],
    ids=os.path.basename,
)
def test_window_columns_sum_to_their_scalars(path):
    """Every declared fault counter with a row, and the request, server
    and tracker counts, total the same over the windows as at run end."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    spec = spec_for_baseline(payload)
    window_s = payload["window_s"]
    collector = TimeSeriesCollector(window_s, include_faults=spec.has_faults())
    runner = ExperimentRunner(
        spec, tracer=Tracer(sink=collector.observe_row, tick_every_s=window_s)
    )
    result = runner.run()
    table = collector.finalize()
    scalars = {
        "num_requests": result.metrics.num_requests,
        "server_requests": result.server_requests,
        "tracker_lookups": result.tracker_lookups,
    }
    if spec.has_faults():
        scalars.update(
            (name, runner.metrics._counts[name])
            for name, (rows, _by) in COUNTERS.items()
            if rows
        )
    for name, scalar in scalars.items():
        assert sum(table.series(name)) == scalar, name
