"""Trace determinism: a trace artifact is a pure function of its spec.

The heart of the observability contract (DESIGN.md §8): same spec +
seed ⇒ byte-identical JSONL, whether the run executes in-process or
in a worker of :func:`repro.experiments.parallel.run_sweep`.  These
tests use the smoke-scale config so they stay in tier-1 budget.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.spec import ExperimentSpec
from repro.obs.export import parse_jsonl_bytes, run_profiled
from repro.obs.timeseries import run_with_timeseries


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec(
        protocol="socialtube", config=SimulationConfig.smoke_scale()
    )


@pytest.fixture(scope="module")
def serial_payload(spec):
    return run_profiled(spec)[1]


def test_repeat_runs_are_byte_identical(spec, serial_payload):
    assert run_profiled(spec)[1] == serial_payload


def test_pool_path_matches_serial(spec):
    # Two distinct specs: a sweep with one unique spec never forks.
    specs = [spec, spec.with_seed(spec.seed + 1)]
    serial = run_sweep(specs, jobs=1, task=run_with_timeseries)
    pooled = run_sweep(specs, jobs=2, task=run_with_timeseries)
    assert [run.jsonl for run in pooled] == [run.jsonl for run in serial]
    assert [run.table.to_canonical_json() for run in pooled] == [
        run.table.to_canonical_json() for run in serial
    ]


def test_different_seed_different_trace(spec, serial_payload):
    other = run_profiled(spec.with_seed(spec.seed + 1))[1]
    assert other != serial_payload


def test_trace_contains_expected_families(serial_payload):
    rows = parse_jsonl_bytes(serial_payload)
    names = {row.get("name") for row in rows if "name" in row}
    # flood instrumentation with TTL semantics
    assert "flood.search" in names
    assert "flood.hop" in names
    assert "flood.ttl_exhausted" in names
    # transfers must be attributed to a source
    sources = {
        row["attrs"]["source"]
        for row in rows
        if row.get("name") == "transfer.chunks"
    }
    assert sources  # at least one transfer happened
    assert sources <= {"server", "peer", "cache", "prefetch_peer", "prefetch_server"}
    # churn + prefetch + session lifecycles
    assert {"churn.join", "churn.leave", "session.begin", "session.end"} <= names
    assert "prefetch.lookup" in names
    assert "playback.report" in names


def test_timestamps_are_sim_clock_ordered(serial_payload):
    rows = parse_jsonl_bytes(serial_payload)
    times = [row["t"] for row in rows if "t" in row]
    assert times == sorted(times)
    assert times[0] == 0.0


def test_spans_all_closed(serial_payload):
    rows = parse_jsonl_bytes(serial_payload)
    begun = {row["span"] for row in rows if row.get("kind") == "span_begin"}
    ended = {row["span"] for row in rows if row.get("kind") == "span_end"}
    assert begun == ended
