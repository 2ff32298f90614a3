"""The profile sink: a hash-neutral row sink, stable report schema.

Four guarantees pinned here:

1. **Byte parity** -- a :class:`~repro.obs.perf.PerfMeter` sink
   changes no canonical byte: trace JSONL and metric rows are
   identical with the meter installed and without it.
2. **Row-fed timing** -- the meter's event-loop wall time and event
   count come from the ``engine.run`` span rows; the runner has no
   perf hook at all.
3. **Report schema stability** -- the profile report's top-level keys
   are exactly ``PERF_REPORT_FIELDS`` at ``PERF_SCHEMA_VERSION``, and
   everything but the engine block's timings is a pure function of the
   spec (per-name rows carry no wall column).
4. **Lint carve-out** -- ``repro.obs.perf`` may read the wall clock
   and nothing else may: the ``wall-clock`` rule stays silent for the
   sanctioned path and fires (high severity) everywhere else,
   including the rest of ``repro.obs``.
"""

import inspect

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.lint.runner import lint_source
from repro.obs.export import (
    PERF_REPORT_FIELDS,
    profile_report_to_json_bytes,
    run_profiled,
    run_traced,
)
from repro.obs.perf import PERF_SCHEMA_VERSION, PerfMeter


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        protocol="socialtube", config=SimulationConfig.smoke_scale()
    )


class TestByteParity:
    def test_serial_trace_bytes_identical_armed_vs_unarmed(self):
        spec = _spec()
        _result, unarmed = run_traced(spec)
        _result, armed = run_traced(spec, sink=PerfMeter().observe_row)
        assert armed == unarmed

    def test_metric_rows_identical_armed_vs_unarmed(self):
        spec = _spec()
        unarmed, _jsonl = run_traced(spec)
        armed, _jsonl = run_traced(spec, sink=PerfMeter().observe_row)
        assert armed.render_rows() == unarmed.render_rows()


class TestRowFedTiming:
    @staticmethod
    def _feed(meter, rows):
        for row in rows:
            meter.observe_row(row)

    def test_engine_run_rows_time_the_loop(self):
        meter = PerfMeter()
        self._feed(meter, [
            {"t": 0.0, "kind": "span_begin", "name": "engine.run", "span": 0},
            {"t": 1.0, "kind": "event", "name": "churn.join", "parent": 0},
            {"t": 2.0, "kind": "span_begin", "name": "request.serve",
             "span": 1, "parent": 0},
            {"t": 2.0, "kind": "span_end", "span": 1, "dur": 0.0},
            {"t": 9.0, "kind": "span_end", "span": 0, "dur": 9.0,
             "attrs": {"events": 42}},
        ])
        assert meter.wall_s > 0
        assert meter.events == 42
        assert meter.events_per_s() > 0
        assert meter.rows == 5
        counts = {entry["name"]: entry["count"] for entry in meter.by_name()}
        assert counts == {"churn.join": 1, "engine.run": 1, "request.serve": 1}

    def test_stream_without_engine_run_reads_zero(self):
        meter = PerfMeter()
        self._feed(meter, [
            {"t": 0.0, "kind": "event", "name": "churn.join"},
            {"t": 1.0, "kind": "event", "name": "churn.leave"},
        ])
        assert meter.events == 0
        assert meter.wall_s == 0.0
        assert meter.events_per_s() == 0.0
        assert meter.rows == 2

    def test_runner_has_no_perf_hook(self):
        assert "perf" not in inspect.signature(run_spec).parameters
        assert "perf" not in inspect.signature(ExperimentRunner).parameters


class TestReportSchema:
    def test_report_keys_are_exactly_the_schema(self):
        _result, _jsonl, report = run_profiled(_spec())
        assert set(report) == set(PERF_REPORT_FIELDS)
        assert report["schema"] == PERF_SCHEMA_VERSION

    def test_non_timing_fields_are_deterministic(self):
        # Per-name rows, busiest nodes and row totals come from the
        # deterministic trace; only the engine block's timings may
        # differ between two runs of one spec.
        spec = _spec()
        result, _jsonl, report = run_profiled(spec)
        assert report["content_hash"] == spec.content_hash()
        assert report["protocol"] == "socialtube"
        assert report["environment"] == spec.environment
        assert report["seed"] == spec.seed
        assert report["engine"]["events"] == result.events_processed
        _result, _jsonl, again = run_profiled(spec)
        assert {key for e in report["names"] for key in e} == {"name", "count", "sim_s"}
        assert again["names"] == report["names"]
        assert again["busiest_nodes"] == report["busiest_nodes"]
        assert again["engine"]["rows"] == report["engine"]["rows"]
        assert report["busiest_nodes"]

    def test_report_serializes_canonically(self):
        _result, _jsonl, report = run_profiled(_spec())
        blob = profile_report_to_json_bytes(report)
        assert blob.endswith(b"\n")
        import json

        assert json.loads(blob) == report


class TestLintCarveOut:
    SOURCE = "import time\n\ndef now():\n    return time.perf_counter()\n"

    def test_perf_module_may_read_wall_clock(self):
        findings = lint_source(self.SOURCE, path="src/repro/obs/perf.py")
        assert not [f for f in findings if f.rule == "wall-clock"]

    def test_everything_else_may_not(self):
        for path in (
            "src/repro/obs/export.py",
            "src/repro/sim/engine.py",
        ):
            findings = lint_source(self.SOURCE, path=path)
            found = [f for f in findings if f.rule == "wall-clock"]
            assert found, f"wall-clock must fire for {path}"
            assert all(f.severity == "high" for f in found)
