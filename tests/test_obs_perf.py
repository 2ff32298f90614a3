"""The wall-clock perf layer: a hash-neutral row sink, stable schema.

Four guarantees pinned here:

1. **Byte parity** -- a :class:`~repro.obs.perf.PerfMeter` sink
   changes no canonical byte: trace JSONL and metric rows are
   identical with the meter installed and without it.
2. **Row-fed timing** -- the meter's event-loop wall time and event
   count come from the ``engine.run`` span rows; the runner has no
   perf hook at all.
3. **Report schema stability** -- the sidecar report's top-level keys
   are exactly ``PERF_REPORT_FIELDS`` at ``PERF_SCHEMA_VERSION`` and
   its non-timing fields are deterministic.
4. **Lint carve-out** -- ``repro.obs.perf`` may read the wall clock
   and nothing else may: the ``wall-clock`` rule stays silent for the
   sanctioned path and fires (high severity) everywhere else,
   including ``perf_report.py``.
"""

import inspect

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.lint import lint_source
from repro.obs.export import run_traced
from repro.obs.perf import PERF_SCHEMA_VERSION, PerfMeter
from repro.obs.perf_report import (
    PERF_REPORT_FIELDS,
    perf_report_to_json_bytes,
    run_perf,
)


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
        rows_by_name = {h["name"]: h["rows"] for h in meter.hotspots(10)}
        assert rows_by_name == {
            "engine.run": 2, "churn.join": 1, "request.serve": 2,
        }

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
        run = run_perf(_spec(), top_k=5)
        assert set(run.report) == set(PERF_REPORT_FIELDS)
        assert run.report["schema"] == PERF_SCHEMA_VERSION

    def test_non_timing_fields_are_deterministic(self):
        spec = _spec()
        run = run_perf(spec, top_k=5)
        assert run.report["content_hash"] == spec.content_hash()
        assert run.report["protocol"] == "socialtube"
        assert run.report["environment"] == spec.environment
        assert run.report["seed"] == spec.seed
        engine = run.report["engine"]
        assert engine["events"] == run.result.events_processed
        # Hotspot *ranking* is by wall seconds (machine-dependent),
        # but each name's row count comes from the deterministic
        # trace: wherever two runs both rank a name, they must agree
        # on its row count.
        again = run_perf(spec, top_k=5)
        rows_by_name = {h["name"]: h["rows"] for h in run.report["hotspots"]}
        for hotspot in again.report["hotspots"]:
            if hotspot["name"] in rows_by_name:
                assert hotspot["rows"] == rows_by_name[hotspot["name"]]
        assert again.report["engine"]["rows"] == run.report["engine"]["rows"]

    def test_report_serializes_canonically(self):
        run = run_perf(_spec(), top_k=3)
        blob = perf_report_to_json_bytes(run.report)
        assert blob.endswith(b"\n")
        import json

        assert json.loads(blob) == run.report


class TestLintCarveOut:
    SOURCE = "import time\n\ndef now():\n    return time.perf_counter()\n"

    def test_perf_module_may_read_wall_clock(self):
        findings = lint_source(self.SOURCE, path="src/repro/obs/perf.py")
        assert not [f for f in findings if f.rule == "wall-clock"]

    def test_everything_else_may_not(self):
        for path in (
            "src/repro/obs/perf_report.py",
            "src/repro/sim/engine.py",
        ):
            findings = lint_source(self.SOURCE, path=path)
            found = [f for f in findings if f.rule == "wall-clock"]
            assert found, f"wall-clock must fire for {path}"
            assert all(f.severity == "high" for f in found)
