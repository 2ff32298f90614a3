"""The wall-clock perf layer: hash-neutral, inert-by-default, stable schema.

Four guarantees pinned here:

1. **Byte parity** -- arming a :class:`~repro.obs.perf.PerfMeter`
   changes no canonical byte: trace JSONL and metric rows are
   identical armed vs unarmed.
2. **Inert-path cost** -- the disabled ``if perf:`` guard stays under
   2% of run wall-clock, established constructively like
   ``tests/test_obs_overhead.py`` (per-guard cost measured in
   isolation x guards per event), not by noisy A/B run deltas.
3. **Report schema stability** -- the sidecar report's top-level keys
   are exactly ``PERF_REPORT_FIELDS`` at ``PERF_SCHEMA_VERSION`` and
   its non-timing fields are deterministic.
4. **Lint carve-out** -- ``repro.obs.perf`` may read the wall clock
   and nothing else may: the ``wall-clock`` rule stays silent for the
   sanctioned path and fires (high severity) everywhere else,
   including ``perf_report.py``.
"""

import time

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.lint import lint_source
from repro.obs.export import trace_header, trace_to_jsonl_bytes
from repro.obs.perf import NULL_PERF, PERF_SCHEMA_VERSION, PerfMeter
from repro.obs.perf_report import (
    PERF_REPORT_FIELDS,
    perf_report_to_json_bytes,
    run_perf,
)
from repro.obs.tracer import Tracer


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        protocol="socialtube", config=SimulationConfig.smoke_scale()
    )


def _trace_bytes(spec: ExperimentSpec, perf=None) -> bytes:
    dataset = shared_trace_cache.dataset_for(spec.config.trace)
    tracer = Tracer()
    if perf is not None:
        perf.attach(tracer)
    run_spec(spec, dataset=dataset, tracer=tracer, perf=perf)
    return trace_to_jsonl_bytes(trace_header(spec), tracer.rows())


class TestByteParity:
    def test_serial_trace_bytes_identical_armed_vs_unarmed(self):
        spec = _spec()
        unarmed = _trace_bytes(spec)
        armed = _trace_bytes(spec, perf=PerfMeter())
        assert armed == unarmed

    def test_metric_rows_identical_armed_vs_unarmed(self):
        spec = _spec()
        dataset = shared_trace_cache.dataset_for(spec.config.trace)
        unarmed = run_spec(spec, dataset=dataset)
        armed = run_spec(spec, dataset=dataset, perf=PerfMeter())
        assert armed.render_rows() == unarmed.render_rows()


class TestInertOverhead:
    @staticmethod
    def _time_empty_loop(n: int) -> float:
        start = time.perf_counter()
        for _ in range(n):
            pass
        return time.perf_counter() - start

    @staticmethod
    def _time_guard_checks(n: int) -> float:
        perf = NULL_PERF
        start = time.perf_counter()
        for _ in range(n):
            if perf:
                perf.run_begin()
        return time.perf_counter() - start

    def test_null_perf_is_falsy_and_noop(self):
        assert not NULL_PERF
        NULL_PERF.run_begin()
        NULL_PERF.run_end(0)

    def test_disabled_guard_under_two_percent_of_run(self):
        spec = _spec()
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            result = run_spec(spec)
            timings.append(time.perf_counter() - start)
        base_s = min(timings)
        events = result.events_processed

        batch = 200_000
        loop_s = min(self._time_empty_loop(batch) for _ in range(3)) / batch
        guard_s = max(
            0.0,
            min(self._time_guard_checks(batch) for _ in range(3)) / batch
            - loop_s,
        )
        # Two guards per processed event: a conservative over-count,
        # since the engine has only run-level ``if perf:`` guards.
        projected_s = 2 * events * guard_s
        assert projected_s < 0.02 * base_s, (
            f"disabled perf guards would add {projected_s:.4f}s over "
            f"{events} events to a {base_s:.4f}s run "
            f"({100 * projected_s / base_s:.2f}% > 2%)"
        )


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
