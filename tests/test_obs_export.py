"""Unit tests for trace serialization and the profile report."""

import os
from types import SimpleNamespace

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.spec import ExperimentSpec
from repro.obs.export import (
    build_profile_report,
    parse_jsonl_bytes,
    render_profile,
    trace_filename,
    trace_header,
    trace_to_jsonl_bytes,
    write_trace,
)
from repro.obs.perf import TOP_NODES, PerfMeter
from repro.obs.tracer import TRACE_SCHEMA_VERSION, Tracer


@pytest.fixture
def spec():
    return ExperimentSpec(
        protocol="socialtube", config=SimulationConfig.smoke_scale()
    ).with_seed(7)


class TestHeaderAndFilename:
    def test_header_identifies_the_run(self, spec):
        header = trace_header(spec)
        assert header["kind"] == "header"
        assert header["schema"] == TRACE_SCHEMA_VERSION
        assert header["content_hash"] == spec.content_hash()
        assert header["protocol"] == "socialtube"
        assert header["seed"] == 7

    def test_filename_keyed_by_spec_identity(self, spec):
        name = trace_filename(spec)
        assert name == f"trace_socialtube_{spec.content_hash()[:16]}.jsonl"
        other = ExperimentSpec(
            protocol="socialtube", config=SimulationConfig.smoke_scale()
        ).with_seed(8)
        assert trace_filename(other) != name


class TestSerialization:
    def test_round_trip(self, spec):
        tracer = Tracer(clock=lambda: 1.0)
        with tracer.span("a", node=1):
            tracer.event("b", node=1)
        payload = trace_to_jsonl_bytes(trace_header(spec), tracer.rows())
        rows = parse_jsonl_bytes(payload)
        assert rows[0]["kind"] == "header"
        kinds = [r["kind"] for r in rows]
        assert kinds == ["header", "span_begin", "event", "span_end"]

    def test_canonical_bytes_sorted_keys(self, spec):
        payload = trace_to_jsonl_bytes(trace_header(spec), [{"t": 0.0, "kind": "event", "name": "x", "attrs": {"b": 1, "a": 2}}])
        line = payload.decode().splitlines()[1]
        assert line == '{"attrs":{"a":2,"b":1},"kind":"event","name":"x","t":0.0}'

    def test_write_trace_creates_parents(self, spec, tmp_path):
        path = os.path.join(str(tmp_path), "nested", "dir", trace_filename(spec))
        payload = trace_to_jsonl_bytes(trace_header(spec), [])
        assert write_trace(path, payload) == path
        with open(path, "rb") as handle:
            assert handle.read() == payload


def _fold(rows):
    meter = PerfMeter()
    for row in rows:
        meter.observe_row(row)
    return meter


def _node_rows(nodes):
    return [
        {"kind": "event", "t": 0.0, "name": "x", "attrs": {"node": n}}
        for n in nodes
    ]


class TestProfileSummary:
    """The profile sink's deterministic folds, fed rows directly."""

    def _rows(self):
        tracer = Tracer(clock=lambda: 0.0)
        clock = {"t": 0.0}
        tracer.bind_clock(lambda: clock["t"])
        with tracer.span("outer", node=1):
            clock["t"] = 4.0
            with tracer.span("inner", node=2):
                clock["t"] = 6.0
            tracer.event("tick", node=2)
            clock["t"] = 10.0
        return tracer.rows()

    def _by_name(self, rows):
        return {entry["name"]: entry for entry in _fold(rows).by_name()}

    def test_phase_times_are_inclusive(self):
        by_name = self._by_name(self._rows())
        assert by_name["outer"]["sim_s"] == 10.0
        assert by_name["inner"]["sim_s"] == 2.0
        assert by_name["tick"]["sim_s"] == 0.0

    def test_events_by_type_counts_named_rows(self):
        # One count per event row and one per span, at its begin.
        rows = self._rows()
        meter = _fold(rows)
        counts = {entry["name"]: entry["count"] for entry in meter.by_name()}
        assert counts == {"inner": 1, "outer": 1, "tick": 1}
        assert meter.rows == len(rows) == 5

    def test_unknown_span_end_is_charged_to_span_end(self):
        rows = self._rows() + [{"t": 11.0, "kind": "span_end", "span": 99, "dur": 3.0}]
        by_name = self._by_name(rows)
        assert (by_name["span_end"]["count"], by_name["span_end"]["sim_s"]) == (0, 3.0)
        assert by_name["outer"]["sim_s"] == 10.0

    def test_node_hotspots_ranked_by_row_count(self):
        assert _fold(self._rows()).busiest_nodes() == [(2, 2), (1, 1)]

    def test_node_hotspot_ties_break_on_node_id(self):
        """Equal row counts rank by ascending node id, so the top-N
        cut is deterministic across runs regardless of dict order."""
        rows = _node_rows((9, 2, 7, 2, 9, 7))
        assert _fold(rows).busiest_nodes() == [(2, 2), (7, 2), (9, 2)]
        assert _fold(list(reversed(rows))).busiest_nodes() == [(2, 2), (7, 2), (9, 2)]

    def test_node_hotspot_tie_straddling_top_n_cut(self):
        """When the tie straddles the top-N boundary the lower ids
        survive the cut -- the ordering contract, not luck."""
        rows = _node_rows([50, 50] + list(range(TOP_NODES, 0, -1)))
        ranked = _fold(rows).busiest_nodes()
        assert ranked == [(50, 2)] + [(n, 1) for n in range(1, TOP_NODES)]

    def _report(self, spec):
        result = SimpleNamespace(sim_duration_s=10.0)
        return build_profile_report(spec, result, _fold(self._rows()))

    def test_render_profile_sections(self, spec):
        lines = render_profile(self._report(spec)).splitlines()
        assert lines[0].startswith("profile (schema ")
        assert "events/s" in lines[1]
        names = [line.split()[0] for line in lines[3:6]]
        assert names == ["inner", "outer", "tick"]
        assert lines[6] == "busiest nodes (trace rows)"
        assert lines[7].split()[:2] == ["node", "2"]

    def test_render_profile_deterministic(self, spec):
        report = self._report(spec)
        assert render_profile(report) == render_profile(report)
