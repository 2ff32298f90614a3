"""Unit tests for trace serialization and the profile summary."""

import os

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.spec import ExperimentSpec
from repro.obs.export import (
    ProfileSummary,
    parse_jsonl_bytes,
    render_profile,
    trace_filename,
    trace_header,
    trace_to_jsonl_bytes,
    write_trace,
)
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


class TestProfileSummary:
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

    def test_phase_times_are_inclusive(self):
        summary = ProfileSummary.from_rows(self._rows())
        assert summary.phases["outer"].total_sim_s == 10.0
        assert summary.phases["inner"].total_sim_s == 2.0
        assert summary.phases["outer"].count == 1

    def test_events_by_type_counts_named_rows(self):
        summary = ProfileSummary.from_rows(self._rows())
        assert summary.events_by_type == {"outer": 1, "inner": 1, "tick": 1}

    def test_node_hotspots_ranked_by_row_count(self):
        summary = ProfileSummary.from_rows(self._rows())
        assert summary.node_hotspots == [(2, 2), (1, 1)]

    def test_node_hotspot_ties_break_on_node_id(self):
        """Equal row counts rank by ascending node id, so the top-N
        cut is deterministic across runs regardless of dict order."""
        rows = [
            {"kind": "event", "t": 0.0, "name": "x", "attrs": {"node": n}}
            for n in (9, 2, 7, 2, 9, 7)
        ]
        summary = ProfileSummary.from_rows(rows)
        assert summary.node_hotspots == [(2, 2), (7, 2), (9, 2)]
        reversed_summary = ProfileSummary.from_rows(list(reversed(rows)))
        assert reversed_summary.node_hotspots == summary.node_hotspots

    def test_node_hotspot_tie_straddling_top_n_cut(self):
        """When the tie straddles the top-N boundary the lower id
        survives the cut -- the ordering contract, not luck."""
        rows = [
            {"kind": "event", "t": 0.0, "name": "x", "attrs": {"node": n}}
            for n in (5, 3, 8)
        ]
        summary = ProfileSummary.from_rows(rows, top_nodes=2)
        assert summary.node_hotspots == [(3, 1), (5, 1)]

    def test_header_and_footers_tolerated(self, spec):
        payload = trace_to_jsonl_bytes(trace_header(spec), self._rows())
        summary = ProfileSummary.from_rows(parse_jsonl_bytes(payload))
        assert summary.total_rows == len(self._rows())
        assert summary.phases["outer"].total_sim_s == 10.0

    def test_render_profile_sections(self):
        text = render_profile(ProfileSummary.from_rows(self._rows()))
        assert "time in phase (inclusive sim seconds)" in text
        assert "events by type" in text
        assert "busiest nodes (trace rows)" in text
        assert text.splitlines()[-1].endswith("trace rows")

    def test_render_profile_deterministic(self):
        summary = ProfileSummary.from_rows(self._rows())
        assert render_profile(summary) == render_profile(summary)
