"""Unit tests for the span/event tracer primitives."""

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestNullTracer:
    def test_falsy(self):
        assert not NULL_TRACER
        assert bool(NULL_TRACER) is False
        assert NULL_TRACER.enabled is False

    def test_all_methods_are_noops(self):
        NULL_TRACER.bind_clock(lambda: 1.0)
        with NULL_TRACER.span("x", a=1):
            NULL_TRACER.event("y", b=2)
        assert NULL_TRACER.begin("z") is None
        assert NULL_TRACER.begin_detached("z") is None
        NULL_TRACER.end(None)

    def test_shared_singleton_holds_no_state(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not hasattr(NULL_TRACER, "__dict__")


class TestSpans:
    def test_span_records_begin_and_end(self, tracer, clock):
        clock.now = 5.0
        with tracer.span("phase", node=1):
            clock.now = 7.5
        begin, end = tracer.rows()
        assert begin == {
            "t": 5.0, "kind": "span_begin", "name": "phase", "span": 0,
            "attrs": {"node": 1},
        }
        assert end == {"t": 7.5, "kind": "span_end", "span": 0, "dur": 2.5}

    def test_nesting_records_parent(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("leaf")
        rows = tracer.rows()
        inner_begin = rows[1]
        leaf = rows[2]
        assert inner_begin["parent"] == 0
        assert leaf["parent"] == 1

    def test_explicit_begin_end(self, tracer, clock):
        sid = tracer.begin("work")
        clock.now = 3.0
        tracer.end(sid, items=4)
        end = tracer.rows()[-1]
        assert end["dur"] == 3.0
        assert end["attrs"] == {"items": 4}
        assert tracer.open_spans() == 0

    def test_detached_span_not_on_stack(self, tracer):
        sid = tracer.begin_detached("stream", node=9)
        tracer.event("unrelated")
        assert "parent" not in tracer.rows()[-1]
        tracer.end(sid)
        assert tracer.open_spans() == 0

    def test_detached_span_records_parent_at_begin(self, tracer):
        with tracer.span("outer"):
            sid = tracer.begin_detached("stream")
        tracer.end(sid)
        assert tracer.rows()[1]["parent"] == 0

    def test_end_none_is_noop(self, tracer):
        tracer.end(None)
        assert tracer.rows() == []

    def test_span_ids_monotonic(self, tracer):
        ids = [tracer.begin(f"s{i}") for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_out_of_order_end(self, tracer):
        a = tracer.begin_detached("a")
        b = tracer.begin_detached("b")
        tracer.end(a)
        tracer.end(b)
        assert tracer.open_spans() == 0


class TestEventsCountersHistograms:
    def test_event_row_shape(self, tracer, clock):
        clock.now = 2.0
        tracer.event("tick", node=3)
        assert tracer.rows() == [
            {"t": 2.0, "kind": "event", "name": "tick", "attrs": {"node": 3}}
        ]

    def test_readouts_are_copies(self, tracer):
        tracer.event("x")
        tracer.rows().clear()
        assert len(tracer.rows()) == 1


class TestClockBinding:
    def test_bind_clock_rebinds(self, tracer):
        tracer.bind_clock(lambda: 42.0)
        tracer.event("x")
        assert tracer.rows()[0]["t"] == 42.0

    def test_default_clock_is_zero(self):
        t = Tracer()
        t.event("x")
        assert t.rows()[0]["t"] == 0.0


def test_schema_version_is_int():
    assert isinstance(TRACE_SCHEMA_VERSION, int)
    assert TRACE_SCHEMA_VERSION >= 1
