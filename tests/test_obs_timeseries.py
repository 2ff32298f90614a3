"""Windowed time-series contract: identity, window math, overhead.

The tentpole claims (DESIGN.md discipline, ISSUE 4):

* the live sink and the JSONL replay produce byte-identical tables,
  whether the exported trace came from a serial or a pooled run;
* window assignment is pure ``t // window_s`` arithmetic -- boundary
  rows open the next window, silent gaps flush empty windows, gauges
  carry forward across flushes;
* the streaming collector stays under 5% of the traced run's
  wall-clock (the run collection rides on), asserted constructively
  from measured factors like ``tests/test_obs_overhead.py`` does.
"""

import time

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.faults.plan import FaultPlan
from repro.obs.timeseries import (
    DEFAULT_WINDOW_S,
    TimeSeriesCollector,
    run_with_timeseries,
    series_from_trace,
)
from repro.obs.tracer import Tracer


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec(
        protocol="socialtube", config=SimulationConfig.smoke_scale()
    )


@pytest.fixture(scope="module")
def live_run(spec):
    return run_with_timeseries(spec, window_s=DEFAULT_WINDOW_S)


# ---------------------------------------------------------------------------
# live vs replay byte identity


def test_replay_matches_live_bytes(live_run):
    replayed = series_from_trace(live_run.jsonl, window_s=DEFAULT_WINDOW_S)
    assert replayed.to_canonical_json() == live_run.table.to_canonical_json()
    assert replayed.digest() == live_run.table.digest()


def test_pooled_and_serial_traces_replay_identically(spec):
    """Runs through the jobs=1 and jobs=2 ``run_sweep`` paths export
    byte-identical traces, and the pooled traces replay to the serial
    live tables -- worker layout is invisible.  (Two distinct specs:
    a sweep with one unique spec never forks.)"""
    specs = [spec, spec.with_seed(spec.seed + 1)]
    serial = run_sweep(specs, jobs=1, task=run_with_timeseries)
    pooled = run_sweep(specs, jobs=2, task=run_with_timeseries)
    for serial_run, pooled_run in zip(serial, pooled):
        assert pooled_run.jsonl == serial_run.jsonl
        replayed = series_from_trace(pooled_run.jsonl)
        assert replayed.to_canonical_json() == serial_run.table.to_canonical_json()


def test_repeat_live_runs_are_identical(spec, live_run):
    again = run_with_timeseries(spec, window_s=DEFAULT_WINDOW_S)
    assert again.table.to_canonical_json() == live_run.table.to_canonical_json()


def test_content_hash_recorded(spec, live_run):
    assert live_run.table.content_hash == spec.content_hash()
    replayed = series_from_trace(live_run.jsonl)
    assert replayed.content_hash == spec.content_hash()


def test_series_show_warmup_trend(live_run):
    """The paper's headline trend: the server share of chunk supply
    falls as overlays warm up (Figs 9-11).

    Shares are pooled by chunk volume, the first two windows against
    the rest of the run and against its second half (the windows after
    the one where half of all chunks had been supplied).  The last
    windows drain to a few lone sessions, whose per-window shares (1.0,
    or 0.0 when nothing was supplied) say nothing about warm-up."""
    server = live_run.table.series("server_chunks")
    peer = live_run.table.series("peer_chunks")
    assert len(server) >= 3

    def pooled_share(start, stop=None):
        served = sum(server[start:stop])
        return served / (served + sum(peer[start:stop]))

    supplied = [s + p for s, p in zip(server, peer)]
    done = 0
    for middle, chunks in enumerate(supplied):
        done += chunks
        if 2 * done >= sum(supplied):
            break
    early = pooled_share(0, 2)
    assert pooled_share(2) < early
    assert pooled_share(middle + 1) < early


# ---------------------------------------------------------------------------
# window math on synthetic rows


def _event(t, name, **attrs):
    return {"kind": "event", "t": t, "name": name, "attrs": attrs}


def test_window_assignment_and_boundaries():
    collector = TimeSeriesCollector(window_s=10.0)
    collector.observe_row(_event(0.0, "playback.stall"))
    collector.observe_row(_event(9.999, "playback.stall"))
    # exactly on the boundary -> next window
    collector.observe_row(_event(10.0, "playback.stall"))
    table = collector.finalize()
    assert table.num_windows == 2
    assert table.series("stall_events") == [2, 1]
    assert table.series("t0") == [0.0, 10.0]


def test_gap_windows_are_flushed_empty():
    collector = TimeSeriesCollector(window_s=10.0)
    collector.observe_row(_event(1.0, "session.begin", active=1))
    collector.observe_row(_event(45.0, "playback.stall"))
    table = collector.finalize()
    assert table.num_windows == 5
    assert table.series("joins") == [1, 0, 0, 0, 0]
    assert table.series("stall_events") == [0, 0, 0, 0, 1]
    # gauges carry forward across empty windows
    assert table.series("active_sessions") == [1, 1, 1, 1, 1]


def test_counter_and_rate_folding():
    collector = TimeSeriesCollector(window_s=100.0)
    collector.observe_row(_event(1.0, "transfer.chunks", source="server", chunks=3))
    collector.observe_row(_event(2.0, "transfer.chunks", source="peer", chunks=6))
    collector.observe_row(
        _event(3.0, "transfer.chunks", source="prefetch_peer", chunks=3)
    )
    collector.observe_row(_event(4.0, "transfer.chunks", source="cache", chunks=5))
    collector.observe_row(_event(5.0, "playback.report", startup_s=0.25, stalls=0))
    collector.observe_row(_event(6.0, "playback.report", startup_s=0.75, stalls=2))
    collector.observe_row(_event(7.0, "flood.found", depth=3))
    collector.observe_row(_event(8.0, "flood.found", depth=1))
    collector.observe_row(_event(9.0, "flood.ttl_exhausted"))
    collector.observe_row(_event(10.0, "server.lookup"))
    collector.observe_row(_event(11.0, "server.request", bits=1.0))
    (record,) = collector.finalize().windows
    assert record["server_chunks"] == 3
    assert record["peer_chunks"] == 9
    assert record["cache_chunks"] == 5
    assert record["server_share"] == 3 / 12
    assert record["startup_ms_mean"] == 500.0
    assert record["stall_rate"] == 0.5
    assert record["search_hops_mean"] == 2.0
    assert record["ttl_exhausted"] == 1
    assert record["tracker_lookups"] == 1
    assert record["server_requests"] == 1


def test_overlay_links_gauge_folds_deltas():
    collector = TimeSeriesCollector(window_s=10.0)
    collector.observe_row(_event(1.0, "overlay.links", node=1, links=4))
    collector.observe_row(_event(2.0, "overlay.links", node=2, links=3))
    collector.observe_row(_event(12.0, "overlay.links", node=1, links=2))
    table = collector.finalize()
    assert table.series("overlay_links") == [7, 5]


def test_overlay_links_gauge_drops_departed_nodes():
    """A session.end takes the leaving node's last sample off the total;
    its next session starts from nothing."""
    collector = TimeSeriesCollector(window_s=10.0)
    collector.observe_row(_event(1.0, "overlay.links", node=1, links=4))
    collector.observe_row(_event(2.0, "overlay.links", node=2, links=3))
    collector.observe_row(_event(12.0, "session.end", user=1, active=1))
    collector.observe_row(_event(13.0, "session.end", user=7, active=1))
    collector.observe_row(_event(22.0, "overlay.links", node=1, links=5))
    collector.observe_row(_event(23.0, "session.end", user=2, active=0))
    table = collector.finalize()
    assert table.series("overlay_links") == [7, 3, 5]


@pytest.mark.parametrize(
    "faults", [None, FaultPlan.demo()], ids=["no_faults", "demo_faults"]
)
def test_overlay_links_zero_once_everyone_left(spec, faults):
    """Fig 18's trend over time: no session, no maintained links.
    Crashed nodes leave through session.end too."""
    if faults is not None:
        spec = spec.with_faults(faults)
    run = run_with_timeseries(spec, window_s=DEFAULT_WINDOW_S)
    idle = [
        record for record in run.table.windows if record["active_sessions"] == 0
    ]
    assert idle, "the run never drains"
    assert all(record["overlay_links"] == 0 for record in idle)
    replayed = series_from_trace(run.jsonl, window_s=DEFAULT_WINDOW_S)
    assert replayed.to_canonical_json() == run.table.to_canonical_json()


def test_cluster_request_accounting():
    collector = TimeSeriesCollector(window_s=10.0)
    collector.observe_row(
        {"kind": "span_begin", "t": 1.0, "name": "request.serve",
         "attrs": {"cluster": 2}}
    )
    collector.observe_row(
        {"kind": "span_begin", "t": 2.0, "name": "request.serve",
         "attrs": {"cluster": 10}}
    )
    collector.observe_row(
        {"kind": "span_begin", "t": 12.0, "name": "request.serve",
         "attrs": {"cluster": 2}}
    )
    table = collector.finalize()
    assert table.series("num_requests") == [2, 1]
    assert table.cluster_ids() == ["2", "10"]  # numeric, not lexicographic
    assert table.cluster_series("2") == [1, 1]
    assert table.cluster_series("10") == [1, 0]


def test_shed_request_is_not_served():
    """A shed row arrives inside its request.serve span: the request
    leaves num_requests and its cluster's count, and counts as a shed."""
    collector = TimeSeriesCollector(window_s=10.0, include_faults=True)
    for cluster in (2, 3):
        collector.observe_row(
            {"kind": "span_begin", "t": 1.0, "name": "request.serve",
             "attrs": {"cluster": cluster}}
        )
    collector.observe_row(_event(1.0, "server.shed", active=2, limit=2))
    collector.observe_row(
        {"kind": "span_begin", "t": 2.0, "name": "request.serve",
         "attrs": {"cluster": 2}}
    )
    (record,) = collector.finalize().windows
    assert record["num_requests"] == 2
    assert record["cluster_requests"] == {"2": 2}
    assert record["server_sheds"] == 1


def test_span_end_and_unknown_rows_ignored():
    collector = TimeSeriesCollector(window_s=10.0)
    collector.observe_row({"kind": "span_end", "t": 1.0, "name": "request.serve"})
    collector.observe_row(_event(2.0, "flood.hop", node=3))
    collector.observe_row({"kind": "counter", "name": "x", "value": 1.0})
    table = collector.finalize()
    assert table.num_windows == 0


def test_empty_stream_yields_empty_table():
    table = TimeSeriesCollector(window_s=10.0).finalize(content_hash="abc")
    assert table.num_windows == 0
    assert table.content_hash == "abc"
    assert table.cluster_ids() == []


def test_window_s_must_be_positive():
    for window_s in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TimeSeriesCollector(window_s=window_s)


# ---------------------------------------------------------------------------
# overhead bound


def test_collection_overhead_under_five_percent(spec):
    """The streaming sink adds <5% to the traced run it rides on.

    Constructive, like the disabled-tracer bound: measure the traced
    run's wall-clock (denominator, best-of-2), then the cost of
    feeding every one of that run's rows through a fresh collector
    (numerator, best-of-3), and compare the measured factors.
    """
    timings = []
    rows = None
    for _ in range(2):
        tracer = Tracer()
        start = time.perf_counter()
        run_spec(spec, tracer=tracer)
        timings.append(time.perf_counter() - start)
        rows = tracer.rows()
    traced_s = min(timings)

    feed_s = float("inf")
    for _ in range(3):
        collector = TimeSeriesCollector(window_s=DEFAULT_WINDOW_S)
        sink = collector.observe_row
        start = time.perf_counter()
        for row in rows:
            sink(row)
        feed_s = min(feed_s, time.perf_counter() - start)

    assert feed_s < 0.05 * traced_s, (
        f"collector fed {len(rows)} rows in {feed_s:.4f}s against a "
        f"{traced_s:.4f}s traced run "
        f"({100 * feed_s / traced_s:.2f}% > 5%)"
    )
