"""Wall-clock benchmark for the time-series collection overhead.

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_timeseries.py

Times one smoke-scale run three ways --

* ``untraced``    -- NULL_TRACER, the production fast path;
* ``traced``      -- a live :class:`Tracer` recording every row;
* ``timeseries``  -- tracer + streaming :class:`TimeSeriesCollector`
  sink + one ``engine.tick`` gauge row per window (collection as
  :func:`run_with_timeseries` wires it, minus the artifact export);

plus, separately, the canonical-JSONL export of the collected trace
(an optional artifact step shared with ``python -m repro profile``,
not part of collection).  Measurements go to ``BENCH_timeseries.json``
at the repo root (same schema family as ``BENCH_parallel.json``; see
``benchmarks/README.md``).  The headline is ``collector_feed``: the
*marginal* cost of windowed collection, measured by pushing every
recorded row through a fresh sink.  The acceptance bar is <5% of the
traced run's wall clock (the run collection rides on), asserted
constructively in ``tests/test_obs_timeseries.py`` and reported here.
Live-vs-replay byte identity is asserted as a side effect.
"""

from __future__ import annotations

import json
import time

import harness

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.obs.export import trace_header, trace_to_jsonl_bytes
from repro.obs.timeseries import TimeSeriesCollector, series_from_trace
from repro.obs.tracer import Tracer

PROTOCOL = "socialtube"
WINDOW_S = 600.0
REPEATS = 3
OUTPUT = "BENCH_timeseries.json"


def main() -> None:
    config = SimulationConfig.smoke_scale()
    spec = ExperimentSpec(protocol=PROTOCOL, config=config)
    dataset = shared_trace_cache.dataset_for(config.trace)  # warm the cache

    def traced_run():
        tracer = Tracer()
        run_spec(spec, dataset=dataset, tracer=tracer)
        return tracer

    def timeseries_run():
        tracer = Tracer(tick_every_s=WINDOW_S)
        collector = TimeSeriesCollector(window_s=WINDOW_S)
        tracer.set_sink(collector.observe_row)
        run_spec(spec, dataset=dataset, tracer=tracer)
        return tracer, collector

    # Round-robin repeats so host-speed drift cannot bias the
    # overhead-vs-untraced deltas toward whichever block ran first.
    (
        (untraced_s, untraced),
        (traced_s, _tracer),
        (timeseries_s, (ts_tracer, collector)),
    ) = harness.best_of_each(
        [lambda: run_spec(spec, dataset=dataset), traced_run, timeseries_run],
        repeats=REPEATS,
    )

    # The robust headline: feed every recorded row through a fresh
    # collector and time just that.  Run-minus-run deltas bounce with
    # scheduler noise; this isolates the sink's actual cost.
    rows = ts_tracer.rows()
    feed_s = float("inf")
    for _ in range(REPEATS):
        probe = TimeSeriesCollector(window_s=WINDOW_S)
        sink = probe.observe_row
        t0 = time.perf_counter()
        for row in rows:
            sink(row)
        feed_s = min(feed_s, time.perf_counter() - t0)

    t0 = time.perf_counter()
    jsonl = trace_to_jsonl_bytes(trace_header(spec), ts_tracer.rows())
    export_s = time.perf_counter() - t0

    table = collector.finalize(content_hash=spec.content_hash())
    replayed = series_from_trace(jsonl, window_s=WINDOW_S)
    if table.to_canonical_json() != replayed.to_canonical_json():
        raise AssertionError("live vs replay series diverged -- determinism broken")

    events = untraced.events_processed
    payload = {
        **harness.envelope(
            "time-series collection overhead (quick scale)",
            "PYTHONPATH=src python benchmarks/bench_timeseries.py",
        ),
        "run": {
            "protocol": PROTOCOL,
            "num_nodes": config.num_nodes,
            "events_processed": events,
            "trace_rows": len(ts_tracer.rows()),
            "window_s": WINDOW_S,
            "num_windows": table.num_windows,
            "repeats_best_of": REPEATS,
        },
        "timings_s": {
            "untraced": round(untraced_s, 4),
            "traced": round(traced_s, 4),
            "timeseries": round(timeseries_s, 4),
            "jsonl_export_once": round(export_s, 4),
        },
        "throughput_events_per_s": {
            "untraced": round(events / untraced_s),
            "traced": round(events / traced_s),
            "timeseries": round(events / timeseries_s),
        },
        "collector_feed": {
            "seconds": round(feed_s, 4),
            "us_per_row": round(1e6 * feed_s / len(rows), 3),
            "pct_of_traced_run": round(100.0 * feed_s / traced_s, 2),
            "pct_of_untraced_run": round(100.0 * feed_s / untraced_s, 2),
        },
        "overhead_pct_vs_untraced": {
            "traced": round(100.0 * (traced_s - untraced_s) / untraced_s, 2),
            "timeseries": round(100.0 * (timeseries_s - untraced_s) / untraced_s, 2),
        },
        "determinism": "live series == replayed series, byte for byte (asserted)",
        "note": (
            "collector_feed is the marginal cost of the streaming window "
            "collector: every recorded row pushed through a fresh sink, "
            "best of N, isolated from run-to-run scheduler noise.  Its "
            "pct_of_traced_run is the quantity held to the <5% bar in "
            "tests/test_obs_timeseries.py -- collection only ever rides "
            "on a traced run, so that run is the wall clock it inflates.  "
            "jsonl_export_once is the optional artifact serialization "
            "(shared with `repro profile`), reported separately because "
            "collection does not require it."
        ),
    }
    path = harness.write_bench(OUTPUT, payload)

    print(json.dumps(payload["timings_s"], indent=2))
    print(f"collector feed: {payload['collector_feed']}")
    print(f"overhead vs untraced: {payload['overhead_pct_vs_untraced']}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
