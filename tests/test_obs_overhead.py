"""The disabled tracer must be effectively free (<2% of run wall-clock).

Direct A/B wall-clock comparison of two full runs is noisy in CI, so
the bound is established constructively:

1. run the spec once *with* tracing and count emitted rows by kind --
   an upper bound on how many tracer hook invocations the run performs
   (every instrumented site emits at most one row when enabled);
2. measure the per-call cost of the disabled-path shapes each kind
   implies: event rows come from ``if tracer:``-guarded sites (a
   single falsy ``bool`` when disabled), span rows from unguarded
   ``with tracer.span(...)`` blocks or detached ``begin``/``end``
   pairs (no-op method calls on ``NULL_TRACER``);
3. assert that the summed kind-count x per-call products stay under
   2% of the measured untraced run wall-clock.

This is robust because each factor is measured, not assumed, and the
product over-counts: every row is charged a guard check even though
many sites emit several rows per guard, and every span row is charged
the *most expensive* of the two span shapes.  The timing loop's own
iteration cost (comparable to the guard check itself) is measured via
an empty loop and subtracted, since real call sites pay the hook, not
a dedicated loop step.
"""

import time

from repro.experiments.config import SimulationConfig
from repro.experiments.spec import ExperimentSpec
from repro.obs.export import parse_jsonl_bytes, run_traced
from repro.obs.tracer import NULL_TRACER


def _best_of(measure, repeats=3):
    """Minimum of ``repeats`` calls to a zero-arg timing function."""
    return min(measure() for _ in range(repeats))


def _time_empty_loop(n: int) -> float:
    """Seconds for the bare timing loop -- the harness's own cost."""
    start = time.perf_counter()
    for _ in range(n):
        pass
    return time.perf_counter() - start


def _time_guard_checks(n: int) -> float:
    """Seconds for n guarded hook sites with the tracer disabled.

    This is the shape of every ``event`` site in the tree: the
    ``if tracer:`` guard short-circuits on the falsy ``NullTracer``
    before any method call or attr construction happens.
    """
    tracer = NULL_TRACER
    start = time.perf_counter()
    for _ in range(n):
        if tracer:
            tracer.event("x")
    return time.perf_counter() - start


def _time_with_spans(n: int) -> float:
    """Seconds for n disabled ``with tracer.span(...)`` sites."""
    tracer = NULL_TRACER
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("x"):
            pass
    return time.perf_counter() - start


def _time_begin_end_pairs(n: int) -> float:
    """Seconds for n disabled detached ``begin``/``end`` span pairs."""
    tracer = NULL_TRACER
    start = time.perf_counter()
    for _ in range(n):
        sid = tracer.begin("x")
        tracer.end(sid)
    return time.perf_counter() - start


def test_disabled_tracer_overhead_under_two_percent():
    spec = ExperimentSpec(
        protocol="socialtube", config=SimulationConfig.smoke_scale()
    )

    # Untraced wall-clock (the denominator), best-of-3 to damp noise.
    from repro.experiments.runner import run_spec

    timings = []
    for _ in range(3):
        start = time.perf_counter()
        run_spec(spec)
        timings.append(time.perf_counter() - start)
    untraced_s = min(timings)

    # How many hook invocations of each shape does the run perform?
    _result, payload = run_traced(spec)
    rows = parse_jsonl_bytes(payload)[1:]  # the header is no hook call
    n_rows = len(rows)
    n_span_rows = sum(1 for row in rows if row["kind"] == "span_begin")

    # Per-call disabled cost by shape, amortized over a large batch;
    # a span site is *either* a with-block or a begin/end pair, so
    # every span row is charged the more expensive of the two.
    batch = max(n_rows, 10_000)
    loop_s = _best_of(lambda: _time_empty_loop(batch)) / batch
    guard_s = max(0.0, _best_of(lambda: _time_guard_checks(batch)) / batch - loop_s)
    span_s = max(
        0.0,
        max(
            _best_of(lambda: _time_with_spans(batch)),
            _best_of(lambda: _time_begin_end_pairs(batch)),
        )
        / batch
        - loop_s,
    )
    noop_s_for_run = n_rows * guard_s + n_span_rows * span_s

    assert noop_s_for_run < 0.02 * untraced_s, (
        f"disabled tracer would add {noop_s_for_run:.4f}s over "
        f"{n_rows} hook sites ({n_span_rows} span rows) to a "
        f"{untraced_s:.4f}s run "
        f"({100 * noop_s_for_run / untraced_s:.2f}% > 2%)"
    )
