"""Shared harness for the standalone ``bench_*.py`` scripts.

Every wall-clock benchmark in this directory is run directly (never via
pytest) and writes a committed ``BENCH_*.json`` snapshot at the repo
root.  This module owns the three conventions they share, so a change
to any of them lands in one place:

* :func:`best_of` -- the repeat policy: ``time.perf_counter()``
  best-of-N, so one scheduler hiccup cannot inflate a committed number;
* :func:`envelope` -- the schema-versioned common header every
  snapshot starts with (``bench_schema``, ``benchmark``, ``command``,
  ``cpu_count``); ``tools/perf_trend.py`` keys on these fields when it
  folds historical snapshots into a trajectory table;
* :func:`write_bench` -- the repo-root JSON writer (``indent=2``,
  insertion order preserved, trailing newline) so every snapshot diffs
  cleanly in review.

:func:`bar` is the small acceptance-bar reporter the scripts with
in-script bars share: it prints a ``FAIL:`` line to stderr when the
bar is missed and returns whether it was, so ``main`` can accumulate
an exit code without each script re-inventing the print.

Scripts are run with ``benchmarks/`` as ``sys.path[0]`` (that is how
``python benchmarks/bench_x.py`` works), so a plain ``import harness``
resolves here.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Version of the shared envelope written by :func:`envelope`.  Bump
#: when a common key is renamed or re-typed; benchmark-specific
#: sections may evolve freely without a bump.
BENCH_SCHEMA_VERSION = 1

#: Repo root -- every ``BENCH_*.json`` snapshot lands here.
REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))


def best_of(
    fn: Callable[[], Any], repeats: int = 3
) -> Tuple[float, Any]:
    """(best wall-clock seconds, last return value) over ``repeats`` calls."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def rounds_of_each(
    fns: Sequence[Callable[[], Any]], repeats: int = 3
) -> Tuple[List[List[float]], List[Any]]:
    """Time several configurations round-robin, keeping every round.

    Runs one round of every ``fn`` before the next repeat instead of
    exhausting each configuration's repeats in a block, so slow host
    drift (frequency ramp-up, cache warm-up, a neighbour container
    waking) hits every configuration equally rather than biasing
    whichever block ran first.  Round ``r`` of one configuration and
    round ``r`` of another ran back to back, which makes them a pair
    for a paired difference.  Returns one list of per-round seconds
    per ``fn``, in order, and each ``fn``'s last return value.
    """
    times: List[List[float]] = [[] for _ in fns]
    values: List[Any] = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            values[i] = fn()
            times[i].append(time.perf_counter() - t0)
    return times, values


def best_of_each(
    fns: Sequence[Callable[[], Any]], repeats: int = 3
) -> List[Tuple[float, Any]]:
    """Round-robin :func:`best_of` across several configurations.

    The policy for A/B overhead comparisons (``untraced`` vs
    ``traced``), where the quantity under a bar is a *difference* of
    timings and block ordering alone can exceed the bar; see
    :func:`rounds_of_each`.  Returns one ``(best seconds, last value)``
    pair per ``fn``, in order.
    """
    times, values = rounds_of_each(fns, repeats)
    return [(min(rounds), value) for rounds, value in zip(times, values)]


def envelope(benchmark: str, command: str) -> Dict[str, Any]:
    """The shared snapshot header: schema version, identity, host shape.

    Returned as a fresh dict so callers can splat it first and append
    their benchmark-specific sections after it in insertion order.
    """
    return {
        "bench_schema": BENCH_SCHEMA_VERSION,
        "benchmark": benchmark,
        "command": command,
        "cpu_count": multiprocessing.cpu_count(),
    }


def write_bench(filename: str, payload: Dict[str, Any]) -> str:
    """Write ``payload`` to ``<repo root>/<filename>`` and return the path.

    Insertion order is preserved deliberately: the envelope leads, the
    headline sections follow, the notes trail -- snapshots are read by
    humans in PR diffs.  (Canonical *simulation* artifacts sort keys;
    benchmark snapshots are documentation, not hashed outputs.)
    """
    path = os.path.join(REPO_ROOT, filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def bar(failed: bool, message: str) -> bool:
    """Report one acceptance bar; returns ``failed`` for accumulation.

    Prints ``FAIL: <message>`` to stderr when the bar was missed so a
    script can ``sys.exit(1)`` after reporting every bar, not just the
    first.
    """
    if failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return failed
