"""Wall-clock benchmark for the lint analyzer.

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_lint.py

Times ``python -m repro lint`` over the shipped ``src/repro`` tree --

* ``full_analysis`` -- everything ``lint_paths`` does: one parse per
  file, every rule over it, the cross-file substream aliasing check,
  suppression matching;
* ``render_json``   -- serializing the report (the CI artifact).

Measurements go to ``BENCH_lint.json`` at the repo root (same schema
family as ``BENCH_faults.json``; see ``benchmarks/README.md``).  The
acceptance bar is ``full_analysis`` < 10 s on the full tree, asserted
here (exit non-zero past the bar): the analyzer runs inside tier-1 and
on every CI push, so it must stay interactive-fast.
"""

from __future__ import annotations

import json
import sys

import harness

from repro.lint.runner import default_lint_root, lint_paths, render_json

REPEATS = 3
ANALYSIS_BAR_S = 10.0
OUTPUT = "BENCH_lint.json"


def main() -> int:
    root = default_lint_root()

    analysis_s, report = harness.best_of(lambda: lint_paths([root]), repeats=REPEATS)
    render_s, blob = harness.best_of(lambda: render_json(report), repeats=REPEATS)

    if not report.ok:
        raise AssertionError(
            "benchmark expects a lint-clean tree; fix findings first:\n"
            + "\n".join(f.render() for f in report.findings)
        )

    payload = {
        **harness.envelope(
            "lint analyzer (full src/repro tree)",
            "PYTHONPATH=src python benchmarks/bench_lint.py",
        ),
        "tree": {
            "files_checked": report.files_checked,
            "stream_sites": len(report.stream_sites),
        },
        "timings_s": {
            "full_analysis": round(analysis_s, 4),
            "render_json": round(render_s, 4),
        },
        "throughput_files_per_s": round(report.files_checked / analysis_s),
        "report_bytes": len(blob),
        "analysis_bar_s": ANALYSIS_BAR_S,
        "repeats_best_of": REPEATS,
        "note": (
            "full_analysis is the complete lint_paths pipeline CI runs: "
            "one parse per module, every rule over it, the cross-file "
            "substream aliasing check and suppression matching.  The "
            "10 s bar keeps the analyzer cheap enough "
            "to sit inside tier-1 (tests/test_lint_clean.py) and run on "
            "every push."
        ),
    }
    path = harness.write_bench(OUTPUT, payload)

    print(json.dumps(payload["timings_s"], indent=2))
    print(f"files/s: {payload['throughput_files_per_s']}")
    print(f"wrote {path}")
    if harness.bar(
        analysis_s >= ANALYSIS_BAR_S,
        f"full analysis {analysis_s:.2f}s >= {ANALYSIS_BAR_S}s bar",
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
