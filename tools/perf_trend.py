"""Fold the committed ``BENCH_*.json`` snapshots into a trend table.

Run from the repo root (no dependencies beyond git and the stdlib):

    python tools/perf_trend.py            # markdown trajectory tables
    python tools/perf_trend.py --check    # schema gate for CI (exit 1 on
                                          # malformed/missing snapshots)

Every benchmark snapshot is committed precisely so its history can be
read: this tool walks ``git log`` for each ``BENCH_*.json``, extracts
the file's **headline metric** (the one number its benchmark exists to
track -- see ``benchmarks/README.md``), and renders one markdown table
per file: commit, date, subject, headline value, and the delta against
the previous committed value.  A file whose ``HEADLINES`` entry names
a companion value (the engine's ``nodes_10000`` point) gets two more
columns: the companion and its ratio to the headline.  A working-tree
version that differs from the last committed snapshot is appended as
a final ``(working tree)`` row, so a PR's perf motion is visible
before the commit exists.

The numbers are machine-dependent (the snapshots record ``cpu_count``
for exactly this reason), so ``--check`` deliberately does **not**
gate on values or deltas -- the repo's standing rule is that CI never
asserts on committed wall-clock numbers, only on constructive bars
measured in-process.  What ``--check`` does gate on is structure: each
current snapshot must parse, carry the shared envelope written by
``benchmarks/harness.py`` (``bench_schema`` at the known version,
``benchmark``, ``command``, ``cpu_count``, ``timings_s``), and expose
its headline metric at the documented key.  A benchmark that silently
stops publishing its headline is the regression this gate catches.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))

#: Known envelope version (mirrors ``benchmarks/harness.py``; kept as a
#: literal so this tool runs without PYTHONPATH or the benchmarks dir).
BENCH_SCHEMA_VERSION = 1

#: filename -> (dotted headline key, unit, higher-is-better, dotted
#: companion key or None).  The headline is the quantity each
#: snapshot's ``note`` declares; trend deltas are signed so a drop in a
#: higher-is-better metric reads as negative.  A companion is shown
#: beside the headline with its ratio to it, as context only: neither
#: is gated.  The engine's is the 10k-node point, since throughput
#: stops falling with scale once nodes_10000 / nodes_1000 reaches 1.
HEADLINES: Dict[str, Tuple[str, str, bool, Optional[str]]] = {
    "BENCH_engine.json": (
        "throughput_events_per_s.nodes_1000",
        "events/s",
        True,
        "throughput_events_per_s.nodes_10000",
    ),
    "BENCH_faults.json": (
        "timings_s.grid_smoke",
        "s",
        False,
        None,
    ),
    "BENCH_timeseries.json": (
        "throughput_events_per_s.untraced",
        "events/s",
        True,
        None,
    ),
    "BENCH_parallel.json": ("timings_s.serial_jobs1", "s", False, None),
    "BENCH_lint.json": ("throughput_files_per_s", "files/s", True, None),
}

#: Envelope keys every *current* snapshot must carry (historical
#: revisions predate the shared harness and are rendered best-effort).
ENVELOPE_KEYS = ("bench_schema", "benchmark", "command", "cpu_count", "timings_s")


def dig(payload: Dict[str, Any], dotted: str) -> Optional[Any]:
    """Resolve ``a.b.c`` inside nested dicts; None when any hop is absent."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _git(*argv: str) -> Optional[str]:
    """Run one git command at the repo root; None on any failure."""
    try:
        out = subprocess.run(
            ("git", "-C", REPO_ROOT) + argv,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout


def committed_revisions(filename: str) -> List[Dict[str, str]]:
    """Oldest-first commits touching ``filename``: sha, date, subject."""
    raw = _git(
        "log",
        "--reverse",
        "--format=%h\x1f%cs\x1f%s",
        "--",
        filename,
    )
    if not raw:
        return []
    revisions = []
    for line in raw.splitlines():
        sha, date, subject = line.split("\x1f", 2)
        revisions.append({"sha": sha, "date": date, "subject": subject})
    return revisions


def payload_at(sha: str, filename: str) -> Optional[Dict[str, Any]]:
    """The snapshot as committed at ``sha``; None if absent/unparsable."""
    blob = _git("show", f"{sha}:{filename}")
    if blob is None:
        return None
    try:
        payload = json.loads(blob)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def working_payload(filename: str) -> Optional[Dict[str, Any]]:
    """The snapshot currently on disk; None if absent/unparsable."""
    path = os.path.join(REPO_ROOT, filename)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _fmt_value(value: Any, unit: str) -> str:
    if isinstance(value, float):
        return f"{value:g} {unit}"
    return f"{value} {unit}"


def _fmt_delta(value: Any, previous: Any) -> str:
    if not isinstance(value, (int, float)) or not isinstance(
        previous, (int, float)
    ):
        return ""
    if not previous:
        return ""
    pct = 100.0 * (value - previous) / previous
    return f"{pct:+.1f}%"


def _fmt_ratio(value: Any, headline: Any) -> str:
    if isinstance(value, (int, float)) and isinstance(headline, (int, float)) and headline:
        return f"{value / headline:.2f}"
    return "?"


def trend_rows(filename: str) -> List[Dict[str, Any]]:
    """One row per revision (plus a working-tree row when it differs)."""
    key, _unit, _higher, companion = HEADLINES[filename]

    def values(payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "value": dig(payload, key),
            "companion": dig(payload, companion) if companion else None,
        }

    rows: List[Dict[str, Any]] = []
    last_committed: Optional[Dict[str, Any]] = None
    for rev in committed_revisions(filename):
        payload = payload_at(rev["sha"], filename)
        if payload is None:
            continue
        last_committed = payload
        rows.append({**rev, **values(payload)})
    current = working_payload(filename)
    if current is not None and current != last_committed:
        rows.append(
            {
                "sha": "—",
                "date": "(working tree)",
                "subject": "uncommitted",
                **values(current),
            }
        )
    return rows


def render_trend(filenames: List[str]) -> str:
    """The full markdown report over ``filenames``."""
    lines = ["# Benchmark headline trends", ""]
    lines.append(
        "Values are machine-dependent snapshots (each records the "
        "producing host's `cpu_count`); read deltas as trajectory, "
        "not as a gate."
    )
    for filename in filenames:
        key, unit, higher, companion = HEADLINES[filename]
        lines.append("")
        direction = "higher is better" if higher else "lower is better"
        lines.append(f"## {filename} — `{key}` ({direction})")
        lines.append("")
        rows = trend_rows(filename)
        if not rows:
            lines.append("_no committed snapshots and no working-tree file_")
            continue
        header = "| commit | date | subject | headline | delta |"
        if companion:
            name = companion.rsplit(".", 1)[-1]
            header += f" {name} | {name}/{key.rsplit('.', 1)[-1]} |"
        lines.append(header)
        lines.append("|" + " --- |" * (header.count("|") - 1))
        previous = None
        for row in rows:
            value = row["value"]
            shown = "?" if value is None else _fmt_value(value, unit)
            delta = _fmt_delta(value, previous)
            subject = row["subject"]
            if len(subject) > 56:
                subject = subject[:53] + "..."
            line = f"| {row['sha']} | {row['date']} | {subject} | {shown} | {delta} |"
            if companion:
                extra = row["companion"]
                extra_shown = "?" if extra is None else _fmt_value(extra, unit)
                line += f" {extra_shown} | {_fmt_ratio(extra, value)} |"
            lines.append(line)
            if value is not None:
                previous = value
    lines.append("")
    return "\n".join(lines)


def check_snapshots(filenames: List[str]) -> List[str]:
    """Structural problems with the *current* snapshots (CI gate)."""
    problems = []
    for filename in filenames:
        key, _unit, _higher, _companion = HEADLINES[filename]
        payload = working_payload(filename)
        if payload is None:
            problems.append(f"{filename}: missing or unparsable")
            continue
        for envelope_key in ENVELOPE_KEYS:
            if envelope_key not in payload:
                problems.append(f"{filename}: envelope key {envelope_key!r} missing")
        schema = payload.get("bench_schema")
        if schema is not None and schema != BENCH_SCHEMA_VERSION:
            problems.append(
                f"{filename}: bench_schema {schema!r} != {BENCH_SCHEMA_VERSION}"
            )
        if dig(payload, key) is None:
            problems.append(f"{filename}: headline key {key!r} missing")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate current snapshot structure instead of printing trends",
    )
    parser.add_argument(
        "files",
        nargs="*",
        choices=[[], *sorted(HEADLINES)],
        help="restrict to specific BENCH files (default: all known)",
    )
    args = parser.parse_args(argv)
    filenames = list(args.files) or sorted(HEADLINES)

    if args.check:
        problems = check_snapshots(filenames)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if not problems:
            print(f"ok: {len(filenames)} snapshot(s) structurally sound")
        return 1 if problems else 0

    print(render_trend(filenames))
    return 0


if __name__ == "__main__":
    sys.exit(main())
