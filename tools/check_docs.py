#!/usr/bin/env python3
"""Documentation checks: intra-repo markdown links and mermaid blocks.

Run from the repository root (CI's docs job does)::

    python tools/check_docs.py            # checks all tracked *.md files
    python tools/check_docs.py docs/*.md  # or an explicit list

Six checks, all offline:

* **Links** -- every relative markdown link target (``[x](docs/y.md)``,
  optionally with a ``#fragment``) must exist on disk, resolved against
  the linking file's directory.  External schemes (``http(s)://``,
  ``mailto:``) and pure in-page anchors (``#section``) are skipped.
* **Mermaid** -- every ````` ```mermaid ````` fence must parse under a
  lenient structural validator: a known diagram header on the first
  non-blank line, balanced bracket/paren/brace delimiters per line, and
  no unterminated quoted strings.  This catches the typo class that
  breaks rendering (a stray ``]`` or an unclosed label) without
  needing the real mermaid toolchain.
* **Tables** -- every pipe table (consecutive ``|``-prefixed lines
  outside code fences) needs a ``---`` separator as its second row and
  the same cell count on every row; a dropped ``|`` silently shifts
  every column to the right of it, which is exactly the corruption the
  field-catalogue tables in docs/tracing.md cannot afford.
* **Lint rule reference** -- ``docs/lint.md`` must document every rule
  id the analyzer registers (``repro.lint.runner.RULE_DESCRIPTIONS``) with a
  ``#### `rule-id` (severity)`` heading whose severity matches the
  registry, and must not document rule ids that no longer exist.  This
  keeps the rule reference from drifting as rules are added/renamed.
* **Fault counter reference** -- ``docs/tracing.md`` must mention, as
  backticked tokens, every trace row that carries a declared fault
  counter and every counter's window column
  (``repro.metrics.collectors.COUNTERS``).  Same anti-drift idea as the
  lint reference: the counters are code-owned declarations, and the
  operator docs may not silently fall behind them.
* **Profile report reference** -- ``docs/performance.md`` must mention
  every top-level field of the sidecar profile report
  (``repro.obs.export.PERF_REPORT_FIELDS``) as a backticked token,
  so the telemetry guide tracks the schema it documents.

Exit code 0 when clean, 1 with one ``file:line: message`` row per
problem otherwise.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterable, List, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

#: Markdown inline link: [text](target) -- ignores images' leading ``!``
#: by matching them identically (image paths must exist too).
_LINK_RE = re.compile(r"\[[^\]\n]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

_MERMAID_HEADERS = (
    "flowchart",
    "graph",
    "sequenceDiagram",
    "classDiagram",
    "stateDiagram",
    "erDiagram",
    "gantt",
    "pie",
    "journey",
    "timeline",
    "mindmap",
)

_BRACKETS = {"[": "]", "(": ")", "{": "}"}
_CLOSERS = {v: k for k, v in _BRACKETS.items()}


def iter_markdown_files(root: str) -> List[str]:
    """All ``*.md`` files under ``root``, skipping VCS/cache directories."""
    found: List[str] = []
    skip_dirs = {".git", "__pycache__", ".pytest_cache", "node_modules"}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in skip_dirs)
        for name in sorted(filenames):
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return found


def _strip_code_fences(lines: List[str]) -> List[Tuple[int, str]]:
    """(lineno, text) pairs with fenced code block contents removed."""
    kept: List[Tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            kept.append((lineno, line))
    return kept


def check_links(path: str, lines: List[str]) -> List[str]:
    """``file:line: message`` rows for broken relative link targets."""
    problems: List[str] = []
    base = os.path.dirname(os.path.abspath(path))
    for lineno, line in _strip_code_fences(lines):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(resolved):
                problems.append(
                    f"{path}:{lineno}: broken link target {target!r} "
                    f"(resolved to {resolved})"
                )
    return problems


def _balanced(line: str) -> bool:
    """Bracket/paren/brace balance for one mermaid line (quotes opaque)."""
    stack: List[str] = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
            continue
        if in_quote:
            continue
        if ch in _BRACKETS:
            stack.append(ch)
        elif ch in _CLOSERS:
            if not stack or stack[-1] != _CLOSERS[ch]:
                return False
            stack.pop()
    return not stack and not in_quote


def check_mermaid_block(path: str, start_line: int, block: List[str]) -> List[str]:
    """Validate one mermaid fence's contents (lenient structural parse)."""
    problems: List[str] = []
    body = [line for line in block if line.strip()]
    if not body:
        problems.append(f"{path}:{start_line}: empty mermaid block")
        return problems
    header = body[0].strip().split()[0]
    if header not in _MERMAID_HEADERS:
        problems.append(
            f"{path}:{start_line}: mermaid block starts with {header!r}, "
            f"expected one of {', '.join(_MERMAID_HEADERS)}"
        )
    for offset, line in enumerate(block):
        if line.strip() and not _balanced(line):
            problems.append(
                f"{path}:{start_line + offset + 1}: unbalanced "
                f"delimiters/quotes in mermaid line: {line.strip()!r}"
            )
    return problems


def check_mermaid(path: str, lines: List[str]) -> List[str]:
    """Find and validate every ```mermaid fence in one file."""
    problems: List[str] = []
    block: List[str] = []
    start = 0
    in_mermaid = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_mermaid and stripped.startswith("```mermaid"):
            in_mermaid = True
            start = lineno
            block = []
            continue
        if in_mermaid and stripped.startswith("```"):
            in_mermaid = False
            problems.extend(check_mermaid_block(path, start, block))
            continue
        if in_mermaid:
            block.append(line)
    if in_mermaid:
        problems.append(f"{path}:{start}: unterminated mermaid fence")
    return problems


def _table_cells(line: str) -> int:
    """Cell count of one pipe-table row (outer pipes stripped)."""
    body = line.strip().strip("|")
    cells = 0
    escaped = False
    for ch in body:
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
            continue
        if ch == "|":
            cells += 1
    return cells + 1


def _is_separator_row(line: str) -> bool:
    """Whether a row is the ``| --- | --- |`` header separator."""
    body = line.strip().strip("|")
    parts = [part.strip() for part in body.split("|")]
    return all(part and set(part) <= {"-", ":"} for part in parts)


def check_tables(path: str, lines: List[str]) -> List[str]:
    """``file:line: message`` rows for malformed pipe tables."""
    problems: List[str] = []
    block: List[Tuple[int, str]] = []
    kept = _strip_code_fences(lines)
    kept.append((len(lines) + 1, ""))  # sentinel flushes a trailing table
    for lineno, line in kept:
        if line.strip().startswith("|"):
            block.append((lineno, line))
            continue
        if len(block) >= 2:
            start, _header = block[0]
            if not _is_separator_row(block[1][1]):
                problems.append(
                    f"{path}:{start}: table is missing its '---' "
                    "separator as the second row"
                )
            else:
                width = _table_cells(block[0][1])
                for row_line, row in block[2:]:
                    if _table_cells(row) != width:
                        problems.append(
                            f"{path}:{row_line}: table row has "
                            f"{_table_cells(row)} cell(s), header has "
                            f"{width}"
                        )
        block = []
    return problems


#: ``#### `rule-id` (severity)`` -- one heading per analyzer rule.
_RULE_HEADING_RE = re.compile(r"^####\s+`([a-z0-9-]+)`\s+\((high|medium|low)\)\s*$")


def check_lint_rule_reference(path: str) -> List[str]:
    """docs/lint.md documents exactly the analyzer's registered rules."""
    from repro.lint.runner import RULE_DESCRIPTIONS, RULE_SEVERITIES

    problems: List[str] = []
    documented: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle.read().splitlines(), start=1):
            match = _RULE_HEADING_RE.match(line)
            if match:
                documented[match.group(1)] = (lineno, match.group(2))
    for rule_id in sorted(RULE_DESCRIPTIONS):
        if rule_id not in documented:
            problems.append(
                f"{path}:1: rule {rule_id!r} is registered by the analyzer "
                "but has no '#### `rule-id` (severity)' section"
            )
            continue
        lineno, severity = documented[rule_id]
        if severity != RULE_SEVERITIES[rule_id]:
            problems.append(
                f"{path}:{lineno}: rule {rule_id!r} documented as "
                f"{severity!r} but registered as {RULE_SEVERITIES[rule_id]!r}"
            )
    for rule_id, (lineno, _severity) in sorted(documented.items()):
        if rule_id not in RULE_DESCRIPTIONS:
            problems.append(
                f"{path}:{lineno}: documented rule {rule_id!r} is not "
                "registered by the analyzer (renamed or removed?)"
            )
    return problems


def check_fault_counter_reference(path: str) -> List[str]:
    """docs/tracing.md mentions every declared fault counter's rows and
    window column."""
    from repro.metrics.collectors import COUNTERS

    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    for counter, (rows, _by) in COUNTERS.items():
        # A counter with rows has a window column of its own name.
        for token in (*rows, counter) if rows else ():
            if f"`{token}`" not in text:
                problems.append(
                    f"{path}:1: {token!r} (a row or the window column of fault "
                    f"counter {counter!r}, repro.metrics.collectors.COUNTERS) "
                    "is not documented as a backticked token"
                )
    return problems


def check_perf_field_reference(path: str) -> List[str]:
    """docs/performance.md mentions every profile-report field."""
    from repro.obs.export import PERF_REPORT_FIELDS

    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    for field in PERF_REPORT_FIELDS:
        if f"`{field}`" not in text:
            problems.append(
                f"{path}:1: profile report field {field!r} "
                "(repro.obs.export.PERF_REPORT_FIELDS) is not "
                "documented as a backticked token"
            )
    return problems


def check_file(path: str) -> List[str]:
    """All problems for one markdown file."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    problems = (
        check_links(path, lines)
        + check_mermaid(path, lines)
        + check_tables(path, lines)
    )
    in_docs = "docs" in path.split(os.sep)
    if os.path.basename(path) == "lint.md" and in_docs:
        problems += check_lint_rule_reference(path)
    if os.path.basename(path) == "tracing.md" and in_docs:
        problems += check_fault_counter_reference(path)
    if os.path.basename(path) == "performance.md" and in_docs:
        problems += check_perf_field_reference(path)
    return problems


def run(paths: Iterable[str]) -> int:
    """Check the given files (or discover *.md under '.'); 0 = clean."""
    targets = list(paths) or iter_markdown_files(".")
    problems: List[str] = []
    for path in targets:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    print(f"{len(problems)} problem(s) in {len(targets)} markdown file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
