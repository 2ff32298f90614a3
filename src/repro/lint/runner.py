"""The lint driver: walk files, run rule passes, filter, render.

Three passes run over a tree (in one parse per file):

1. the single-pass AST rules (:mod:`repro.lint.ast_rules`);
2. the flow-sensitive dataflow rules (:mod:`repro.lint.dataflow`);
3. the whole-program rules over the :class:`repro.lint.program`
   index -- substream aliasing and substream namespace ownership.

Per-line ``# lint: disable=<rule>`` suppression applies uniformly,
including to program-pass findings (matched back to their file's
suppression index).  That comment is the only waiver: every finding
that survives it fails the run, whatever its severity.

``lint_paths`` is the programmatic entry (used by the tier-1 clean-tree
test); ``run_lint`` backs ``python -m repro lint``.  Output is stable:
files are visited in sorted order, findings sort by location, and the
JSON renderer sorts keys -- two runs over the same tree produce
byte-identical reports.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.ast_rules import collect_findings
from repro.lint.dataflow import collect_flow_findings, collect_program_findings
from repro.lint.findings import Finding, RuleContext
from repro.lint.program import ProgramIndex, build_program
from repro.lint.suppressions import SuppressionIndex


def default_lint_root() -> str:
    """The ``src/repro`` package directory of this installation."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``findings`` holds every finding that survived per-line
    suppression -- the set that decides :attr:`ok` and the exit code.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Count of findings silenced by ``# lint: disable`` comments.
    suppressed: int = 0
    #: Size counters from the whole-program index (None when the run
    #: had no directory root to index).
    program_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def severity_counts(self) -> Dict[str, int]:
        """Finding count per severity level."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 3,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "severity_counts": self.severity_counts(),
            "program": self.program_stats,
            "findings": [f.to_dict() for f in self.findings],
        }


def _extract_exports(tree: ast.Module) -> frozenset:
    """String entries of a module-level ``__all__`` list/tuple."""
    names: List[str] = []
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    names.append(element.value)
    return frozenset(names)


def _is_rng_module(path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return normalized.endswith("sim/rng.py")


def _is_protocol_registry(path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return normalized.endswith("experiments/registry.py")


def _owns_wall_clock(path: str) -> bool:
    """The sanctioned wall-clock namespace: ``repro.obs.perf`` only.

    Nothing else in the tree reads the wall clock, so the exemption
    stays as narrow as the ``sim/rng.py`` RNG carve-out it mirrors.
    """
    normalized = path.replace(os.sep, "/")
    return normalized.endswith("obs/perf.py")


def _requires_public_docstrings(path: str) -> bool:
    """The API-surface files held to missing-public-docstring.

    The ``/obs/`` entry scopes the whole observability package --
    tracer/export (PR 3) and timeseries/report/baseline alike -- so
    new obs modules are covered the day they appear
    (``tests/test_lint_rules.py`` pins the roster).
    """
    normalized = path.replace(os.sep, "/")
    return (
        "/obs/" in normalized
        or normalized.endswith("experiments/spec.py")
        or normalized.endswith("experiments/registry.py")
    )


def _is_test_module(path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    basename = os.path.basename(normalized)
    return (
        basename.startswith("test_")
        or basename == "conftest.py"
        or "/tests/" in normalized
        or "/benchmarks/" in normalized
    )


def _build_context(
    path: str,
    tree: ast.Module,
    module_name: Optional[str],
) -> RuleContext:
    return RuleContext(
        path=path,
        is_rng_module=_is_rng_module(path),
        is_protocol_registry=_is_protocol_registry(path),
        is_test_module=_is_test_module(path),
        exported_names=_extract_exports(tree),
        requires_public_docstrings=_requires_public_docstrings(path),
        module_name=module_name,
        owns_wall_clock=_owns_wall_clock(path),
    )


def _lint_module(
    source: str,
    path: str,
    module_name: Optional[str] = None,
) -> Tuple[List[Finding], int, SuppressionIndex]:
    """(surviving findings, suppressed count, suppression index)."""
    tree = ast.parse(source, filename=path)
    ctx = _build_context(path, tree, module_name)
    suppressions = SuppressionIndex.from_source(source)
    kept: List[Finding] = []
    suppressed = 0
    all_findings = collect_findings(tree, ctx) + collect_flow_findings(tree, ctx)
    for finding in all_findings:
        if suppressions.is_suppressed(finding.line, finding.rule):
            suppressed += 1
        else:
            kept.append(finding)
    for lineno in suppressions.malformed_lines:
        kept.append(
            Finding(
                path=path,
                line=lineno,
                col=0,
                rule="bad-suppression",
                message="'# lint: disable=' names no rules; list rule ids or 'all'",
                severity="low",
            )
        )
    return sorted(kept), suppressed, suppressions


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; raises SyntaxError on a bad parse.

    Runs the single-pass and flow rules only -- program rules need a
    directory tree (use :func:`lint_paths`).
    """
    findings, _suppressed, _index = _lint_module(source, path)
    return findings


def _iter_python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            files.append(path)
    return sorted(set(files))


def _lint_root(paths: Sequence[str]) -> Optional[str]:
    """The directory that anchors the program pass: the first directory
    argument (None when only individual files were given)."""
    for path in paths:
        if os.path.isdir(path):
            return path
    return None


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint every ``.py`` file under the given files/directories.

    When the first path is a directory, the whole-program pass runs
    over it as well.
    """
    report = LintReport()
    root = _lint_root(paths)
    index: Optional[ProgramIndex] = None
    if root is not None:
        index = build_program(root)
        report.program_stats = index.stats()
    suppression_by_path: Dict[str, SuppressionIndex] = {}
    all_findings: List[Finding] = []
    for filepath in _iter_python_files(paths):
        try:
            with open(filepath, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            all_findings.append(
                Finding(
                    path=filepath,
                    line=1,
                    col=0,
                    rule="io-error",
                    message=f"cannot read file: {exc.strerror or exc}",
                    severity="high",
                )
            )
            continue
        report.files_checked += 1
        module_name = None
        if index is not None:
            info = index.module_for_path(filepath)
            if info is not None:
                module_name = info.name
        try:
            findings, suppressed, suppressions = _lint_module(
                source, path=filepath, module_name=module_name
            )
        except SyntaxError as exc:
            all_findings.append(
                Finding(
                    path=filepath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="syntax-error",
                    message=f"file does not parse: {exc.msg}",
                    severity="high",
                )
            )
            continue
        report.suppressed += suppressed
        all_findings.extend(findings)
        suppression_by_path[os.path.abspath(filepath)] = suppressions
    if index is not None:
        for finding in collect_program_findings(index):
            suppressions = suppression_by_path.get(os.path.abspath(finding.path))
            if suppressions is not None and suppressions.is_suppressed(
                finding.line, finding.rule
            ):
                report.suppressed += 1
                continue
            all_findings.append(finding)
    report.findings = sorted(all_findings)
    return report


def render_text(report: LintReport) -> str:
    lines = [finding.render() for finding in report.findings]
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_checked} file(s)"
        + (f", {report.suppressed} suppressed" if report.suppressed else "")
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def run_lint(
    paths: Optional[Sequence[str]] = None,
    output_format: str = "text",
) -> int:
    """Lint and print; the ``python -m repro lint`` backend.

    Returns the process exit code: 0 on a clean tree, 1 when any
    finding survives suppression.
    """
    if output_format not in ("text", "json"):
        raise ValueError(f"unknown lint output format {output_format!r}")
    target_paths = list(paths) if paths else [default_lint_root()]
    report = lint_paths(target_paths)
    print(render_json(report) if output_format == "json" else render_text(report))
    return 0 if report.ok else 1
