"""The lint driver: the rule table, the file walk, suppression, rendering.

One pass parses each file once and runs every rule in :data:`RULES`
over the tree, collecting the module's RNG substream sites on the way;
then ``rng-substream-aliasing``, the one check that spans files, runs
once over every collected site.

Per-line ``# lint: disable=<rule>`` suppression applies uniformly,
including to the cross-file aliasing findings.  That comment is the
only waiver: every finding that survives it fails the run, whatever
its severity.

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

from repro.lint import ast_rules, dataflow
from repro.lint.base import Rule
from repro.lint.findings import Finding, RuleContext, StreamSite
from repro.lint.suppressions import SuppressionIndex

#: Every rule the analyzer runs, each declared once on its class.
RULES: Tuple[Rule, ...] = (
    ast_rules.WallClockRule(),
    ast_rules.UnusedImportRule(),
    ast_rules.DeadNameRule(),
    ast_rules.BroadExceptRule(),
    ast_rules.FloatTimeEqRule(),
    ast_rules.DirectProtocolInstantiationRule(),
    ast_rules.MissingPublicDocstringRule(),
    dataflow.GlobalRandomRule(),
    dataflow.SetIterationRule(),
    dataflow.MutableDefaultArgRule(),
    dataflow.UnsortedAccumulationRule(),
    dataflow.UnsortedSerializationRule(),
    dataflow.RngUnownedGeneratorRule(),
    dataflow.RngObsHookDrawRule(),
    dataflow.RngForeignSubstreamRule(),
    dataflow.RngSubstreamAliasRule(),
)

#: Findings the runner emits itself: id -> (severity, description,
#: explanation).
RUNNER_RULES: Dict[str, Tuple[str, str, str]] = {
    "syntax-error": (
        "high",
        "file does not parse; nothing else can be checked",
        """\
The file does not parse, so no other rule can run over it.  Reported
as a finding (not a crash) so one broken file cannot hide the rest of
the tree's findings.""",
    ),
    "io-error": (
        "high",
        "file cannot be read",
        """\
The file could not be read.  Reported as a finding so a permissions
problem fails the gate visibly instead of silently shrinking
coverage.""",
    ),
    "bad-suppression": (
        "low",
        "'# lint: disable=' names no rules; list rule ids or 'all'",
        """\
A `# lint: disable=` comment that names no rules suppresses nothing
and usually means a typo'd rule id; list rule ids or `all`.""",
    ),
}

_RULE_DOCS: Dict[str, Tuple[str, str, str]] = {
    **{
        rule.rule_id: (rule.severity, rule.description, rule.explanation)
        for rule in RULES
    },
    **RUNNER_RULES,
}

#: rule id -> ``--list-rules`` description, for every id the analyzer
#: can emit.
RULE_DESCRIPTIONS: Dict[str, str] = {
    rule_id: description for rule_id, (_sev, description, _exp) in _RULE_DOCS.items()
}

#: rule id -> severity, same coverage as RULE_DESCRIPTIONS.
RULE_SEVERITIES: Dict[str, str] = {
    rule_id: severity for rule_id, (severity, _desc, _exp) in _RULE_DOCS.items()
}


def explain_rule(rule_id: str) -> Optional[str]:
    """The full ``--explain`` text for one rule id, or None if unknown."""
    if rule_id not in _RULE_DOCS:
        return None
    severity, description, explanation = _RULE_DOCS[rule_id]
    return "\n".join(
        [
            f"{rule_id} [{severity}]: {description}",
            "",
            explanation,
            "",
            f"Suppress one line with: # lint: disable={rule_id}",
            "See docs/lint.md for flagged/clean examples.",
        ]
    )


def _runner_finding(
    rule_id: str, path: str, line: int, col: int, message: str
) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=col,
        rule=rule_id,
        message=message,
        severity=RUNNER_RULES[rule_id][0],
    )


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
    #: Every RNG substream site found, in file order; the JSON report
    #: carries their count.
    stream_sites: List[StreamSite] = field(default_factory=list)

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
            "schema": 4,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "severity_counts": self.severity_counts(),
            "stream_sites": len(self.stream_sites),
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
    # The leading "/" lets a relative "tests/x.py" match "/tests/".
    normalized = "/" + path.replace(os.sep, "/")
    basename = os.path.basename(normalized)
    return (
        basename.startswith("test_")
        or basename == "conftest.py"
        or "/tests/" in normalized
        or "/benchmarks/" in normalized
    )


def module_name_of(path: str) -> str:
    """Dotted module name of a file: its stem under every package
    (directory holding an ``__init__.py``) above it."""
    directory, filename = os.path.split(os.path.abspath(path))
    stem = os.path.splitext(filename)[0]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
    return ".".join(reversed(parts))


def _build_context(
    path: str,
    tree: ast.Module,
    module_name: Optional[str],
) -> RuleContext:
    is_test_module = _is_test_module(path)
    return RuleContext(
        path=path,
        is_rng_module=_is_rng_module(path),
        is_protocol_registry=_is_protocol_registry(path),
        is_test_module=is_test_module,
        exported_names=_extract_exports(tree),
        requires_public_docstrings=_requires_public_docstrings(path),
        module_name=module_name,
        # Tests request production substreams to check them; they are
        # not phases of a run, so their sites are left out.
        stream_sites=(
            dataflow.stream_sites(module_name, path, tree)
            if module_name and not is_test_module
            else []
        ),
        owns_wall_clock=_owns_wall_clock(path),
    )


def _lint_module(
    source: str,
    path: str,
    module_name: Optional[str] = None,
) -> Tuple[List[Finding], List[StreamSite], SuppressionIndex]:
    """Parse one module once and run every rule's per-file check.

    Returns (unsuppressed findings, substream sites, suppression index);
    raises SyntaxError on a bad parse.
    """
    tree = ast.parse(source, filename=path)
    ctx = _build_context(path, tree, module_name)
    findings = [finding for rule in RULES for finding in rule.check(tree, ctx)]
    return findings, ctx.stream_sites, SuppressionIndex.from_source(source)


def _bad_suppressions(path: str, suppressions: SuppressionIndex) -> List[Finding]:
    return [
        _runner_finding(
            "bad-suppression",
            path,
            lineno,
            0,
            "'# lint: disable=' names no rules; list rule ids or 'all'",
        )
        for lineno in suppressions.malformed_lines
    ]


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; raises SyntaxError on a bad parse.

    Source text has no package, so the project-scoped rules (those that
    need a module name) and the cross-file aliasing check do not run;
    use :func:`lint_paths` for files on disk.
    """
    findings, _sites, suppressions = _lint_module(source, path)
    kept = [f for f in findings if not suppressions.is_suppressed(f.line, f.rule)]
    return sorted(kept + _bad_suppressions(path, suppressions))


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


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint every ``.py`` file under the given files/directories.

    Each file is parsed once and named by its own package, so a file
    linted alone gets the same findings as inside a tree run; the
    cross-file aliasing check then spans every file given.
    """
    report = LintReport()
    suppressions_by_path: Dict[str, SuppressionIndex] = {}
    checked: List[Finding] = []
    for filepath in _iter_python_files(paths):
        try:
            with open(filepath, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            report.findings.append(
                _runner_finding(
                    "io-error",
                    filepath,
                    1,
                    0,
                    f"cannot read file: {exc.strerror or exc}",
                )
            )
            continue
        report.files_checked += 1
        try:
            findings, sites, suppressions = _lint_module(
                source, filepath, module_name_of(filepath)
            )
        except SyntaxError as exc:
            report.findings.append(
                _runner_finding(
                    "syntax-error",
                    filepath,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        checked.extend(findings)
        report.stream_sites.extend(sites)
        report.findings.extend(_bad_suppressions(filepath, suppressions))
        suppressions_by_path[filepath] = suppressions
    for rule in RULES:
        checked.extend(rule.check_sites(report.stream_sites))
    for finding in checked:
        suppressions = suppressions_by_path[finding.path]
        if suppressions.is_suppressed(finding.line, finding.rule):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.sort()
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
