"""Shared infrastructure for lint rules: the rule base class, severity
levels, and small AST helpers used by both the pattern rules
(:mod:`repro.lint.ast_rules`) and the flow and substream rules
(:mod:`repro.lint.dataflow`).

Severities grade findings for the report's rollup; every finding,
whatever its severity, fails the run.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence

from repro.lint.findings import Finding, RuleContext, StreamSite

#: Severity levels, most severe first.  The report counts findings per
#: level in ``severity_counts``, which ``render_json`` emits key-sorted.
SEVERITY_LEVELS = ("high", "medium", "low")

#: Default severity when a rule does not declare one.
DEFAULT_SEVERITY = "medium"


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_skipping_nested_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Yield ``node``'s subtree but stop at nested function boundaries."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def is_set_expression(node: ast.AST) -> bool:
    """Syntactically set-typed: a set literal/comprehension or ``set(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class Rule:
    """Base class: one rule id, declared once with its documentation.

    ``description`` is the ``--list-rules`` line and ``explanation`` the
    ``--explain`` paragraph.  ``check`` runs once per parsed module;
    ``check_sites`` runs once per lint run over every module's RNG
    substream sites, for the one check that spans files.
    """

    rule_id: str = ""
    description: str = ""
    severity: str = DEFAULT_SEVERITY
    explanation: str = ""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        return []

    def check_sites(self, sites: Sequence[StreamSite]) -> List[Finding]:
        return []

    def finding(
        self, ctx: RuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )

    def site_finding(self, site: StreamSite, message: str) -> Finding:
        return Finding(
            path=site.path,
            line=site.lineno,
            col=site.col,
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )
