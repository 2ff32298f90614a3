"""Single-pass AST pattern rules for the reproduction's source tree.

The headline claim of the harness is bit-for-bit repeatability from a
single seed (see :mod:`repro.sim.rng`); these rules reject the
syntactic patterns that silently break it or rot the code around it:
``wall-clock``, ``unused-import``, ``dead-name``, ``broad-except``,
``float-time-eq``, ``direct-protocol-instantiation`` and
``missing-public-docstring``.

Each rule class declares its id, severity, ``--list-rules``
description and ``--explain`` paragraph once;
:data:`repro.lint.runner.RULES` runs them, and a finding is silenced
for one line with ``# lint: disable=<rule-id>``.
"""

from __future__ import annotations

import ast
import re
from typing import List, Set, Tuple

from repro.lint.base import (
    Rule,
    dotted_name as _dotted_name,
    walk_skipping_nested_functions as _walk_skipping_nested_functions,
)
from repro.lint.findings import Finding, RuleContext

__all__ = [
    "WallClockRule",
    "UnusedImportRule",
    "DeadNameRule",
    "BroadExceptRule",
    "FloatTimeEqRule",
    "DirectProtocolInstantiationRule",
    "MissingPublicDocstringRule",
]


# ---------------------------------------------------------------------------
# (b) wall-clock time


_WALL_CLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "localtime",
    "gmtime",
    "ctime",
    "sleep",
}

_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}


class WallClockRule(Rule):
    rule_id = "wall-clock"
    severity = "high"
    description = (
        "wall-clock access (time.time, datetime.now, ...); simulated time "
        "comes only from EventScheduler.now, wall time only from "
        "repro.obs.perf"
    )
    explanation = """\
`time.time()`, `datetime.now()` and friends make results depend on the
machine clock.  All simulated time comes from `EventScheduler.now`.
The one sanctioned wall-clock namespace is `repro.obs.perf` -- the
hash-neutral sidecar telemetry layer (mirroring how `sim/rng.py` owns
the `random` module); every other module obtains wall time through a
perf object, and benchmarks measure wall time through their own
harness, outside src/repro."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        if ctx.owns_wall_clock:
            # repro.obs.perf is the one sanctioned wall-clock namespace
            # (hash-neutral sidecar telemetry); see RuleContext.
            return []
        findings: List[Finding] = []
        time_aliases: Set[str] = set()
        datetime_mod_aliases: Set[str] = set()
        datetime_cls_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_mod_aliases.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_ATTRS:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"'from time import {alias.name}' reads the wall "
                                    "clock; use EventScheduler.now for simulated time",
                                )
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_cls_aliases.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None or "." not in dotted:
                continue
            root, rest = dotted.split(".", 1)
            if root in time_aliases and rest in _WALL_CLOCK_TIME_ATTRS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"'{dotted}()' reads the wall clock; simulated time comes "
                        "only from EventScheduler.now",
                    )
                )
            elif root in datetime_mod_aliases and rest in (
                "datetime.now",
                "datetime.utcnow",
                "datetime.today",
                "date.today",
            ):
                findings.append(
                    self.finding(
                        ctx, node, f"'{dotted}()' reads the wall clock"
                    )
                )
            elif (
                root in datetime_cls_aliases
                and "." not in rest
                and rest in _WALL_CLOCK_DATETIME_ATTRS
            ):
                findings.append(
                    self.finding(
                        ctx, node, f"'{dotted}()' reads the wall clock"
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# (d) unused imports and dead names


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _annotation_string_names(tree: ast.Module) -> Set[str]:
    """Identifiers inside *quoted* annotations (forward references)."""
    names: Set[str] = set()
    annotation_roots: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotation_roots.append(node.returns)
            for arg in (
                list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
                + [node.args.vararg, node.args.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    annotation_roots.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotation_roots.append(node.annotation)
    for root in annotation_roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(_IDENTIFIER_RE.findall(node.value))
    return names


class UnusedImportRule(Rule):
    rule_id = "unused-import"
    severity = "low"
    description = "imported name is never used in the module"
    explanation = """\
Dead imports hide real dependencies, slow import time, and rot
silently.  Names exported via `__all__` and quoted annotations count
as uses."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        bindings: List[Tuple[str, str, ast.AST]] = []  # (bound name, source, node)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    bindings.append((bound, alias.name, node))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    source = f"{'.' * node.level}{node.module or ''}.{alias.name}"
                    bindings.append((bound, source, node))
        if not bindings:
            return []
        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Load, ast.Del)
            ):
                used.add(node.id)
        used |= _annotation_string_names(tree)
        used |= set(ctx.exported_names)
        findings = []
        # Imports in a package __init__ are re-exports only when listed in
        # __all__, and exported_names already counts those as uses, so the
        # same unused test applies there too.
        for bound, source, node in bindings:
            if bound in used:
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"'{bound}' (imported from {source.rstrip('.')}) is never used",
                )
            )
        return findings


def _is_pure_expression(node: ast.AST) -> bool:
    """Expressions whose evaluation cannot have observable side effects."""
    if isinstance(node, (ast.Constant, ast.Name)):
        return True
    if isinstance(node, ast.Attribute):
        return _is_pure_expression(node.value)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_pure_expression(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return all(
            k is not None and _is_pure_expression(k) and _is_pure_expression(v)
            for k, v in zip(node.keys, node.values)
        )
    if isinstance(node, ast.UnaryOp):
        return _is_pure_expression(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_pure_expression(node.left) and _is_pure_expression(node.right)
    if isinstance(node, ast.BoolOp):
        return all(_is_pure_expression(v) for v in node.values)
    if isinstance(node, ast.Compare):
        return _is_pure_expression(node.left) and all(
            _is_pure_expression(c) for c in node.comparators
        )
    return False


class DeadNameRule(Rule):
    rule_id = "dead-name"
    severity = "low"
    description = (
        "local name assigned a side-effect-free value and never read "
        "(dead code; prefix with '_' if intentional)"
    )
    explanation = """\
A local assigned a side-effect-free value and never read is dead code,
usually a refactor leftover.  Prefix with `_` if the binding is
intentional documentation."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loads: Set[str] = set()
            stores: List[Tuple[str, ast.AST]] = []
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Load, ast.Del)
                ):
                    loads.add(node.id)
            for node in _walk_skipping_nested_functions(func):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and not node.targets[0].id.startswith("_")
                    and _is_pure_expression(node.value)
                ):
                    stores.append((node.targets[0].id, node))
            reported: Set[str] = set()
            for name, node in stores:
                if name in loads or name in reported:
                    continue
                reported.add(name)
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"local '{name}' is assigned but never used in "
                        f"'{func.name}'",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# (e) exception swallowing


class BroadExceptRule(Rule):
    rule_id = "broad-except"
    severity = "medium"
    description = (
        "bare 'except' / 'except Exception' swallows simulation bugs "
        "inside event callbacks; catch the specific exception or re-raise"
    )
    explanation = """\
`except Exception:` inside event callbacks swallows simulation bugs and
lets runs diverge silently.  Catch the specific exception, or observe
and re-raise (a bare `raise` at the handler's top level is allowed)."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
            )
            if not broad:
                continue
            # A handler that re-raises (bare `raise` at its top level)
            # observes but does not swallow -- allowed.
            if any(
                isinstance(stmt, ast.Raise) and stmt.exc is None
                for stmt in node.body
            ):
                continue
            label = "bare except" if node.type is None else f"except {node.type.id}"
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"'{label}' swallows errors (deadly inside event callbacks); "
                    "catch a specific exception or re-raise",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# (f) float equality against simulated time


_SIM_TIME_ATTRS = {"now", "_now", "sim_time", "fire_time"}
_SIM_TIME_NAMES = {"now", "sim_time", "fire_time", "sim_now"}


def _is_sim_time_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _SIM_TIME_ATTRS
    if isinstance(node, ast.Name):
        return node.id in _SIM_TIME_NAMES
    return False


class FloatTimeEqRule(Rule):
    rule_id = "float-time-eq"
    severity = "medium"
    description = (
        "float == / != against a simulated-time expression; use ordering "
        "comparisons or an explicit tolerance"
    )
    explanation = """\
`==`/`!=` between floats derived from simulated time is brittle under
accumulation order.  Compare with a tolerance or restructure around
event ordering (`<=`/`>=`)."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x == None`-style comparisons are a different defect;
                # only float-float time comparisons concern this rule.
                if any(
                    isinstance(o, ast.Constant) and o.value is None
                    for o in (left, right)
                ):
                    continue
                if _is_sim_time_expr(left) or _is_sim_time_expr(right):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "'==' against a simulated-time float is brittle "
                            "(accumulation order); compare with a tolerance "
                            "or use <=/>= event ordering",
                        )
                    )
                    break
        return findings


# ---------------------------------------------------------------------------
# (g) protocol construction outside the registry


class DirectProtocolInstantiationRule(Rule):
    rule_id = "direct-protocol-instantiation"
    severity = "medium"
    description = (
        "a *Protocol class constructed outside the protocol registry; "
        "go through repro.experiments.registry.create_protocol so "
        "parameter defaults and typed overrides stay in one place"
    )
    explanation = """\
`*Protocol` classes constructed outside `repro.experiments.registry`
bypass the typed parameter defaults and the one sanctioned
construction site.  Tests and benchmarks are exempt."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        if ctx.is_protocol_registry or ctx.is_test_module:
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            tail = dotted.rsplit(".", 1)[-1]
            # Bare "Protocol" is typing.Protocol, not a VoD system.
            if tail == "Protocol" or not tail.endswith("Protocol"):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"'{dotted}(...)' constructs a protocol directly; use "
                    "create_protocol(name, ...) from the registry (tests "
                    "and the registry itself are exempt)",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# (i) missing public docstrings on the documented API surface


class MissingPublicDocstringRule(Rule):
    """Public defs/classes in API-surface files must have docstrings.

    Only fires when the file's :class:`RuleContext` sets
    ``requires_public_docstrings`` (the runner flags ``repro.obs`` and
    the experiment spec/registry modules).  A name is public when it
    has no leading underscore; nested functions are skipped (they are
    implementation detail even when unprefixed), but methods of public
    classes are checked.
    """

    rule_id = "missing-public-docstring"
    severity = "low"
    description = (
        "public class/function on the documented API surface lacks a "
        "docstring (packages opted in via requires_public_docstrings)"
    )
    explanation = """\
Public classes/functions in the documented API surface (`repro.obs`,
the experiment spec and registry) must carry docstrings; the docs site
is generated from them."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        if not ctx.requires_public_docstrings:
            return []
        findings: List[Finding] = []
        self._check_body(tree.body, ctx, findings, in_class=False)
        return findings

    def _check_body(
        self,
        body: List[ast.stmt],
        ctx: RuleContext,
        findings: List[Finding],
        in_class: bool,
    ) -> None:
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) else (
                    "method" if in_class else "function"
                )
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"public {kind} '{node.name}' has no docstring; this "
                        "module is part of the documented API surface",
                    )
                )
            if isinstance(node, ast.ClassDef):
                self._check_body(node.body, ctx, findings, in_class=True)
