"""Determinism and shard-safety static analysis (plus runtime overlay
invariants).

Three analysis layers keep the reproduction's repeatability claim
honest:

* :mod:`repro.lint.ast_rules` -- single-pass AST rules (wall-clock
  reads, unused imports, dead names, broad excepts, float time
  equality, protocol construction, docstring coverage).
* :mod:`repro.lint.dataflow` + :mod:`repro.lint.program` -- the v2
  whole-program passes: a project-wide symbol table / import graph /
  approximate call graph feeding RNG substream discipline
  (``global-random``, ``rng-substream-aliasing``,
  ``rng-foreign-substream``, ``rng-obs-hook-draw``...), shard-safety
  checks against ``# shard:`` ownership annotations
  (:mod:`repro.lint.annotations`), and determinism hazards v2
  (``unsorted-accumulation``, ``unsorted-serialization``,
  ``mutable-default-arg``).
* :mod:`repro.lint.invariants` -- runtime checks of the two-level
  overlay's structural invariants (``N_l``/``N_h`` capacity bounds,
  link symmetry, no self-links, no dangling links to departed nodes),
  callable from tests and as a periodic in-sim hook.

Findings carry severities for the report's rollup.  The only waiver
is a per-line ``# lint: disable=<rule>`` comment.

CLI: ``python -m repro lint [--format json] [--list-rules]
[--explain RULE] [paths...]`` exits non-zero when any finding survives
per-line suppression; ``tests/test_lint_clean.py`` enforces the clean
state in tier-1.
"""

from repro.lint.annotations import SHARD_CLASSES, ShardIndex
from repro.lint.ast_rules import (
    ALL_AST_RULES,
    RULE_DESCRIPTIONS,
    RULE_SEVERITIES,
    collect_findings,
)
from repro.lint.base import SEVERITY_LEVELS, Rule
from repro.lint.dataflow import (
    FLOW_RULES,
    PROGRAM_RULES,
    collect_flow_findings,
    collect_program_findings,
)
from repro.lint.explain import explain_rule
from repro.lint.findings import Finding, RuleContext
from repro.lint.invariants import (
    InvariantHook,
    InvariantViolation,
    OverlayInvariantError,
    check_link_table,
    check_overlay,
    install_invariant_hook,
)
from repro.lint.program import ProgramIndex, build_module, build_program
from repro.lint.runner import (
    LintReport,
    default_lint_root,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    run_lint,
)
from repro.lint.suppressions import SuppressionIndex

__all__ = [
    "SHARD_CLASSES",
    "ShardIndex",
    "ALL_AST_RULES",
    "RULE_DESCRIPTIONS",
    "RULE_SEVERITIES",
    "collect_findings",
    "SEVERITY_LEVELS",
    "Rule",
    "FLOW_RULES",
    "PROGRAM_RULES",
    "collect_flow_findings",
    "collect_program_findings",
    "explain_rule",
    "Finding",
    "RuleContext",
    "InvariantHook",
    "InvariantViolation",
    "OverlayInvariantError",
    "check_link_table",
    "check_overlay",
    "install_invariant_hook",
    "ProgramIndex",
    "build_module",
    "build_program",
    "LintReport",
    "default_lint_root",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "run_lint",
    "SuppressionIndex",
]
