"""Structured lint findings.

Every rule -- AST-based or runtime -- reports through :class:`Finding`
so that the text and JSON renderers, the CLI exit code, and the tier-1
clean-tree test all consume one shape.  Findings sort by (path, line,
column, rule) so reports are stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    ``severity`` is one of ``high``/``medium``/``low`` (see
    :mod:`repro.lint.base`).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "medium"

    def render(self) -> str:
        """``path:line:col: rule-id: message`` -- the text-format row."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class StreamSite:
    """One ``streams.stream("name")`` / ``.fork("name")`` call site."""

    name: str  # the literal substream name
    path: str
    module: str
    qualname: str  # enclosing function: "module:func" or "module:Class.method"
    lineno: int
    col: int
    method: str  # "stream" | "fork"


@dataclass
class RuleContext:
    """Per-file information the AST rules need beyond the tree itself.

    ``is_rng_module`` exempts :mod:`repro.sim.rng` from the
    global-random rule: that module is the one sanctioned home of the
    ``random`` module (it wraps it behind :class:`RngStreams`).
    """

    path: str
    is_rng_module: bool = False
    #: The protocol registry module -- the one sanctioned construction
    #: site of ``*Protocol`` classes (direct-protocol-instantiation).
    is_protocol_registry: bool = False
    #: Test/benchmark modules may construct protocols directly.
    is_test_module: bool = False
    #: Names exported via ``__all__`` (count as uses for unused-import).
    exported_names: frozenset = field(default_factory=frozenset)
    #: Packages whose public API must carry docstrings
    #: (missing-public-docstring); opt-in per path, see lint.runner.
    requires_public_docstrings: bool = False
    #: Dotted module name of a file on disk ("repro.sim.engine"),
    #: derived from its ``__init__.py`` parents; None for source text
    #: linted without a file.  Project-scoped rules only fire when set.
    module_name: "str | None" = None
    #: The module's RNG substream sites (empty without a module name
    #: and for test modules).
    stream_sites: List[StreamSite] = field(default_factory=list)
    #: The one sanctioned home of wall-clock reads
    #: (:mod:`repro.obs.perf`); exempts the wall-clock rule the same
    #: way ``is_rng_module`` exempts :mod:`repro.sim.rng` from
    #: global-random.  Everywhere else, ``time.perf_counter`` and
    #: friends stay high-severity findings.
    owns_wall_clock: bool = False
