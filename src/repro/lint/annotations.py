"""``# shard:`` ownership annotations.

Sweeps, the trace cache and worker processes execute many runs in one
interpreter, so module state outlives a run.  The annotations record,
for every piece of long-lived state, whether it is

``shard-local``
    owned by one run; mutating it never leaks into another run
    (per-run collectors, schedulers, overlay tables built per run).
``shared-read``
    frozen after import: constants, lookup tables, singletons with no
    mutable behaviour.  Any mutation is a defect.
``shared-mutable``
    deliberately shared across runs or workers (content-hash-keyed
    caches, the protocol registry).  Mutations are legal only outside
    event-handler code; inside a handler they must go through the
    ``EventScheduler``.

Two annotation forms, both ordinary comments parsed from real COMMENT
tokens (prose in docstrings does not register):

* per-binding, on the assignment's first line::

      _REGISTRY: Dict[str, Entry] = {}  # shard: shared-mutable

* per-module, declaring the default ownership of a module's
  instance-level state (required in ``sim``/``overlay``/``net``/
  ``core``)::

      # shard: module=shard-local
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterator, List, Optional, Tuple

#: The ownership taxonomy (see module docstring).
SHARD_CLASSES = ("shard-local", "shared-read", "shared-mutable")

_SHARD_RE = re.compile(r"#\s*shard:\s*([A-Za-z0-9=\-]*)")

_MODULE_PREFIX = "module="


def _comment_tokens(source: str) -> Iterator[Tuple[int, str]]:
    """(line, text) for every comment token; bad syntax yields nothing."""
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


class ShardIndex:
    """Per-file map of ``# shard:`` ownership annotations."""

    def __init__(
        self,
        by_line: Dict[int, str],
        module_class: Optional[str],
        malformed: List[int],
    ):
        #: 1-based line -> ownership class for per-binding annotations.
        self.by_line = by_line
        #: The ``module=<class>`` declaration, if any.
        self.module_class = module_class
        #: 1-based lines whose ``# shard:`` marker names no valid class.
        self.malformed_lines = malformed

    @classmethod
    def from_source(cls, source: str) -> "ShardIndex":
        """Parse every ``# shard:`` comment in one module's source."""
        by_line: Dict[int, str] = {}
        module_class: Optional[str] = None
        malformed: List[int] = []
        for lineno, text in _comment_tokens(source):
            match = _SHARD_RE.search(text)
            if match is None:
                continue
            value = match.group(1).strip()
            if value.startswith(_MODULE_PREFIX):
                declared = value[len(_MODULE_PREFIX):]
                if declared in SHARD_CLASSES and module_class is None:
                    module_class = declared
                else:
                    malformed.append(lineno)
            elif value in SHARD_CLASSES:
                by_line[lineno] = value
            else:
                malformed.append(lineno)
        return cls(by_line, module_class, malformed)

    def classification(self, line: int) -> Optional[str]:
        """The ownership class annotated on ``line``, if any."""
        return self.by_line.get(line)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardIndex(module={self.module_class!r}, "
            f"lines={sorted(self.by_line)})"
        )
