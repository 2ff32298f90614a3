"""Whole-program index over a Python package tree.

:func:`build_program` walks a package root (normally ``src/repro``),
parses every module once, and records every **RNG substream site**:
``streams.stream("name")`` / ``streams.fork("name")`` calls with a
literal name, attributed to their enclosing function.  The program
rules in :mod:`repro.lint.dataflow` (substream aliasing and substream
namespace ownership) read nothing else.

Everything is built with sorted walks and sorted containers so two
builds over the same tree are identical -- the JSON report's
byte-determinism rests on this.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class StreamSite:
    """One ``streams.stream("name")`` / ``.fork("name")`` call site."""

    name: str  # the literal substream name
    module: str
    qualname: str  # enclosing function: "module:func" or "module:Class.method"
    lineno: int
    col: int
    method: str  # "stream" | "fork"


@dataclass
class ModuleInfo:
    """Everything the program pass knows about one module."""

    name: str  # dotted ("repro.sim.engine")
    path: str
    stream_sites: List[StreamSite] = field(default_factory=list)


class ProgramIndex:
    """The assembled whole-program view (see module docstring)."""

    def __init__(self, root: str, modules: Dict[str, ModuleInfo]):
        self.root = root
        self.modules = modules
        self._by_path = {info.path: info for info in modules.values()}

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        """The module parsed from ``path``, if it is part of the index."""
        return self._by_path.get(os.path.abspath(path))

    def all_stream_sites(self) -> List[StreamSite]:
        """Every substream call site, in deterministic order."""
        sites: List[StreamSite] = []
        for name in sorted(self.modules):
            sites.extend(self.modules[name].stream_sites)
        return sites

    def stats(self) -> Dict[str, int]:
        """Size counters for the JSON report's ``program`` section."""
        return {
            "modules": len(self.modules),
            "stream_sites": len(self.all_stream_sites()),
        }


# ---------------------------------------------------------------------------
# construction


def _module_name(root: str, path: str) -> str:
    """Dotted module name of ``path`` relative to the package root.

    ``root`` is the package directory itself (``.../src/repro``), so
    names are rooted at its basename: ``repro.sim.engine``.
    """
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    parts = [os.path.basename(root)] + [p for p in rel.split("/") if p]
    last = parts[-1]
    if last.endswith(".py"):
        parts[-1] = last[: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _function_defs(body: Sequence[ast.stmt]) -> Iterator[Tuple[str, ast.AST]]:
    """(local qualname, node) for every top-level function and method.

    Definitions under a top-level ``if``/``try`` (TYPE_CHECKING guards,
    optional-dependency imports) count as top level.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{stmt.name}", stmt
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _function_defs(
                [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
            )


def _stream_sites(module: str, tree: ast.Module) -> List[StreamSite]:
    """Substream calls with a literal name, in source-walk order."""
    sites: List[StreamSite] = []
    for local_name, func in _function_defs(tree.body):
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("stream", "fork")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                sites.append(
                    StreamSite(
                        name=node.args[0].value,
                        module=module,
                        qualname=f"{module}:{local_name}",
                        lineno=node.lineno,
                        col=node.col_offset,
                        method=node.func.attr,
                    )
                )
    return sites


def iter_module_paths(root: str) -> List[str]:
    """Sorted absolute paths of every ``.py`` file under ``root``."""
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths.extend(
            os.path.abspath(os.path.join(dirpath, name))
            for name in sorted(filenames)
            if name.endswith(".py")
        )
    return sorted(set(paths))


def build_module(root: str, path: str, source: str) -> ModuleInfo:
    """Parse one module and fill its :class:`ModuleInfo`.

    Raises ``SyntaxError`` when the file does not parse; the runner
    converts that into a ``syntax-error`` finding.
    """
    tree = ast.parse(source, filename=path)
    name = _module_name(root, path)
    return ModuleInfo(
        name=name,
        path=os.path.abspath(path),
        stream_sites=_stream_sites(name, tree),
    )


def build_program(root: str) -> ProgramIndex:
    """Index every parseable module under ``root``.

    Unreadable or syntactically invalid files are skipped here -- the
    runner reports them per file -- so the program passes always see a
    consistent (if partial) view.
    """
    modules: Dict[str, ModuleInfo] = {}
    for path in iter_module_paths(root):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            info = build_module(root, path, source)
        except (OSError, SyntaxError):
            continue
        modules[info.name] = info
    return ProgramIndex(root=os.path.abspath(root), modules=modules)
