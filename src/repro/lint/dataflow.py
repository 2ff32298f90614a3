"""Flow-sensitive and RNG substream determinism rules.

**RNG substream discipline** -- every draw must be reachable from a
named :class:`repro.sim.rng.RngStreams` substream:

* ``global-random``: raw ``random.*`` / ``numpy.random.*``.
* ``rng-unowned-generator``: ``random.Random(...)`` constructed outside
  ``sim/rng.py`` bypasses the named-substream discipline.
* ``rng-foreign-substream``: the ``faults.*`` namespace is reserved for
  :mod:`repro.faults` (its streams must stay decoupled so fault-free
  hashes survive), and observability code must not own substreams at
  all.
* ``rng-substream-aliasing``: the same substream name requested from
  more than one function aliases one generator across phases -- adding
  a draw in one phase silently perturbs the other.  The one check that
  spans files: it runs once over every module's :func:`stream_sites`.
* ``rng-obs-hook-draw``: a draw lexically inside an ``if ...tracer:``
  block or a ``with ...span(...):`` body (or anywhere in ``repro.obs``)
  would make trace-enabled runs diverge from fault-free hashes.

**Determinism hazards**:

* ``set-iteration``: hash-order iteration of set literals.
* ``unsorted-accumulation``: flow-sensitive version -- a *local bound
  to a set-typed value* iterated into an order-sensitive accumulation
  (float ``+=``, ``list.append``) leaks hash order into results.
* ``unsorted-serialization``: ``json.dumps``/``json.dump`` without
  ``sort_keys=True`` outside the canonical encoders.
* ``mutable-default-arg``: the classic shared-default defect; the
  default is also shared by every run in the process.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.base import (
    Rule,
    dotted_name,
    is_set_expression,
)
from repro.lint.findings import Finding, RuleContext, StreamSite

# ---------------------------------------------------------------------------
# module-global randomness


#: ``from random import X`` bindings that are safe: classes producing an
#: *owned* generator, not draws from the hidden module-global instance.
_SAFE_RANDOM_NAMES = {"Random"}

#: ``numpy.random`` attributes that construct independent generators
#: rather than touching the legacy global state.
_SAFE_NUMPY_RANDOM = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "MT19937",
    "SFC64",
}


class GlobalRandomRule(Rule):
    rule_id = "global-random"
    severity = "high"
    description = (
        "module-global random state (random.*, numpy.random.*) outside sim/rng.py; "
        "use RngStreams or an injected random.Random"
    )
    explanation = """\
Draws from `random.*` / `numpy.random.*` use hidden module-global state
that any import or test can perturb, destroying the single-seed
repeatability claim.  Route every draw through a named substream from
`repro.sim.rng.RngStreams` (or an injected `random.Random`).
`sim/rng.py` itself is exempt -- it is the sanctioned wrapper."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        if ctx.is_rng_module:
            return []
        findings: List[Finding] = []
        # alias -> canonical module ("random" | "numpy.random" | "numpy")
        module_aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        module_aliases[alias.asname or "random"] = "random"
                    elif alias.name == "numpy":
                        module_aliases[alias.asname or "numpy"] = "numpy"
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            module_aliases[alias.asname] = "numpy.random"
                        else:
                            module_aliases["numpy"] = "numpy"
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _SAFE_RANDOM_NAMES:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"'from random import {alias.name}' binds the "
                                    "module-global RNG; inject a random.Random "
                                    "(from repro.sim.rng.RngStreams) instead",
                                )
                            )
                elif node.module in ("numpy", "numpy.random"):
                    for alias in node.names:
                        if node.module == "numpy" and alias.name == "random":
                            module_aliases[alias.asname or "random"] = "numpy.random"
                        elif (
                            node.module == "numpy.random"
                            and alias.name not in _SAFE_NUMPY_RANDOM
                        ):
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"'from numpy.random import {alias.name}' draws from "
                                    "numpy's global state; use default_rng(seed)",
                                )
                            )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            root, _, rest = dotted.partition(".")
            canonical = module_aliases.get(root)
            if canonical is None:
                continue
            full = canonical + "." + rest if rest else canonical
            if full.startswith("random."):
                attr = full.split(".", 1)[1]
                if "." not in attr and attr not in _SAFE_RANDOM_NAMES:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"'random.{attr}' uses the module-global RNG; route "
                            "randomness through RngStreams or an injected Random",
                        )
                    )
            elif full.startswith("numpy.random."):
                attr = full.split(".", 2)[2]
                if "." not in attr and attr not in _SAFE_NUMPY_RANDOM:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"'numpy.random.{attr}' uses numpy's global RNG state; "
                            "use numpy.random.default_rng(seed)",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# hash-order iteration over set expressions


#: Calls whose argument order the caller observes (order-sensitive sinks).
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: RNG methods whose outcome depends on the order of the passed sequence.
_ORDER_SENSITIVE_METHODS = {"choice", "choices", "sample", "shuffle"}


class SetIterationRule(Rule):
    rule_id = "set-iteration"
    severity = "high"
    description = (
        "iteration over a set/frozenset feeds hash-order into downstream "
        "logic; wrap in sorted(...) for a deterministic sequence"
    )
    explanation = """\
Iterating a set/frozenset (or passing one to `list`, `enumerate`,
`rng.choice`...) observes hash order, which varies across processes and
interpreter versions.  Wrap the set in `sorted(...)` at the point of
iteration."""

    def _msg(self, how: str) -> str:
        return (
            f"set/frozenset {how} exposes nondeterministic hash order; "
            "wrap the set in sorted(...)"
        )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_expression(node.iter):
                    findings.append(
                        self.finding(ctx, node.iter, self._msg("iterated by a for loop"))
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if is_set_expression(generator.iter):
                        findings.append(
                            self.finding(
                                ctx,
                                generator.iter,
                                self._msg("iterated by a comprehension"),
                            )
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_BUILTINS
                    and node.args
                    and is_set_expression(node.args[0])
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node.args[0],
                            self._msg(f"passed to {node.func.id}()"),
                        )
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_METHODS
                    and node.args
                    and is_set_expression(node.args[0])
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node.args[0],
                            self._msg(f"passed to .{node.func.attr}()"),
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# determinism hazards


#: Calls whose result can never be mutated through the binding.
_IMMUTABLE_CALLS = frozenset(
    ("frozenset", "tuple", "int", "float", "str", "bytes", "bool")
)

#: Calls that build a fresh mutable container.
_MUTABLE_CALLS = frozenset(
    ("list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict")
)


def _value_kind(node: ast.AST) -> str:
    """Coarse mutability of an expression: ``"immutable"``, ``"mutable"``
    or ``"opaque"`` (names and calls whose result type is unknown).

    A tuple counts as mutable unless every element is immutable.
    """
    if isinstance(node, ast.Constant):
        return "immutable"
    if isinstance(node, ast.Tuple):
        if all(_value_kind(e) == "immutable" for e in node.elts):
            return "immutable"
        return "mutable"
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return "mutable"
    if isinstance(node, ast.UnaryOp):
        return _value_kind(node.operand)
    if isinstance(node, ast.BinOp):
        if _value_kind(node.left) == _value_kind(node.right) == "immutable":
            return "immutable"
        return "opaque"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _IMMUTABLE_CALLS:
                return "immutable"
            if func.id in _MUTABLE_CALLS:
                return "mutable"
        if isinstance(func, ast.Attribute) and func.attr == "compile":
            # re.compile patterns are immutable and thread-safe.
            return "immutable"
    return "opaque"


class MutableDefaultArgRule(Rule):
    rule_id = "mutable-default-arg"
    severity = "high"
    description = (
        "mutable default argument is shared across every call (and "
        "every run in the process); default to None"
    )
    explanation = """\
A mutable default (`def f(xs=[])`) is evaluated once and shared by
every call -- state leaks across calls, and across every run in the
process.  Default to `None` and construct the container inside the
body."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: List[ast.AST] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if _value_kind(default) == "mutable":
                    findings.append(
                        self.finding(
                            ctx,
                            default,
                            f"mutable default in '{node.name}' is evaluated "
                            "once and shared by every call; use None and "
                            "construct inside the body",
                        )
                    )
        return findings


def _is_settyped(node: ast.AST, settyped: Set[str]) -> bool:
    """Flow-aware set-typedness: literals, ``set(...)``, known locals,
    and unions (``|``) of set-typed operands."""
    if is_set_expression(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in settyped
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_settyped(node.left, settyped) or _is_settyped(
            node.right, settyped
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("union", "intersection", "difference",
                              "symmetric_difference", "copy"):
            return _is_settyped(node.func.value, settyped)
    return False


def _loop_accumulates(body: Sequence[ast.stmt]) -> Optional[ast.AST]:
    """First order-sensitive accumulation statement in a loop body."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
            ):
                return node
    return None


class UnsortedAccumulationRule(Rule):
    rule_id = "unsorted-accumulation"
    severity = "high"
    description = (
        "a local bound to a set-typed value is iterated into an "
        "order-sensitive accumulation (float +=, list.append); float "
        "summation and list order then depend on hash order -- iterate "
        "sorted(...) instead"
    )
    explanation = """\
The flow-sensitive big sibling of set-iteration: a *local variable*
bound to a set-typed value (literal, `set(...)` call, union of sets)
and later iterated into an order-sensitive accumulation -- a float
`+=` or a `list.append` -- leaks hash order into float sums and result
lists even though the loop header itself looks innocent.  Iterate
`sorted(the_set)` instead.  This is exactly the defect class fixed in
`metrics/collectors.py::node_peer_bandwidth` (fractions were averaged
in set order)."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_block(node.body, set(), ctx, findings)
        return findings

    def _check_block(
        self,
        body: Sequence[ast.stmt],
        settyped: Set[str],
        ctx: RuleContext,
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                name = stmt.targets[0].id
                if _is_settyped(stmt.value, settyped):
                    settyped.add(name)
                else:
                    settyped.discard(name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                if stmt.value is not None and _is_settyped(stmt.value, settyped):
                    settyped.add(name)
                else:
                    settyped.discard(name)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if (
                    isinstance(stmt.iter, ast.Name)
                    and stmt.iter.id in settyped
                ):
                    sink = _loop_accumulates(stmt.body)
                    if sink is not None:
                        findings.append(
                            self.finding(
                                ctx,
                                stmt.iter,
                                f"local '{stmt.iter.id}' holds a set here; "
                                "iterating it into an order-sensitive "
                                "accumulation leaks hash order into results "
                                f"-- iterate sorted({stmt.iter.id}) instead",
                            )
                        )
                self._check_block(stmt.body, settyped, ctx, findings)
                self._check_block(stmt.orelse, settyped, ctx, findings)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._check_block(stmt.body, set(settyped), ctx, findings)
                self._check_block(stmt.orelse, set(settyped), ctx, findings)
            elif isinstance(stmt, ast.With):
                self._check_block(stmt.body, settyped, ctx, findings)
            elif isinstance(stmt, ast.Try):
                self._check_block(stmt.body, set(settyped), ctx, findings)
                for handler in stmt.handlers:
                    self._check_block(handler.body, set(settyped), ctx, findings)
                self._check_block(stmt.finalbody, set(settyped), ctx, findings)


class UnsortedSerializationRule(Rule):
    rule_id = "unsorted-serialization"
    severity = "medium"
    description = (
        "json.dumps/json.dump without sort_keys=True serializes in "
        "insertion order; canonical artifacts must sort keys so two "
        "builders of the same payload emit identical bytes"
    )
    explanation = """\
`json.dumps`/`json.dump` without `sort_keys=True` serializes dict keys
in insertion order, so two code paths building the same logical payload
can emit different bytes -- which breaks byte-equality gates and
content-hash caching.  Every canonical artifact in the tree (traces,
time-series tables, reports, this linter's own JSON) must pass
`sort_keys=True`.  Scratch files and tests are exempt."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        # Project-scoped: only fires on files on disk (the runner sets
        # module_name), so ad-hoc lint_source snippets are not held to
        # the canonical-bytes policy.
        if ctx.module_name is None or ctx.is_test_module:
            return []
        json_aliases = {"json"} if self._imports_json(tree) else set()
        if not json_aliases:
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or "." not in dotted:
                continue
            root, rest = dotted.split(".", 1)
            if root not in json_aliases or rest not in ("dumps", "dump"):
                continue
            if not self._sorts_keys(node):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"'{dotted}(...)' without sort_keys=True emits "
                        "insertion-ordered keys; pass sort_keys=True for "
                        "canonical bytes",
                    )
                )
        return findings

    @staticmethod
    def _imports_json(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "json" and alias.asname is None:
                        return True
        return False

    @staticmethod
    def _sorts_keys(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                return not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                )
        return False


# ---------------------------------------------------------------------------
# RNG substream discipline (per-file parts)


class RngUnownedGeneratorRule(Rule):
    rule_id = "rng-unowned-generator"
    severity = "high"
    description = (
        "random.Random(...) constructed outside sim/rng.py bypasses the "
        "named-substream discipline; derive streams via "
        "RngStreams.stream/fork so draws stay decoupled"
    )
    explanation = """\
`random.Random(seed)` constructed ad hoc bypasses the named-substream
discipline of `RngStreams`: its draw sequence is invisible to the
substream registry, cannot be forked deterministically per entity, and
silently couples with nothing or everything.  Derive generators with
`streams.stream("phase.name")` / `streams.fork(...)` instead."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        # Project-scoped (see UnsortedSerializationRule): `rng =
        # random.Random(7)` in a scratch snippet is legitimate DI style;
        # inside the tree every generator must come from RngStreams.
        if ctx.module_name is None or ctx.is_rng_module or ctx.is_test_module:
            return []
        findings: List[Finding] = []
        from_random = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "random"
            for alias in node.names
            if alias.name == "Random"
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted == "random.Random" or (dotted in from_random):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "'Random(...)' constructs an unnamed generator; use "
                        "RngStreams.stream(name) so the draw sequence is "
                        "owned by a named substream",
                    )
                )
        return findings


#: Methods that consume entropy from a ``random.Random``-like object.
_DRAW_METHODS = frozenset(
    (
        "random",
        "uniform",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "triangular",
        "getrandbits",
    )
)


def _receiver_is_rngish(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    dotted = dotted_name(node.func.value)
    if dotted is None:
        return False
    lowered = dotted.lower()
    return "rng" in lowered or lowered.split(".")[-1] in ("random", "randoms")


def _mentions_tracer(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and "tracer" in child.id.lower():
            return True
        if isinstance(child, ast.Attribute) and "tracer" in child.attr.lower():
            return True
    return False


class RngObsHookDrawRule(Rule):
    rule_id = "rng-obs-hook-draw"
    severity = "high"
    description = (
        "an RNG draw inside an observability hook (if ...tracer: block, "
        "with ...span(...) body, or anywhere in repro.obs) makes traced "
        "runs diverge from fault-free hashes; hoist the draw out of the "
        "hook"
    )
    explanation = """\
A draw lexically inside an `if ...tracer:` block or a `with
...span(...):` body fires only when tracing is enabled, so traced and
untraced runs diverge -- the obs layer's zero-perturbation guarantee
breaks.  Hoist the draw above the hook and pass its result in."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        in_obs_module = "/obs/" in ctx.path.replace("\\", "/")
        if in_obs_module:
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DRAW_METHODS
                    and _receiver_is_rngish(node)
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "RNG draw inside the observability layer; obs "
                            "code must be draw-free so tracing never "
                            "perturbs simulation hashes",
                        )
                    )
            return findings
        hook_bodies: List[ast.stmt] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and _mentions_tracer(node.test):
                hook_bodies.extend(node.body)
            elif isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and isinstance(expr.func, ast.Attribute)
                        and expr.func.attr in ("span", "begin_detached")
                    ):
                        hook_bodies.extend(node.body)
                        break
        for stmt in hook_bodies:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DRAW_METHODS
                    and _receiver_is_rngish(node)
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "RNG draw inside a tracer hook block; draws "
                            "here fire only when tracing is on, so traced "
                            "and untraced runs diverge -- hoist the draw "
                            "out of the hook",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# RNG substream sites: namespace ownership and cross-file aliasing


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


def stream_sites(module: str, path: str, tree: ast.Module) -> List[StreamSite]:
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
                        path=path,
                        module=module,
                        qualname=f"{module}:{local_name}",
                        lineno=node.lineno,
                        col=node.col_offset,
                        method=node.func.attr,
                    )
                )
    return sites


class RngSubstreamAliasRule(Rule):
    rule_id = "rng-substream-aliasing"
    severity = "medium"
    description = (
        "the same RngStreams substream name is requested from more than "
        "one function; aliasing one generator across phases couples "
        "their draw sequences"
    )
    explanation = """\
Two different functions requesting the *same* substream name share one
generator: adding a draw in one phase shifts every later draw of the
other, so a refactor of phase A perturbs phase B's results.  One
substream name, one owning call site; derive distinct names per phase
(the dotted convention: `workload.arrivals`, `overlay.probe`...)."""

    def check_sites(self, sites: Sequence[StreamSite]) -> List[Finding]:
        sites_by_name: Dict[str, List[StreamSite]] = {}
        for site in sites:
            if site.method == "stream":
                sites_by_name.setdefault(site.name, []).append(site)
        findings: List[Finding] = []
        for name in sorted(sites_by_name):
            named = sites_by_name[name]
            qualnames = sorted({site.qualname for site in named})
            if len(qualnames) <= 1:
                continue
            others = ", ".join(qualnames)
            for site in named:
                findings.append(
                    self.site_finding(
                        site,
                        f"substream '{name}' is requested from "
                        f"{len(qualnames)} functions ({others}); aliasing "
                        "one generator across phases couples their draw "
                        "sequences -- derive distinct substream names",
                    )
                )
        return findings


class RngForeignSubstreamRule(Rule):
    rule_id = "rng-foreign-substream"
    severity = "high"
    description = (
        "substream namespace violation: 'faults.*' is reserved for "
        "repro.faults and observability code must not own substreams"
    )
    explanation = """\
Namespace ownership for substreams: the `faults.*` prefix belongs to
`repro.faults` alone, so fault-free runs can hash identically with the
injector disabled (PR 5's guarantee), and observability code must not
own substreams at all -- tracing must never consume entropy."""

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for site in ctx.stream_sites:
            # The subpackage under the project's top-level package:
            # ["faults"] for repro.faults.injector.
            subpackage = site.module.split(".")[1:2]
            in_faults = subpackage == ["faults"]
            if subpackage == ["obs"]:
                findings.append(
                    self.site_finding(
                        site,
                        "observability code must not own RNG substreams; "
                        f"'{site.name}' requested in {site.qualname}",
                    )
                )
            elif in_faults and not site.name.startswith("faults."):
                findings.append(
                    self.site_finding(
                        site,
                        f"fault-injection substream '{site.name}' must use "
                        "the reserved 'faults.' prefix so fault-free runs "
                        "never share its sequence",
                    )
                )
            elif not in_faults and site.name.startswith("faults."):
                findings.append(
                    self.site_finding(
                        site,
                        f"substream '{site.name}' uses the 'faults.' "
                        "namespace reserved for repro.faults; pick a "
                        "phase-owned name",
                    )
                )
        return findings
