"""Long-form rule explanations for ``python -m repro lint --explain``.

Each entry expands the one-line description in
:data:`repro.lint.ast_rules.RULE_DESCRIPTIONS` with *why the rule
exists in this codebase* and what the sanctioned alternative is.  The
full reference with flagged/clean examples lives in ``docs/lint.md``;
``tools/check_docs.py`` checks that every id here has a section there.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.lint.ast_rules import RULE_DESCRIPTIONS, RULE_SEVERITIES

_EXPLANATIONS: Dict[str, str] = {
    "global-random": """\
Draws from `random.*` / `numpy.random.*` use hidden module-global state
that any import or test can perturb, destroying the single-seed
repeatability claim.  Route every draw through a named substream from
`repro.sim.rng.RngStreams` (or an injected `random.Random`).
`sim/rng.py` itself is exempt -- it is the sanctioned wrapper.""",
    "wall-clock": """\
`time.time()`, `datetime.now()` and friends make results depend on the
machine clock.  All simulated time comes from `EventScheduler.now`.
The one sanctioned wall-clock namespace is `repro.obs.perf` -- the
hash-neutral sidecar telemetry layer (mirroring how `sim/rng.py` owns
the `random` module); every other module obtains wall time through a
perf object, and benchmarks measure wall time through their own
harness, outside src/repro.""",
    "set-iteration": """\
Iterating a set/frozenset (or passing one to `list`, `enumerate`,
`rng.choice`...) observes hash order, which varies across processes and
interpreter versions.  Wrap the set in `sorted(...)` at the point of
iteration.""",
    "unsorted-accumulation": """\
The flow-sensitive big sibling of set-iteration: a *local variable*
bound to a set-typed value (literal, `set(...)` call, union of sets)
and later iterated into an order-sensitive accumulation -- a float
`+=` or a `list.append` -- leaks hash order into float sums and result
lists even though the loop header itself looks innocent.  Iterate
`sorted(the_set)` instead.  This is exactly the defect class fixed in
`metrics/collectors.py::node_peer_bandwidth` (fractions were averaged
in set order).""",
    "unsorted-serialization": """\
`json.dumps`/`json.dump` without `sort_keys=True` serializes dict keys
in insertion order, so two code paths building the same logical payload
can emit different bytes -- which breaks byte-equality gates and
content-hash caching.  Every canonical artifact in the tree (traces,
time-series tables, reports, this linter's own JSON) must pass
`sort_keys=True`.  Scratch files and tests are exempt.""",
    "mutable-default-arg": """\
A mutable default (`def f(xs=[])`) is evaluated once and shared by
every call -- state leaks across calls, and across every run in the
process.  Default to `None` and construct the container inside the
body.""",
    "rng-unowned-generator": """\
`random.Random(seed)` constructed ad hoc bypasses the named-substream
discipline of `RngStreams`: its draw sequence is invisible to the
substream registry, cannot be forked deterministically per entity, and
silently couples with nothing or everything.  Derive generators with
`streams.stream("phase.name")` / `streams.fork(...)` instead.""",
    "rng-substream-aliasing": """\
Two different functions requesting the *same* substream name share one
generator: adding a draw in one phase shifts every later draw of the
other, so a refactor of phase A perturbs phase B's results.  One
substream name, one owning call site; derive distinct names per phase
(the dotted convention: `workload.arrivals`, `overlay.probe`...).""",
    "rng-foreign-substream": """\
Namespace ownership for substreams: the `faults.*` prefix belongs to
`repro.faults` alone, so fault-free runs can hash identically with the
injector disabled (PR 5's guarantee), and observability code must not
own substreams at all -- tracing must never consume entropy.""",
    "rng-obs-hook-draw": """\
A draw lexically inside an `if ...tracer:` block or a `with
...span(...):` body fires only when tracing is enabled, so traced and
untraced runs diverge -- the obs layer's zero-perturbation guarantee
breaks.  Hoist the draw above the hook and pass its result in.""",
    "unused-import": """\
Dead imports hide real dependencies, slow import time, and rot
silently.  Names exported via `__all__` and quoted annotations count
as uses.""",
    "dead-name": """\
A local assigned a side-effect-free value and never read is dead code,
usually a refactor leftover.  Prefix with `_` if the binding is
intentional documentation.""",
    "broad-except": """\
`except Exception:` inside event callbacks swallows simulation bugs and
lets runs diverge silently.  Catch the specific exception, or observe
and re-raise (a bare `raise` at the handler's top level is allowed).""",
    "float-time-eq": """\
`==`/`!=` between floats derived from simulated time is brittle under
accumulation order.  Compare with a tolerance or restructure around
event ordering (`<=`/`>=`).""",
    "direct-protocol-instantiation": """\
`*Protocol` classes constructed outside `repro.experiments.registry`
bypass the typed parameter defaults and the one sanctioned
construction site.  Tests and benchmarks are exempt.""",
    "missing-public-docstring": """\
Public classes/functions in the documented API surface (`repro.obs`,
the experiment spec and registry) must carry docstrings; the docs site
is generated from them.""",
    "syntax-error": """\
The file does not parse, so no other rule can run over it.  Reported
as a finding (not a crash) so one broken file cannot hide the rest of
the tree's findings.""",
    "io-error": """\
The file could not be read.  Reported as a finding so a permissions
problem fails the gate visibly instead of silently shrinking
coverage.""",
    "bad-suppression": """\
A `# lint: disable=` comment that names no rules suppresses nothing
and usually means a typo'd rule id; list rule ids or `all`.""",
}


def explain_rule(rule_id: str) -> Optional[str]:
    """The full ``--explain`` text for one rule id, or None if unknown."""
    if rule_id not in RULE_DESCRIPTIONS:
        return None
    severity = RULE_SEVERITIES.get(rule_id, "medium")
    header = f"{rule_id} [{severity}]: {RULE_DESCRIPTIONS[rule_id]}"
    body = _EXPLANATIONS.get(rule_id, "")
    lines = [header]
    if body:
        lines.append("")
        lines.append(body)
    lines.append("")
    lines.append(f"Suppress one line with: # lint: disable={rule_id}")
    lines.append("See docs/lint.md for flagged/clean examples.")
    return "\n".join(lines)
