"""Runtime structural invariants of the two-level overlay (Section IV-A).

The paper's metrics lean on structural guarantees -- a node maintains at
most ``N_l`` inner-links and ``N_h`` inter-links, links are symmetric,
nobody links to itself, and departed nodes leave no dangling neighbor
ids behind.  The AST rules in :mod:`repro.lint.ast_rules` keep the
*code* honest; this module keeps the *running overlay* honest: violations
here mean a figure is being computed over a corrupted structure.

``check_overlay`` is pure (returns violations, raises nothing) so tests
can assert on its output; ``install_invariant_hook`` wires it into the
event engine as a periodic self-check that fails fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.structure import HierarchicalStructure
    from repro.overlay.links import LinkTable
    from repro.sim.engine import Event, EventScheduler


class OverlayInvariantError(AssertionError):
    """Raised by the periodic hook when the overlay violates an invariant."""

    def __init__(self, violations: List["InvariantViolation"]):
        self.violations = violations
        lines = "\n".join(f"  - {v.render()}" for v in violations)
        super().__init__(f"{len(violations)} overlay invariant violation(s):\n{lines}")


@dataclass(frozen=True, order=True)
class InvariantViolation:
    """One broken structural invariant, attributable to a node."""

    kind: str
    level: str
    node_id: int
    detail: str

    def render(self) -> str:
        return f"[{self.level}] node {self.node_id}: {self.kind}: {self.detail}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "level": self.level,
            "node_id": self.node_id,
            "detail": self.detail,
        }


def check_link_table(
    table: "LinkTable",
    level: str,
    capacity: Optional[int] = None,
) -> List[InvariantViolation]:
    """Capacity, symmetry and self-link invariants of one overlay level.

    ``capacity`` defaults to the table's own capacity; passing the
    structure's configured limit catches a table constructed with the
    wrong bound.
    """
    limit = table.capacity if capacity is None else capacity
    violations: List[InvariantViolation] = []
    for node_id in table.nodes():
        neighbors = table.neighbors(node_id)
        if len(neighbors) > limit:
            violations.append(
                InvariantViolation(
                    kind="over-capacity",
                    level=level,
                    node_id=node_id,
                    detail=f"{len(neighbors)} links exceed the limit of {limit}",
                )
            )
        for neighbor in neighbors:
            if neighbor == node_id:
                violations.append(
                    InvariantViolation(
                        kind="self-link",
                        level=level,
                        node_id=node_id,
                        detail="node links to itself",
                    )
                )
            elif node_id not in table.links_of(neighbor):
                violations.append(
                    InvariantViolation(
                        kind="asymmetric-link",
                        level=level,
                        node_id=node_id,
                        detail=f"links to {neighbor} but {neighbor} does not link back",
                    )
                )
    return violations


def check_overlay(structure: "HierarchicalStructure") -> List[InvariantViolation]:
    """Every structural invariant of the two-level overlay.

    * inner/inter degrees within ``N_l`` / ``N_h``,
    * links symmetric and self-link free at both levels,
    * no links held by or pointing at a departed node
      (``channel_of`` is ``None`` after :meth:`leave`).

    Nodes in ``structure.pending_repairs`` are *crashed* rather than
    departed: their dangling links are the expected in-flight state
    between the crash and the scheduled repair sweep (repro.faults), so
    the departed-node checks tolerate them.  Capacity and symmetry are
    still enforced -- a crash severs no links, so both hold throughout.
    """
    in_flight = getattr(structure, "pending_repairs", None) or frozenset()
    violations: List[InvariantViolation] = []
    violations.extend(
        check_link_table(structure.inner, "inner", structure.inner_link_limit)
    )
    violations.extend(
        check_link_table(structure.inter, "inter", structure.inter_link_limit)
    )
    for level, table in (("inner", structure.inner), ("inter", structure.inter)):
        for node_id in table.nodes():
            neighbors = table.neighbors(node_id)
            if not neighbors:
                continue
            if structure.channel_of.get(node_id) is None and node_id not in in_flight:
                violations.append(
                    InvariantViolation(
                        kind="departed-node-with-links",
                        level=level,
                        node_id=node_id,
                        detail=f"departed node still holds links to {neighbors}",
                    )
                )
            for neighbor in neighbors:
                if (
                    neighbor in structure.channel_of
                    and structure.channel_of[neighbor] is None
                    and neighbor not in in_flight
                ):
                    violations.append(
                        InvariantViolation(
                            kind="dangling-neighbor",
                            level=level,
                            node_id=node_id,
                            detail=f"links to departed node {neighbor}",
                        )
                    )
    return sorted(set(violations))


class InvariantHook:
    """Handle to a running periodic overlay self-check."""

    def __init__(self) -> None:
        self.checks_run = 0
        self._event: Optional["Event"] = None
        self._cancelled = False

    def cancel(self) -> None:
        """Stop the periodic check (idempotent)."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()

    @property
    def active(self) -> bool:
        return not self._cancelled


def install_invariant_hook(
    scheduler: "EventScheduler",
    structure: "HierarchicalStructure",
    period_s: float = 600.0,
    on_violation: Optional[Callable[[List[InvariantViolation]], None]] = None,
) -> InvariantHook:
    """Schedule a periodic in-sim overlay self-check.

    Every ``period_s`` of virtual time the overlay is validated; on a
    violation the default action raises :class:`OverlayInvariantError`
    (failing the run loudly rather than letting a corrupted structure
    keep producing numbers).  Pass ``on_violation`` to record instead of
    raise.  The returned :class:`InvariantHook` stops the cycle via
    ``cancel()``.
    """
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    hook = InvariantHook()

    def _check() -> None:
        if not hook.active:
            return
        hook.checks_run += 1
        violations = check_overlay(structure)
        if violations:
            if on_violation is not None:
                on_violation(violations)
            else:
                raise OverlayInvariantError(violations)
        # One handle for the hook's whole life: re-arm the fired event
        # instead of scheduling a fresh one each period.
        hook._event.reschedule(period_s)

    hook._event = scheduler.schedule(period_s, _check)
    return hook
