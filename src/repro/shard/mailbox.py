# shard: module=shard-local -- one mailbox per run, owned by its coordinator
"""The typed inter-shard mailbox.

Cross-shard interactions -- inter-cluster link searches, tracker
lookups, server traffic, crash-repair routed to the owning shard --
are logged as :class:`ShardMessage` records through one
:class:`Mailbox`.  The exact-mode coordinator delivers every event
through its shared heap, so the mailbox only *accounts*:

* **Traffic.**  Per-origin send sequence numbers and per-pair message
  counts feed the shard report.
* **Lookahead.**  A conservative sender may not post a message that
  fires inside its own current window (before ``window_end``): such a
  send is a *lookahead violation*, counted always and fatal under
  ``strict=True``.  The exact-mode coordinator runs lax (violations
  are impossible there by construction, the counter is a cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


class ShardViolation(RuntimeError):
    """A cross-shard message fired inside the sender's lookahead window."""


@dataclass(frozen=True)
class ShardMessage:
    """One typed cross-shard interaction record."""

    fire_time: float
    origin_shard: int
    dest_shard: int
    #: Per-origin-shard send sequence number.
    seq: int
    #: Interaction type, e.g. ``"_finish_video"`` or ``"repair"``.
    kind: str
    payload: Tuple[Any, ...] = ()


class Mailbox:
    """Counts cross-shard sends per shard pair and checks lookahead."""

    def __init__(self, num_shards: int, *, strict: bool = False):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.strict = strict
        self._next_seq = [0] * num_shards
        self.sent = 0
        self.violations = 0
        #: (origin, dest) -> message count, for the shard report.
        self.by_pair: Dict[Tuple[int, int], int] = {}

    def send(
        self,
        origin: int,
        dest: int,
        fire_time: float,
        kind: str,
        payload: Tuple[Any, ...] = (),
        *,
        window_end: Optional[float] = None,
    ) -> ShardMessage:
        """Record one cross-shard interaction.

        ``window_end`` is the end of the sender's current lookahead
        window; a ``fire_time`` before it violates the conservative
        synchronization contract.
        """
        seq = self._next_seq[origin]
        self._next_seq[origin] = seq + 1
        message = ShardMessage(
            fire_time=float(fire_time),
            origin_shard=origin,
            dest_shard=dest,
            seq=seq,
            kind=kind,
            payload=tuple(payload),
        )
        if window_end is not None and message.fire_time < window_end:
            self.violations += 1
            if self.strict:
                raise ShardViolation(
                    f"{kind!r} from shard {origin} to {dest} fires at "
                    f"t={message.fire_time:.6f}, inside the sender's window "
                    f"(ends t={window_end:.6f}); the lookahead bound is broken"
                )
        self.sent += 1
        pair = (origin, dest)
        self.by_pair[pair] = self.by_pair.get(pair, 0) + 1
        return message

    def summary(self) -> Dict[str, Any]:
        """Counters for the shard report; plain types, pickle-safe."""
        return {
            "sent": self.sent,
            "violations": self.violations,
            "by_pair": sorted(
                (origin, dest, count)
                for (origin, dest), count in self.by_pair.items()
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Mailbox(shards={self.num_shards}, sent={self.sent}, "
            f"violations={self.violations})"
        )
