# shard: module=shard-local -- re-exports only; no state of its own
"""Community-partitioned sharded simulation.

The paper's per-community hierarchy (Sections O1-O5) makes interest
clusters the natural partition key for parallel discrete-event
simulation: most traffic is intra-community, so cross-shard
interactions are rare and conservative synchronization is cheap (the
same observation CliqueStream exploits for clustered overlays).

The package has three parts:

* :mod:`repro.shard.partition` -- the deterministic interest-community
  partitioner mapping nodes to shards;
* :mod:`repro.shard.mailbox` -- typed inter-shard message records and
  the per-pair traffic / lookahead accounting;
* :mod:`repro.shard.scheduler` -- :class:`ShardedScheduler`, the
  *exact-mode* coordinator implementing the
  :class:`repro.sim.scheduler.Scheduler` protocol: every event is
  tagged with its owning shard, cross-shard sends are logged through
  the mailbox, and execution preserves the global total order so
  ``shards=N`` is byte-identical to ``shards=1``.

Shards never execute in parallel: the protocol stack shares server,
tracker and overlay state, so a sharded run stays one process and
``--shards`` is attribution only (see docs/scaling.md).
"""

from repro.shard.mailbox import Mailbox, ShardMessage, ShardViolation
from repro.shard.partition import CommunityPartition, primary_interest
from repro.shard.scheduler import ShardedScheduler, ShardReport

__all__ = [
    "CommunityPartition",
    "Mailbox",
    "ShardMessage",
    "ShardReport",
    "ShardViolation",
    "ShardedScheduler",
    "primary_interest",
]
