"""Overlay substrate shared by SocialTube and the baselines.

* :mod:`repro.overlay.links` -- capped, undirected neighbor-set
  management with the accounting the maintenance-overhead metric reads.
* :mod:`repro.overlay.flood` -- TTL-scoped flooding search over an
  overlay graph, the query primitive of Algorithm 1 and of NetTube's
  two-hop neighbor search.
"""

from repro.overlay.links import LinkTable
from repro.overlay.flood import FloodResult, ttl_flood

__all__ = ["LinkTable", "FloodResult", "ttl_flood"]
