"""Shared helpers for protocol-level tests."""

import random

from repro.baselines.protocol import PeerState
from repro.net.server import CentralServer


def make_protocol(protocol_cls, dataset, num_peers=40, seed=5, **kwargs):
    """Build a protocol instance with registered peers over ``dataset``.

    Peers are created offline; tests bring them online via
    ``on_session_start``.  Returns the protocol (its ``server``
    attribute exposes the tracker).
    """
    server = CentralServer(dataset, capacity_bps=50e6, rng=random.Random(seed))
    protocol = protocol_cls(dataset, server, random.Random(seed + 1), **kwargs)
    for user_id in range(num_peers):
        protocol.register_peer(PeerState(user_id, upload_capacity_bps=2e6))
    return protocol, server


def table_state(table):
    """Every entry of a link table, in table order, each in link order."""
    return [(node, list(links)) for node, links in table.table.items()]
