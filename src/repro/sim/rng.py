"""Deterministic, named random-number streams.

A reproduction must be bit-for-bit repeatable from a single seed, yet a
simulation has many independent consumers of randomness (workload
selection, latency sampling, churn, failure injection...).  Giving each
consumer its own :class:`random.Random` derived deterministically from a
master seed keeps streams decoupled: adding one extra draw in the latency
model does not perturb the workload sequence.

``RngStreams`` hands out per-name streams; the same ``(seed, name)`` pair
always yields the same sequence.  ``shuffle_in_place`` and
``sample_from_pool`` are the draw-parity stand-ins for
``Random.shuffle`` and ``Random.sample`` that hot paths use: they call
the stream's ``getrandbits`` directly (DESIGN.md §6).
"""

from __future__ import annotations

import hashlib
import random
from math import ceil, log
from typing import Any, Callable, Dict, List


def shuffle_in_place(getrandbits: Callable[[int], int], x: List[Any]) -> None:
    """``Random.shuffle(x)`` without the method's overhead.

    ``getrandbits`` is the stream's bound ``getrandbits``.  The stdlib
    ``shuffle`` runs Fisher-Yates from the end, one ``_randbelow(n)``
    for each ``n`` from ``len(x)`` down to 2, and ``_randbelow`` draws
    ``n.bit_length()`` bits until the value falls below ``n``.  That
    loop is inlined here, so the helper makes the same ``getrandbits``
    calls, with the same bit widths, in the same order: it leaves ``x``
    and the stream in the same state.
    """
    for n in range(len(x), 1, -1):
        # Swap the last of ``x[:n]`` with a uniform pick from ``x[:n]``.
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        i = n - 1
        x[i], x[j] = x[j], x[i]


def sample_from_pool(getrandbits: Callable[[int], int], pool: List[Any], k: int) -> List[Any]:
    """``Random.sample(pool, k)`` without the method's overhead.

    ``getrandbits`` is the stream's bound ``getrandbits``.  The helper
    makes exactly the ``getrandbits`` calls the stdlib ``sample`` makes
    through ``_randbelow`` -- the same ``setsize`` rule picks between
    its swap-out (small pool) and rejection-set (large pool) branches,
    and each index is drawn with ``n.bit_length()`` bits until it falls
    below ``n`` -- so it returns the same list and leaves the stream in
    the same state.  ``pool`` is a scratch list the caller gives up:
    the small-pool branch reorders it in place.  ``0 <= k <= len(pool)``
    is the caller's contract.
    """
    n = len(pool)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        # The stdlib redraws an index already taken; a draw at or past
        # ``n`` is never in ``selected``, so one loop makes the same calls.
        bits = n.bit_length()
        selected = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result.append(pool[j])
    return result


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses SHA-256 so that child seeds are uncorrelated even for adjacent
    master seeds or similar names (``"latency"`` vs ``"latency2"``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* object, so a
        stream's state advances across call sites that share a name.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngStreams":
        """Create a child ``RngStreams`` rooted at a derived seed.

        Useful to give each node its own family of streams:
        ``streams.fork(f"node:{node_id}")``.
        """
        return RngStreams(derive_seed(self.master_seed, name))

    @classmethod
    def for_run(cls, master_seed: int, *qualifiers: str) -> "RngStreams":
        """The stream family owned by one experiment run.

        This is the parallel-determinism contract of the fan-out
        harness (see :mod:`repro.experiments.parallel`): every run
        constructs its *own* ``RngStreams`` rooted only at its spec's
        seed (plus optional ``qualifiers``, folded in one
        :func:`derive_seed` step at a time), and no stream object is
        ever shared between runs.  Because a run's draws depend on
        nothing but this root, executing runs across N worker
        processes, in any order, yields byte-identical results to
        executing them serially.

        With no qualifiers this is exactly ``RngStreams(master_seed)``,
        so adopting it changed no existing output.
        """
        seed = int(master_seed)
        for qualifier in qualifiers:
            seed = derive_seed(seed, qualifier)
        return cls(seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.master_seed}, streams={sorted(self._streams)})"
