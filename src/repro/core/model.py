"""Analytical models from the paper.

* Section IV-C's maintenance-overhead comparison (Fig 15):
  SocialTube maintains ``log(u_c) + log(u_t)`` links versus NetTube's
  ``m * log(u)`` (m = videos watched from different overlays in a
  session, u = users per video overlay, u_c = users per channel,
  u_t = users per interest).
* Section IV-B's prefetch-accuracy estimate under Zipf(s=1)
  within-channel popularity: a single prefetch in a 25-video channel is
  accurate with probability 26.2%; 3-4 prefetches reach ~54.6%.
"""

from __future__ import annotations

import math
from typing import List, Tuple


def socialtube_maintenance_overhead(users_per_channel: int, users_per_interest: int) -> float:
    """Links per SocialTube node: ``log(u_c) + log(u_t)``.

    Natural log, as in the paper's asymptotic argument; the point of
    Fig 15 is the *constancy* in m, not the base.
    """
    if users_per_channel < 1 or users_per_interest < 1:
        raise ValueError("population sizes must be >= 1")
    return math.log(users_per_channel) + math.log(users_per_interest)


def nettube_maintenance_overhead(videos_watched: int, users_per_video: int) -> float:
    """Links per NetTube node: ``m * log(u)``."""
    if videos_watched < 0:
        raise ValueError("videos_watched must be >= 0")
    if users_per_video < 1:
        raise ValueError("users_per_video must be >= 1")
    return videos_watched * math.log(users_per_video)


def fig15_series(
    max_videos_watched: int = 50,
    users_per_video: int = 500,
    users_per_channel: int = 5000,
    users_per_interest: int = 250000,
) -> Tuple[List[Tuple[int, float]], List[Tuple[int, float]]]:
    """The two Fig 15 curves with the paper's arbitrary constants.

    "with values for u, u_c, and u_t arbitrarily chosen to be 500,
    5,000, and 250,000, respectively."  Returns (socialtube_points,
    nettube_points) over m = 1..max_videos_watched.
    """
    st = socialtube_maintenance_overhead(users_per_channel, users_per_interest)
    socialtube = [(m, st) for m in range(1, max_videos_watched + 1)]
    nettube = [
        (m, nettube_maintenance_overhead(m, users_per_video))
        for m in range(1, max_videos_watched + 1)
    ]
    return socialtube, nettube


def overhead_crossover(
    users_per_video: int = 500,
    users_per_channel: int = 5000,
    users_per_interest: int = 250000,
) -> float:
    """The m beyond which NetTube maintains more links than SocialTube.

    Fig 15's takeaway: "for small values of m, NetTube has very low
    overhead.  As m increases, however, the overhead of NetTube
    increases linearly while the overhead of SocialTube stays constant."
    """
    st = socialtube_maintenance_overhead(users_per_channel, users_per_interest)
    return st / math.log(users_per_video)


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k (exact, not the asymptotic)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(1.0 / k for k in range(1, n + 1))


def zipf_top_k_mass(num_videos: int, k: int, exponent: float = 1.0) -> float:
    """Probability that a Zipf(s)-distributed next pick lands in the top k.

    With s=1 this is ``H_k / H_N``.  Clamps k to the channel size.
    """
    if num_videos < 1:
        raise ValueError("num_videos must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 0.0
    k = min(k, num_videos)
    if exponent == 1.0:
        return harmonic_number(k) / harmonic_number(num_videos)
    num = sum(1.0 / (r ** exponent) for r in range(1, k + 1))
    den = sum(1.0 / (r ** exponent) for r in range(1, num_videos + 1))
    return num / den


def prefetch_accuracy(num_videos: int, prefetched: int) -> float:
    """Probability a prefetched first chunk is the next video watched.

    Section IV-B: ``p_k = v_k / v_t`` with Zipf(s=1) views, so
    prefetching the top ``M`` captures ``H_M / H_N`` of the next-pick
    probability.  For a 25-video channel: M=1 gives 26.2%, M=3..4 gives
    ~54.6% (the paper's numbers).
    """
    return zipf_top_k_mass(num_videos, prefetched, exponent=1.0)
