"""Heavy-tailed samplers used by the trace synthesizer.

Everything here is implemented from first principles on top of
``random.Random`` so the synthesizer stays deterministic under the
stream-split RNG discipline of :mod:`repro.sim.rng`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from random import Random
from typing import List, Sequence


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Unnormalised Zipf weights ``1/k^s`` for ranks ``k = 1..n``.

    Section IV-B of the paper models within-channel video popularity as
    Zipf with characteristic exponent ``s = 1`` ("views tend to follow
    Zipf's distribution with the characteristic exponent s = 1").
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    return [1.0 / (k ** exponent) for k in range(1, n + 1)]


class DiscreteSampler:
    """O(log n) sampler over a fixed finite weight vector.

    Precomputes the cumulative weights once; each draw is one uniform
    plus a binary search.  Used for channel choice, within-channel video
    choice, category choice -- anywhere the corpus provides the weights.
    """

    def __init__(self, weights: Sequence[float]):
        if not weights:
            raise ValueError("weights must be non-empty")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self._cumulative: List[float] = []
        running = 0.0
        for w in weights:
            running += w
            self._cumulative.append(running)
        if running <= 0:
            raise ValueError("total weight must be positive")
        self.total = running

    def __len__(self) -> int:
        return len(self._cumulative)

    def sample(self, rng: Random) -> int:
        """Draw an index with probability proportional to its weight."""
        u = rng.random() * self.total
        return bisect_left(self._cumulative, u)


def bounded_pareto(rng: Random, alpha: float, low: float, high: float) -> float:
    """Draw from a Pareto distribution truncated to ``[low, high]``.

    Inverse-CDF method.  Channel video counts (Fig 6) and subscriber
    counts (Fig 4) in the paper span 3-4 orders of magnitude with
    power-law tails; a bounded Pareto reproduces both the spread and the
    reported quantiles once ``alpha`` is tuned.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if low <= 0 or high <= low:
        raise ValueError("need 0 < low < high")
    u = rng.random()
    la = low ** alpha
    ha = high ** alpha
    # Inverse CDF of the truncated Pareto.
    x = (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)
    return min(max(x, low), high)


def lognormal(rng: Random, mu: float, sigma: float) -> float:
    """Plain lognormal draw (thin wrapper for symmetry/naming)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return rng.lognormvariate(mu, sigma)


def exponential_growth_day(rng: Random, horizon_days: int, rate: float) -> int:
    """Sample an upload day from an exponential *growth* profile.

    Fig 2 shows the number of videos added per unit time growing roughly
    exponentially over the two crawled years.  We sample the upload day
    ``d`` in ``[0, horizon_days)`` with density proportional to
    ``exp(rate * d / horizon_days)`` via the inverse CDF, so later days
    are denser -- reproducing the figure's accelerating curve.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    if rate <= 0:
        # Degenerate: uniform uploads over the horizon.
        return rng.randrange(horizon_days)
    u = rng.random()
    # Inverse CDF of the truncated exponential-growth density on [0, 1].
    x = math.log(1.0 + u * (math.exp(rate) - 1.0)) / rate
    day = int(x * horizon_days)
    return min(day, horizon_days - 1)
