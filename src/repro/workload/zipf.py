"""Zipfian rank sampling.

The paper draws keys within each partition from a zipf distribution with
parameter 0.99 (the YCSB default).  Rank probabilities are
``P(rank=i) ∝ 1 / (i+1)^theta``; we precompute the CDF once per pool size
and sample with binary search, which is exact and fast for the pool sizes
the simulation uses.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate

from repro.common.errors import ConfigError


@lru_cache(maxsize=8)
def _cdf(num_items: int, theta: float) -> array:
    """The rank CDF, shared read-only by every generator of one shape.

    A left-to-right running sum in doubles, then one division per entry
    by the last: the same float operations, in the same order, as a
    cumulative sum normalised by its final element.
    """
    sums = array("d", accumulate(
        1.0 / float(i) ** theta for i in range(1, num_items + 1)))
    total = sums[-1]
    return array("d", (s / total for s in sums))


class ZipfGenerator:
    """Samples 0-based ranks from a (truncated) zipf distribution."""

    def __init__(self, num_items: int, theta: float, rng: random.Random):
        if num_items < 1:
            raise ConfigError("zipf needs at least one item")
        if theta < 0:
            raise ConfigError("zipf theta must be >= 0")
        self.num_items = num_items
        self.theta = theta
        self._rng = rng
        self._cdf = _cdf(num_items, theta)

    def sample(self) -> int:
        """One rank in [0, num_items)."""
        return bisect_left(self._cdf, self._rng.random())

    def probability(self, rank: int) -> float:
        """The probability mass of a given rank."""
        if not 0 <= rank < self.num_items:
            raise ConfigError(f"rank {rank} out of range")
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - lower
