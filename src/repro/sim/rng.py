"""Deterministic named random streams.

Every stochastic component (clock skew, network jitter, each client's
workload, ...) draws from its own named stream derived from the experiment
seed, so adding a component or reordering initialization never perturbs the
randomness seen by the others.  This is what makes experiments reproducible
bit-for-bit, which the test suite relies on.
"""

from __future__ import annotations

import random
import zlib


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable 63-bit seed for a named stream under a root seed."""
    digest = zlib.crc32(name.encode("utf-8"))
    return (root_seed * 0x9E3779B97F4A7C15 + digest) & 0x7FFF_FFFF_FFFF_FFFF


class RngRegistry:
    """A factory of named, independent, reproducible random streams."""

    def __init__(self, root_seed: int):
        self._root_seed = int(root_seed)
        self._py_streams: dict[str, random.Random] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> random.Random:
        """A ``random.Random`` stream (cheap scalar sampling)."""
        rng = self._py_streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self._root_seed, name))
            self._py_streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one's."""
        return RngRegistry(_derive_seed(self._root_seed, f"fork:{name}"))
