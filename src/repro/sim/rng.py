"""Deterministic random sources for workloads.

Wraps :class:`random.Random` with the distributions the benchmarks use:
uniform keys, Zipf-skewed keys (sysbench's "special"/zipf access
patterns), and weighted choice for transaction mixes. Everything is
seeded so every experiment run is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

__all__ = ["WorkloadRng", "ZipfGenerator"]

T = TypeVar("T")


class ZipfGenerator:
    """Zipf(theta) sampler over ``[0, n)`` using Gray/Jim's CDF method.

    Precomputes the normalization constant; sampling is O(log n) via
    binary search over the cumulative distribution, computed lazily in
    blocks to keep setup cheap for large n.
    """

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError("zipf population must be positive")
        if theta < 0:
            raise ValueError("zipf theta must be non-negative")
        self.n = n
        self.theta = theta
        self._rng = rng
        self._cdf: list[float] = []
        harmonic = 0.0
        for i in range(1, n + 1):
            harmonic += 1.0 / (i**theta)
            self._cdf.append(harmonic)
        self._total = harmonic

    def sample(self) -> int:
        """Draw a rank in [0, n); rank 0 is the hottest item."""
        target = self._rng.random() * self._total
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo


class WorkloadRng:
    """Seeded random source shared by a workload's generators."""

    def __init__(self, seed: int = 0xC01D) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._zipf_cache: dict[tuple[int, float], ZipfGenerator] = {}

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def zipf(self, n: int, theta: float) -> int:
        """Zipf-skewed rank in [0, n); ranks are scattered via a stride
        permutation so hot keys are not physically adjacent (as in YCSB)."""
        key = (n, theta)
        gen = self._zipf_cache.get(key)
        if gen is None:
            gen = ZipfGenerator(n, theta, self._rng)
            self._zipf_cache[key] = gen
        rank = gen.sample()
        # Scatter: multiply by a large prime mod n so rank 0,1,2... map to
        # spread-out positions, avoiding artificial page-locality of hot keys.
        return (rank * 2_654_435_761) % n

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        if len(items) != len(weights):
            raise ValueError("items/weights length mismatch")
        return self._rng.choices(items, weights=weights, k=1)[0]

    def fork(self, salt: int) -> "WorkloadRng":
        """Derive an independent stream (per worker / per instance)."""
        return WorkloadRng(seed=(self.seed * 1_000_003 + salt) & 0x7FFFFFFF)

    def bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)
