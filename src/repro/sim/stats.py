"""Measurement utilities: latency samples, percentiles, time series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "LatencyRecorder",
    "TimeSeries",
    "percentile",
]


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of sorted data."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    # Exact endpoints: no rank arithmetic, no interpolation drift.
    if q == 0.0:
        return sorted_values[0]
    if q == 100.0:
        return sorted_values[-1]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    frac = rank - low
    value = sorted_values[low] * (1 - frac) + sorted_values[high] * frac
    # Interpolation can drift past the endpoints by a ULP; clamp.
    return min(max(value, sorted_values[0]), sorted_values[-1])


class LatencyRecorder:
    """Collects latency samples and answers mean / percentile queries."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted = True

    def add(self, value_ns: float) -> None:
        self._samples.append(value_ns)
        self._sorted = False

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold another recorder's samples in (combining per-node data)."""
        if other._samples:
            self._samples.extend(other._samples)
            self._sorted = False
        return self

    def _ensure_sorted(self) -> list[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean_ns(self) -> float:
        return sum(self._samples) / len(self._samples) if self._samples else 0.0

    def percentile_ns(self, q: float) -> float:
        """Percentile of recorded samples; 0.0 when nothing was recorded.

        An empty recorder is a legitimate state for a mechanism bucket
        that never fired, so it answers 0 rather than raising the way
        bare :func:`percentile` does.
        """
        if not self._samples:
            return 0.0
        return percentile(self._ensure_sorted(), q)

    @property
    def p95_ns(self) -> float:
        return self.percentile_ns(95.0)


@dataclass
class TimeSeries:
    """Event counts bucketed by fixed-width windows of simulated time.

    Used for the recovery timelines (Figure 10): throughput-over-time is
    ``counts-per-bucket / bucket_seconds``.
    """

    bucket_ns: int
    _buckets: dict[int, int] = field(default_factory=dict)

    def record(self, at_ns: int, count: int = 1) -> None:
        self._buckets[at_ns // self.bucket_ns] = (
            self._buckets.get(at_ns // self.bucket_ns, 0) + count
        )

    def series(self, until_ns: Optional[int] = None) -> list[tuple[float, float]]:
        """(time_seconds, rate_per_second) per bucket, gaps filled with 0."""
        if not self._buckets:
            return []
        last = max(self._buckets)
        if until_ns is not None:
            last = max(last, until_ns // self.bucket_ns)
        bucket_s = self.bucket_ns / 1e9
        return [
            (i * bucket_s, self._buckets.get(i, 0) / bucket_s)
            for i in range(last + 1)
        ]
