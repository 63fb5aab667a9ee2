"""Named counters and histograms for mechanism-level measurement.

A :class:`CounterRegistry` is a flat namespace of monotonically
accumulated counters (``add``) plus fixed-shape histograms
(``observe``). Names are dotted, ``subsystem.metric`` style —
``sharing.lines_flushed``, ``pool.rdma.remote_read_bytes`` — so a
snapshot sorts into readable groups.

Counters are plain floats and deterministic for a seeded run; histogram
*values* may be wall-clock durations (e.g. PolarRecv phase timings), so
regression tests should pin counters, not histogram contents.
"""

from __future__ import annotations

__all__ = ["CounterRegistry", "Histogram"]


class Histogram:
    """Running summary of observed values: count/sum/min/max + buckets.

    Buckets are powers of two of the observed unit; enough to answer
    "are these flushes tens or thousands of nanoseconds" without storing
    samples.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    _N_BUCKETS = 64

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = max(0, int(value).bit_length()) if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class CounterRegistry:
    """A flat registry of named counters and histograms.

    >>> registry = CounterRegistry()
    >>> registry.add("pool.hits")
    >>> registry.add("pool.hits", 2)
    >>> registry.snapshot()
    {'pool.hits': 3.0}
    >>> registry.observe("flush.ns", 1200.0)
    >>> registry.histogram("flush.ns").count
    1
    """

    def __init__(self) -> None:
        #: Counter values by name. :meth:`repro.obs.trace.Tracer.count`
        #: adds into it directly, so :meth:`reset` empties it in place.
        self.counts: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- counters ---------------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    # -- histograms -------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram()
            self._histograms[name] = histogram
        histogram.observe(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (empty if never observed)."""
        return self._histograms.get(name, Histogram())

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """All counters, sorted by name (histograms excluded)."""
        return dict(sorted(self.counts.items()))

    def reset(self) -> None:
        self.counts.clear()
        self._histograms = {}
