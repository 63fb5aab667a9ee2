"""Named counters for mechanism-level measurement.

A :class:`CounterRegistry` is a flat namespace of monotonically
accumulated counters (``add``). Names are dotted, ``subsystem.metric``
style — ``sharing.lines_flushed``, ``pool.rdma.remote_read_bytes`` — so
a snapshot sorts into readable groups. Counters are plain floats and
deterministic for a seeded run.
"""

from __future__ import annotations

__all__ = ["CounterRegistry"]


class CounterRegistry:
    """A flat registry of named counters.

    >>> registry = CounterRegistry()
    >>> registry.add("pool.hits")
    >>> registry.add("pool.hits", 2)
    >>> registry.snapshot()
    {'pool.hits': 3.0}
    """

    def __init__(self) -> None:
        #: Counter values by name. :meth:`repro.obs.trace.Tracer.count`
        #: adds into it directly, so :meth:`reset` empties it in place.
        self.counts: dict[str, float] = {}

    # -- counters ---------------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """All counters, sorted by name."""
        return dict(sorted(self.counts.items()))

    def reset(self) -> None:
        self.counts.clear()
