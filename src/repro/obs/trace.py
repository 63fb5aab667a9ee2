"""The tracer: structured events in bounded per-subsystem ring buffers.

One process-wide slot (:data:`repro.obs.probes.PROBES`) holds the
installed tracer — ``with Tracer() as tracer:`` puts it there — and
every instrumented call site does

.. code-block:: python

    tracer = PROBES.tracer
    if tracer is not None:
        tracer.emit("sharing", "flush", node=..., page=..., lines=...)

so the *disabled* cost is one slot load plus a ``None`` check — no
kwargs dict is ever built, no string is formatted. Hot paths that only
count (no event payload) use ``tracer.count(...)`` the same way.

Events carry a global sequence number (total order across subsystems —
what the invariant checker replays), the simulation time if a clock was
attached, the subsystem, a name, and a payload dict. Each subsystem gets
its own ring (``collections.deque`` with ``maxlen``), so a chatty
subsystem (memory accesses) cannot evict the protocol events the
invariant checker needs; overflow is counted per subsystem in
:attr:`Tracer.dropped` rather than silently discarded.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from .counters import CounterRegistry
from .probes import PROBES

__all__ = ["TraceEvent", "Tracer"]


class TraceEvent:
    """One structured event: (seq, t, subsystem, name, fields)."""

    __slots__ = ("seq", "t", "subsystem", "name", "fields")

    def __init__(
        self, seq: int, t: float, subsystem: str, name: str, fields: dict
    ) -> None:
        self.seq = seq
        self.t = t
        self.subsystem = subsystem
        self.name = name
        self.fields = fields

    @property
    def key(self) -> str:
        """``subsystem.name`` — how invariants refer to event kinds."""
        return f"{self.subsystem}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(#{self.seq} t={self.t} {self.subsystem}.{self.name} "
            f"{self.fields})"
        )


class Tracer:
    """Bounded event rings + a counter registry, installable globally.

    Used as a context manager, installation and removal are scoped —
    instrumented call sites see the tracer only inside the ``with``:

    >>> with Tracer() as tracer:
    ...     PROBES.tracer is tracer
    ...     tracer.emit("pool", "evict", page=7)
    ...     tracer.count("pool.evictions")
    True
    >>> PROBES.tracer is None
    True
    >>> [event.key for event in tracer.events()]
    ['pool.evict']
    >>> tracer.counters.snapshot()
    {'pool.evictions': 1.0}
    """

    def __init__(
        self,
        capacity_per_subsystem: int = 1 << 16,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity_per_subsystem <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity_per_subsystem = capacity_per_subsystem
        self.clock = clock
        self.counters = CounterRegistry()
        self._rings: dict[str, deque] = {}
        self._seq = 0
        self.dropped: dict[str, int] = {}

    # -- emission (only reached when the tracer is installed) --------------------

    def emit(self, subsystem: str, name: str, **fields: object) -> None:
        ring = self._rings.get(subsystem)
        if ring is None:
            ring = deque(maxlen=self.capacity_per_subsystem)
            self._rings[subsystem] = ring
        if len(ring) == self.capacity_per_subsystem:
            self.dropped[subsystem] = self.dropped.get(subsystem, 0) + 1
        self._seq += 1
        t = self.clock() if self.clock is not None else 0.0
        ring.append(TraceEvent(self._seq, t, subsystem, name, fields))

    def count(self, name: str, amount: float = 1.0) -> None:
        # CounterRegistry.add, inlined: the hottest instrument call.
        counts = self.counters.counts
        counts[name] = counts.get(name, 0.0) + amount

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Stamp future events with this clock (e.g. ``lambda: sim.now``)."""
        self.clock = clock

    # -- inspection ----------------------------------------------------------------

    def events(self, *subsystems: str) -> list[TraceEvent]:
        """Buffered events in global emission order.

        With arguments, only those subsystems; without, everything.
        """
        selected: Iterable[str] = subsystems or self._rings.keys()
        merged: list[TraceEvent] = []
        for subsystem in selected:
            merged.extend(self._rings.get(subsystem, ()))
        merged.sort(key=lambda event: event.seq)
        return merged

    def subsystems(self) -> list[str]:
        return sorted(self._rings)

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    # -- installation -----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        return PROBES.install("tracer", self)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        PROBES.uninstall("tracer", self)
