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
attached, the subsystem, a name, and a payload of fields. Each
subsystem gets its own ring, so a chatty subsystem (memory accesses)
cannot evict the protocol events the invariant checker needs; overflow
is counted per subsystem in :attr:`Tracer.dropped` rather than silently
discarded.

Storage: columns, not objects
-----------------------------

A checked sharing run emits ~95 events per transaction and keeps them
all, so a ring is typed columns — ``seq``, ``t``, a name code, a field
shape code and one values slot (:class:`~repro.obs.spans.FieldShapes`,
the table the span log uses) — and the caller's kwargs dict is not
kept. :meth:`Tracer.events` returns an :class:`EventSeq` whose
:class:`TraceEvent` views are built when read.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Sequence
from itertools import chain, compress, islice, repeat
from typing import Callable, Iterable, Iterator, Optional, Union

from .counters import CounterRegistry
from .probes import PROBES
from .spans import FieldShapes

__all__ = ["EventSeq", "TraceEvent", "Tracer"]


class TraceEvent:
    """One structured event, read-only: (seq, t, subsystem, name, fields).

    ``fields`` is built afresh from the packed values on every read.
    """

    __slots__ = ("_seq", "_t", "_subsystem", "_name", "_keys", "_values")

    def __init__(
        self,
        seq: int,
        t: float,
        subsystem: str,
        name: str,
        keys: tuple[str, ...],
        values: object,
    ) -> None:
        self._seq = seq
        self._t = t
        self._subsystem = subsystem
        self._name = name
        self._keys = keys
        self._values = values

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def t(self) -> float:
        return self._t

    @property
    def subsystem(self) -> str:
        return self._subsystem

    @property
    def name(self) -> str:
        return self._name

    @property
    def fields(self) -> dict:
        keys = self._keys
        if not keys:
            return {}
        if len(keys) == 1:
            return {keys[0]: self._values}
        return dict(zip(keys, self._values))  # type: ignore[call-overload]

    @property
    def key(self) -> str:
        """``subsystem.name`` — how invariants refer to event kinds."""
        return f"{self._subsystem}.{self._name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(#{self._seq} t={self._t} {self.key} {self.fields})"
        )


class _Ring:
    """One subsystem's events as columns; its ``i``-th event ever emitted
    sits in row ``i % capacity`` (the columns grow up to ``capacity``)."""

    __slots__ = ("seq", "t", "name", "shape", "values", "emitted")

    def __init__(self) -> None:
        self.seq = array("q")
        self.t = array("d")
        self.name = array("H")
        self.shape = array("H")
        self.values: list[object] = []
        #: Events ever emitted into this ring, dropped ones included.
        self.emitted = 0


class Tracer(FieldShapes):
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
        super().__init__()
        self.capacity_per_subsystem = capacity_per_subsystem
        self.clock = clock
        self.counters = CounterRegistry()
        self._rings: dict[str, _Ring] = {}
        self._seq = 0
        self.dropped: dict[str, int] = {}
        #: Event names by code (every subsystem's, in first-emit order).
        self.names: list[str] = []
        self._name_codes: dict[str, int] = {}

    # -- emission (only reached when the tracer is installed) --------------------

    def emit(self, subsystem: str, name: str, **fields: object) -> None:
        ring = self._rings.get(subsystem)
        if ring is None:
            ring = self._rings[subsystem] = _Ring()
        self._seq = seq = self._seq + 1
        clock = self.clock
        t = clock() if clock is not None else 0.0
        code = self._name_codes.get(name)
        if code is None:
            code = self._name_codes[name] = len(self.names)
            self.names.append(name)
        # FieldShapes.pack, inlined.
        if fields:
            keys = tuple(fields)
            shape = self._shape_codes.get(keys)
            if shape is None:
                shape = self.pack(fields)[0]
            values = fields[keys[0]] if len(keys) == 1 else tuple(fields.values())
        else:
            shape = 0
            values = None
        emitted = ring.emitted
        ring.emitted = emitted + 1
        if emitted < self.capacity_per_subsystem:
            ring.seq.append(seq)
            ring.t.append(t)
            ring.name.append(code)
            ring.shape.append(shape)
            ring.values.append(values)
            return
        self.dropped[subsystem] = self.dropped.get(subsystem, 0) + 1
        row = emitted % self.capacity_per_subsystem
        ring.seq[row] = seq
        ring.t[row] = t
        ring.name[row] = code
        ring.shape[row] = shape
        ring.values[row] = values

    def count(self, name: str, amount: float = 1.0) -> None:
        # CounterRegistry.add, inlined: the hottest instrument call.
        counts = self.counters.counts
        counts[name] = counts.get(name, 0.0) + amount

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Stamp future events with this clock (e.g. ``lambda: sim.now``)."""
        self.clock = clock

    # -- inspection ----------------------------------------------------------------

    def events(self, *subsystems: str) -> "EventSeq":
        """Buffered events in global emission order, as of this call.

        With arguments, only those subsystems; without, everything.
        """
        return EventSeq(self, subsystems or tuple(self._rings))

    def rows(self, subsystems: tuple[str, ...]) -> list[tuple[str, _Ring, int, int]]:
        """``(subsystem, ring, first, end)`` per buffered ring of
        ``subsystems``: the ring holds its events ``first`` … ``end - 1``
        (numbered from its first emit), in rows ``i % capacity``."""
        capacity = self.capacity_per_subsystem
        parts = []
        for subsystem in subsystems:
            ring = self._rings.get(subsystem)
            if ring is not None:
                end = ring.emitted
                parts.append((subsystem, ring, max(0, end - capacity), end))
        return parts

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


def _oldest_first(column: Iterable, head: int, n: int) -> Iterator:
    """A ring column's first ``n`` entries from row ``head`` on, wrapping."""
    return chain(islice(column, head, n), islice(column, head))


def in_seq_order(
    capacity: int,
    parts: list[tuple[str, _Ring, int, int]],
    wanted: Optional[list[list]] = None,
) -> Iterator[tuple[int, int, int]]:
    """``(seq, part index, row)`` of the events of ``parts`` (as
    :meth:`Tracer.rows` returns them), in global emission order.

    With ``wanted`` — per part, a list indexed by name code — only the
    events whose code it maps to something true. Each ring is walked
    oldest first in C, and a heap merges the walks, so nothing is held
    per event.
    """
    walks = []
    for index, (_, ring, first, end) in enumerate(parts):
        head, n = first % capacity, end - first
        rows = _oldest_first(range(n), head, n)
        events: Iterator = zip(_oldest_first(ring.seq, head, n), repeat(index), rows)
        if wanted is not None:
            keep = _oldest_first(ring.name, head, n)
            events = compress(events, map(wanted[index].__getitem__, keep))
        walks.append(events)
    return heapq.merge(*walks)


class EventSeq(Sequence):
    """A tracer's buffered events of some subsystems, in ``seq`` order.

    Holds the rings' bounds as of :meth:`Tracer.events`; events emitted
    later are not in it, and ``len`` builds nothing. A ring that has since
    overwritten some of them makes reading it raise ``RuntimeError``.
    """

    __slots__ = ("_tracer", "_parts", "_len", "_order")

    def __init__(self, tracer: Tracer, subsystems: tuple[str, ...]) -> None:
        self._tracer = tracer
        self._parts = tracer.rows(subsystems)
        self._len = sum(end - first for _, _, first, end in self._parts)
        #: ``in_seq_order`` of the parts, built on the first indexed read.
        self._order: Optional[list[tuple[int, int, int]]] = None

    def __len__(self) -> int:
        return self._len

    def _event(self, index: int, row: int) -> TraceEvent:
        subsystem, ring, _, _ = self._parts[index]
        tracer = self._tracer
        return TraceEvent(
            ring.seq[row],
            ring.t[row],
            subsystem,
            tracer.names[ring.name[row]],
            tracer.shapes[ring.shape[row]],
            ring.values[row],
        )

    def _walk(self) -> Iterator[tuple[int, int, int]]:
        capacity = self._tracer.capacity_per_subsystem
        for _, ring, first, _ in self._parts:
            if ring.emitted - capacity > first:
                raise RuntimeError(
                    "events overwritten in their ring since events() was called"
                )
        return in_seq_order(capacity, self._parts)

    def __iter__(self) -> Iterator[TraceEvent]:
        for _, index, row in self._walk():
            yield self._event(index, row)

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceEvent, list[TraceEvent]]:
        walk = self._walk()  # checked on every read, walked once
        if self._order is None:
            self._order = list(walk)
        if isinstance(index, slice):
            return [self._event(part, row) for _, part, row in self._order[index]]
        _, part, row = self._order[index]
        return self._event(part, row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventSeq({len(self)} events)"
