"""Causal span tracing: which mechanism each nanosecond went to.

The flat tracer (:mod:`repro.obs.trace`) answers *how many* — flushes,
RPCs, bytes moved. Spans answer *why a transaction took as long as it
did*: every span has a parent, a mechanism ``kind`` drawn from a small
taxonomy, and a duration in simulated nanoseconds, so
:mod:`repro.obs.critical_path` can decompose per-transaction commit
latency into per-mechanism buckets and
:mod:`repro.obs.export` can render the tree in Perfetto.

Installation mirrors :mod:`repro.obs.trace` exactly: the same probe
slot, and every instrumented call site pays one slot load plus a
``None`` check when tracing is disabled:

.. code-block:: python

    spans = PROBES.spans
    if spans is not None:
        span = spans.begin("mtr", "mtr", meter=engine.meter)

Mechanism kinds
---------------

``txn``, ``mtr``, ``page_fix``, ``lock_wait``, ``cxl_access``,
``cache_flush``, ``rpc``, ``wal_append``, ``pagestore_io``,
``recovery_phase`` — plus two derived kinds the attribution layer
introduces: ``pipe_wait`` (queueing delay beyond the charged service
time, recorded by :meth:`repro.sim.settle.ChargeSettler.settle`) and
``dram_access`` (line-cache charges on DRAM-mapped regions).

Two duration sources
--------------------

The simulator has no per-process hook, so a span can measure time two
ways and :meth:`SpanTracer.end` picks whichever applies:

* **wall** — ``t1 - t0`` from the attached simulated clock. Correct for
  spans that live across ``yield``s (transactions, lock waits).
* **charged** — the delta of the caller's :class:`AccessMeter` between
  begin and end (including the base latencies of transfer charges
  appended in between). Correct for spans that open and close inside a
  single synchronous segment, where no simulated time passes until the
  next :meth:`~repro.sim.settle.ChargeSettler.settle` turns the charges
  into a timeout.

A global *attach stack* provides parents for spans opened deep inside
engine code (an mtr span parents the WAL flush span, for example), and
collects fine-grained charges via :meth:`SpanTracer.add_ns` (memory
line fills, coherency flag reads) into the enclosing span's ``costs``
without allocating a span per access. Because workers interleave at
``yield`` boundaries, the stack is only valid *within* a synchronous
segment: spans that survive a ``yield`` must be created with
``push=False`` and re-attached around each synchronous segment with
:meth:`SpanTracer.attached` (``PROBES.attached(span)`` where tracing
may be off).

>>> tracer = SpanTracer()
>>> with tracer:
...     root = tracer.begin("txn", "transaction")
...     child = tracer.begin("mtr", "mtr")
...     child = tracer.end(child)
...     root = tracer.end(root)
>>> [(s.kind, s.parent_id) for s in tracer.spans()]
[('txn', None), ('mtr', 1)]
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .probes import PROBES

__all__ = ["MECHANISM_KINDS", "Span", "SpanTracer"]

#: The mechanism taxonomy (DESIGN.md §9). ``pipe_wait`` and
#: ``dram_access`` are derived kinds produced by the attribution layer.
MECHANISM_KINDS = (
    "txn",
    "mtr",
    "page_fix",
    "lock_wait",
    "cxl_access",
    "cache_flush",
    "rpc",
    "wal_append",
    "pagestore_io",
    "recovery_phase",
    "pipe_wait",
    "dram_access",
)

_OPEN = "open"
_CLOSED = "closed"
_ABANDONED = "abandoned"


class Span:
    """One causal interval: (kind, name, parent, duration, costs)."""

    __slots__ = (
        "span_id",
        "parent_id",
        "kind",
        "name",
        "t0",
        "t1",
        "ns",
        "status",
        "fields",
        "costs",
        "end_seq",
        "_meter",
        "_c0",
        "_c_idx",
    )

    def __init__(
        self, span_id: int, parent_id: Optional[int], kind: str, name: str, t0: float
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.ns = 0.0
        self.status = _OPEN
        self.fields: dict = {}
        self.costs: Optional[dict] = None
        self.end_seq = 0
        self._meter: Any = None
        self._c0 = 0.0
        self._c_idx = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(#{self.span_id} {self.kind}:{self.name} parent="
            f"{self.parent_id} ns={self.ns} {self.status})"
        )


class _Attached:
    """Scoped push/pop of a cross-yield span around a synchronous segment."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer.push(self._span)
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._tracer.pop(self._span)


class SpanTracer:
    """Begin/end spans with causal parents, installable globally.

    >>> with SpanTracer() as tracer:
    ...     span = tracer.begin("page_fix", "get", page=7)
    ...     tracer.add_ns("cxl_access", 250.0)
    ...     span = tracer.end(span)
    >>> span.costs
    {'cxl_access': 250.0}
    >>> PROBES.spans is None
    True
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._end_seq = 0
        #: Spans ever marked abandoned (crash semantics + exception pops).
        self.abandoned_total = 0
        #: ``add_ns`` charges that arrived with nothing attached — the
        #: metrics pipeline surfaces this so the drops are never silent.
        self.dropped_costs = 0

    # -- recording (only reached when the tracer is installed) --------------------

    def _now(self) -> float:
        clock = self.clock
        return float(clock()) if clock is not None else 0.0

    def begin(
        self,
        kind: str,
        name: str,
        meter: Any = None,
        parent: Optional[Span] = None,
        push: bool = True,
        **fields: object,
    ) -> Span:
        """Open a span. Parent defaults to the top of the attach stack.

        ``meter`` snapshots an :class:`~repro.hardware.memory.AccessMeter`
        so a span closing inside the same synchronous segment gets a
        charged-ns duration. ``push=False`` keeps the span off the attach
        stack — required for spans that live across ``yield``s.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        self._next_id += 1
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            kind,
            name,
            self._now(),
        )
        if fields:
            span.fields.update(fields)
        if meter is not None:
            span._meter = meter
            span._c0 = meter.ns + meter.taken_ns
            span._c_idx = len(meter.transfers)
        self._spans.append(span)
        if push:
            self._stack.append(span)
        return span

    def end(self, span: Span, **fields: object) -> Span:
        """Close a span; wall duration if any time passed, else charged."""
        if span.status != _OPEN:
            return span
        if fields:
            span.fields.update(fields)
        span.t1 = self._now()
        wall = span.t1 - span.t0
        meter = span._meter
        if wall <= 0.0 and meter is not None:
            charged = (meter.ns + meter.taken_ns) - span._c0
            transfers = meter.transfers
            if span._c_idx < len(transfers):
                for charge in transfers[span._c_idx :]:
                    charged += charge.base_ns
            span.ns = charged if charged > 0.0 else 0.0
        else:
            span.ns = float(wall)
        span._meter = None
        span.status = _CLOSED
        self._end_seq += 1
        span.end_seq = self._end_seq
        stack = self._stack
        if span in stack:
            # Pop through the span; anything opened above it that was
            # never ended (exception path) is abandoned, keeping the
            # stack consistent for the next synchronous segment.
            while stack:
                top = stack.pop()
                if top is span:
                    break
                self._abandon(top)
        return span

    def record(
        self,
        kind: str,
        name: str,
        parent: Optional[Span] = None,
        ns: float = 0.0,
        t0: Optional[float] = None,
        **fields: object,
    ) -> Span:
        """Record a retroactive, already-finished span (pure waits).

        Used where the duration is only known after the fact — lock
        waits and pipe queueing — so nothing is ever left open across
        the ``yield``. Pass either ``ns`` (ending now) or an explicit
        ``t0``.
        """
        now = self._now()
        if t0 is None:
            t0 = now - ns
        else:
            ns = now - t0
        if parent is None and self._stack:
            parent = self._stack[-1]
        self._next_id += 1
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            kind,
            name,
            t0,
        )
        span.t1 = now
        span.ns = float(ns) if ns > 0.0 else 0.0
        span.status = _CLOSED
        self._end_seq += 1
        span.end_seq = self._end_seq
        if fields:
            span.fields.update(fields)
        self._spans.append(span)
        return span

    def add_ns(self, kind: str, ns: float) -> None:
        """Charge ``ns`` to the current span's ``costs[kind]`` bucket.

        The cheap alternative to a span per memory access: the
        critical-path decomposition carves these out of the enclosing
        span's self-time. Dropped (but counted in
        :attr:`dropped_costs`) when nothing is attached.
        """
        stack = self._stack
        if not stack:
            self.dropped_costs += 1
            return
        span = stack[-1]
        costs = span.costs
        if costs is None:
            costs = span.costs = {}
        costs[kind] = costs.get(kind, 0.0) + ns

    # -- attach stack -------------------------------------------------------------

    def push(self, span: Span) -> None:
        self._stack.append(span)

    def pop(self, span: Span) -> None:
        """Pop ``span``; anything left open above it is abandoned."""
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                return
            self._abandon(top)

    def attached(self, span: Span) -> _Attached:
        """Context manager attaching ``span`` for a synchronous segment."""
        return _Attached(self, span)

    def current(self) -> Optional[Span]:
        """Top of the attach stack (parent for the next pushed span)."""
        return self._stack[-1] if self._stack else None

    # -- crash handling -----------------------------------------------------------

    def _abandon(self, span: Span) -> None:
        if span.status != _OPEN:
            return
        span.t1 = self._now()
        span.ns = float(span.t1 - span.t0)
        span._meter = None
        span.status = _ABANDONED
        self._end_seq += 1
        span.end_seq = self._end_seq
        self.abandoned_total += 1

    def abandon_open(self) -> int:
        """Mark every still-open span abandoned (crash semantics).

        Called where an :class:`~repro.faults.injector.InjectedCrash`
        is caught: the spans above the crash point can never end, so
        they must not leak as ``open`` (the span-balance invariant) nor
        mis-parent spans from the next incarnation. Returns how many
        spans were abandoned.
        """
        self._stack.clear()
        abandoned = 0
        for span in self._spans:
            if span.status == _OPEN:
                self._abandon(span)
                abandoned += 1
        return abandoned

    # -- inspection ---------------------------------------------------------------

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Stamp future spans with this clock (e.g. ``lambda: sim.now``)."""
        self.clock = clock

    def spans(self) -> list[Span]:
        """All recorded spans in begin order."""
        return list(self._spans)

    def clear(self) -> None:
        """Drop recorded spans (the attach stack must be empty)."""
        if self._stack:
            raise RuntimeError("clear() with spans still attached")
        self._spans = []

    # -- installation -------------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        return PROBES.install("spans", self)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        PROBES.uninstall("spans", self)
