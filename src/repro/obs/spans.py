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

Storage: rows, not objects
--------------------------

A checked run records ~145 spans per transaction and keeps all of them,
so the tracer stores each span as one row of a :class:`SpanLog` — typed
arrays for the numbers, a list of names, field values whose keys are
shared per call-site shape, and a first-charge cost column with a
sparse overflow for further cost kinds — instead of one object per
span. A :class:`Span` is a two-slot view ``(log, span_id)`` onto its
row: :meth:`SpanTracer.begin` / :meth:`SpanTracer.record` return one,
its attributes read the row, and the tracer keeps none of them. Only
an *open* span has more: its meter snapshot and the costs charged so
far live in the log's open-span index until :meth:`SpanTracer.end`
(or crash handling) folds them into the row.

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

from array import array
from collections.abc import Sequence
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from .probes import PROBES

__all__ = ["MECHANISM_KINDS", "FieldShapes", "Span", "SpanLog", "SpanTracer"]

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

#: Codes of the ``status`` column, indexing :data:`STATUS_NAMES`.
STATUS_OPEN = 0
STATUS_CLOSED = 1
STATUS_ABANDONED = 2
STATUS_NAMES = ("open", "closed", "abandoned")


# An open span's record in its log's open-span index is a list
#   [meter, charged ns at begin, len(meter.transfers) at begin,
#    costs so far (dict, or None before the first charge),
#    how many times the span sits on the attach stack].
# Only open spans have one; end() folds it into the row and drops it.
_METER, _C0, _C_IDX, _COSTS, _ATTACHED = range(5)


class FieldShapes:
    """Field dicts stored as a shape code and one value slot.

    A call site emits the same keys every time, so a log keeps each
    distinct key tuple once, in ``shapes`` (code 0 is the empty one), and
    a row holds only its shape code and its values: the bare value for a
    one-key dict, a tuple of values for more, ``None`` for none. Both
    logs of the package use it — span rows (:class:`SpanLog`) and trace
    events (:class:`~repro.obs.trace.Tracer`).
    """

    __slots__ = ("shapes", "_shape_codes")

    def __init__(self) -> None:
        self.shapes: list[tuple[str, ...]] = [()]
        self._shape_codes: dict[tuple[str, ...], int] = {(): 0}

    def pack(self, fields: dict) -> tuple[int, object]:
        """``fields`` as (shape code, value or tuple of values)."""
        keys = tuple(fields)
        code = self._shape_codes.get(keys)
        if code is None:
            code = self._shape_codes[keys] = len(self.shapes)
            self.shapes.append(keys)
        return code, fields[keys[0]] if len(keys) == 1 else tuple(fields.values())

    def unpack(self, code: int, values: object) -> dict:
        """The fields :meth:`pack` turned into ``(code, values)``, as a
        fresh dict in insertion order."""
        keys = self.shapes[code]
        if not keys:
            return {}
        if len(keys) == 1:
            return {keys[0]: values}
        return dict(zip(keys, values))  # type: ignore[call-overload]


class SpanLog(FieldShapes):
    """Recorded spans as rows of columns, in begin order.

    Row ``r`` holds span id ``base + r`` (a tracer numbers its spans
    consecutively). A log loaded from arbitrary :class:`Span` views
    (:meth:`load`) carries an explicit ``ids`` column instead. A parent
    id of 0 means no parent; kind and cost-kind codes index ``kinds``,
    whose entry 0 stands for "none"; a row's fields are its ``shape``
    code and its ``values`` slot (:class:`FieldShapes`).

    The columns grow in zero-filled blocks, so a new row already reads
    "open, no parent, no fields, no costs, ``end_seq`` 0" and recording
    a span writes only what differs; rows past ``n`` are unused. An
    open row's ``t1`` is written when it ends (until then ``Span.t1``
    reads ``t0``). Views address rows through ``base``, so a loaded log
    is read through its columns only.
    """

    __slots__ = (
        "base",
        "ids",
        "n",
        "capacity",
        "parent_id",
        "kind",
        "t0",
        "t1",
        "ns",
        "status",
        "end_seq",
        "names",
        "shape",
        "values",
        "cost_kind",
        "cost_ns",
        "more_costs",
        "open",
        "kinds",
        "kind_codes",
    )

    def __init__(self, base: int = 1) -> None:
        super().__init__()
        self.base = base
        self.ids: Optional[array] = None
        #: Rows in use.
        self.n = 0
        self.capacity = 0
        self.parent_id = array("q")
        self.kind = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.ns = array("d")
        self.status = array("b")
        self.end_seq = array("q")
        self.names: list[str] = []
        self.shape = array("H")
        self.values: list[object] = []
        #: First cost kind charged to the row (0 = no costs) and its ns.
        self.cost_kind = array("H")
        self.cost_ns = array("d")
        #: row -> {kind: ns} for the kinds charged after the first.
        self.more_costs: dict[int, dict[str, float]] = {}
        #: row -> open record (the ``_METER`` ... ``_ATTACHED`` list) of
        #: every span still open, in begin order.
        self.open: dict[int, list] = {}
        self.kinds: list[Optional[str]] = [None]
        self.kind_codes: dict[str, int] = {}

    def __len__(self) -> int:
        return self.n

    def grow(self) -> None:
        """Add a zero-filled block of rows (a quarter more, at least 64)."""
        extra = 64 + self.capacity // 4
        for column in (
            self.parent_id,
            self.kind,
            self.t0,
            self.t1,
            self.ns,
            self.status,
            self.end_seq,
            self.shape,
            self.cost_kind,
            self.cost_ns,
        ):
            column.frombytes(bytes(extra * column.itemsize))
        self.names.extend([""] * extra)
        self.values.extend([None] * extra)
        self.capacity += extra

    def code(self, kind: str) -> int:
        """The code of ``kind`` in this log's kind table (added if new)."""
        code = self.kind_codes.get(kind)
        if code is None:
            code = self.kind_codes[kind] = len(self.kinds)
            self.kinds.append(kind)
        return code

    def append(
        self,
        parent_id: int,
        kind: str,
        name: str,
        t0: float,
        t1: float,
        ns: float,
        status: int,
        end_seq: int,
        fields: dict,
    ) -> int:
        """Add one row (costs empty); returns its index."""
        row = self.n
        if row == self.capacity:
            self.grow()
        self.n = row + 1
        self.parent_id[row] = parent_id
        self.kind[row] = self.code(kind)
        self.t0[row] = t0
        self.t1[row] = t1
        self.ns[row] = ns
        self.status[row] = status
        self.end_seq[row] = end_seq
        self.names[row] = name
        if fields:
            self.shape[row], self.values[row] = self.pack(fields)
        return row

    # -- fields -------------------------------------------------------------------

    def fields_of(self, row: int) -> dict:
        """The row's fields as a fresh dict, in insertion order."""
        return self.unpack(self.shape[row], self.values[row])

    def merge_fields(self, row: int, fields: dict) -> None:
        """``fields_of(row).update(fields)``, stored back into the row."""
        merged = self.fields_of(row)
        merged.update(fields)
        self.shape[row], self.values[row] = self.pack(merged)

    # -- costs --------------------------------------------------------------------

    def costs_of(self, row: int) -> Optional[dict[str, float]]:
        """The row's per-kind costs in first-charge order (None if none)."""
        record = self.open.get(row)
        if record is not None:
            costs = record[_COSTS]
            return None if costs is None else dict(costs)
        code = self.cost_kind[row]
        if not code:
            return None
        costs = {self.kinds[code]: self.cost_ns[row]}
        more = self.more_costs.get(row)
        if more:
            costs.update(more)
        return costs

    def store_costs(self, row: int, costs: dict[str, float]) -> None:
        """Fold a closing span's accumulated costs into the row."""
        items = iter(costs.items())
        kind, ns = next(items)
        self.cost_kind[row] = self.code(kind)
        self.cost_ns[row] = ns
        if len(costs) > 1:
            self.more_costs[row] = dict(items)

    def charge(self, row: int, kind: str, ns: float) -> None:
        """``costs[kind] += ns`` on a row that is no longer open."""
        code = self.code(kind)
        first = self.cost_kind[row]
        if not first:
            self.cost_kind[row] = code
            self.cost_ns[row] = 0.0 + ns
        elif first == code:
            self.cost_ns[row] += ns
        else:
            more = self.more_costs.setdefault(row, {})
            more[kind] = more.get(kind, 0.0) + ns

    # -- loading ------------------------------------------------------------------

    @classmethod
    def load(cls, spans: Iterable["Span"]) -> "SpanLog":
        """Copy any iterable of spans into a fresh log with explicit ids."""
        log = cls(base=0)
        ids = log.ids = array("q")
        for span in spans:
            ids.append(span.span_id)
            row = log.append(
                span.parent_id or 0,
                span.kind,
                span.name,
                span.t0,
                span.t1,
                span.ns,
                STATUS_NAMES.index(span.status),
                span.end_seq,
                span.fields,
            )
            costs = span.costs
            if costs:
                log.store_costs(row, costs)
        return log


class Span:
    """One causal interval: a read-only view of a row of a :class:`SpanLog`.

    Attributes (all computed from the row): ``span_id``, ``parent_id``,
    ``kind``, ``name``, ``t0``, ``t1``, ``ns``, ``status``, ``fields``,
    ``costs``, ``end_seq``. Two views of the same row compare equal.
    """

    __slots__ = ("log", "span_id")

    def __init__(self, log: SpanLog, span_id: int) -> None:
        self.log = log
        self.span_id = span_id

    @property
    def parent_id(self) -> Optional[int]:
        log = self.log
        return log.parent_id[self.span_id - log.base] or None

    @property
    def kind(self) -> str:
        log = self.log
        return log.kinds[log.kind[self.span_id - log.base]]  # type: ignore[return-value]

    @property
    def name(self) -> str:
        log = self.log
        return log.names[self.span_id - log.base]

    @property
    def t0(self) -> float:
        log = self.log
        return log.t0[self.span_id - log.base]

    @property
    def t1(self) -> float:
        log = self.log
        row = self.span_id - log.base
        return log.t0[row] if log.status[row] == STATUS_OPEN else log.t1[row]

    @property
    def ns(self) -> float:
        log = self.log
        return log.ns[self.span_id - log.base]

    @property
    def status(self) -> str:
        log = self.log
        return STATUS_NAMES[log.status[self.span_id - log.base]]

    @property
    def end_seq(self) -> int:
        log = self.log
        return log.end_seq[self.span_id - log.base]

    @property
    def fields(self) -> dict:
        log = self.log
        return log.fields_of(self.span_id - log.base)

    @property
    def costs(self) -> Optional[dict[str, float]]:
        log = self.log
        return log.costs_of(self.span_id - log.base)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.log is other.log and self.span_id == other.span_id

    def __hash__(self) -> int:
        return hash(self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(#{self.span_id} {self.kind}:{self.name} parent="
            f"{self.parent_id} ns={self.ns} {self.status})"
        )


class SpanSeq(Sequence):
    """The first ``n`` rows of a log as :class:`Span` views, built on access."""

    __slots__ = ("log", "_n")

    def __init__(self, log: SpanLog, n: int) -> None:
        self.log = log
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: Union[int, slice]) -> Union[Span, list[Span]]:
        base = self.log.base
        if isinstance(index, slice):
            return [Span(self.log, base + row) for row in range(self._n)[index]]
        return Span(self.log, base + range(self._n)[index])

    def __iter__(self) -> Iterator[Span]:
        log = self.log
        for span_id in range(log.base, log.base + self._n):
            yield Span(log, span_id)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SpanSeq, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanSeq({len(self)} spans)"


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
        #: Every span recorded since the last :meth:`clear`.
        self.log = SpanLog()
        self._stack: list[Span] = []
        # Parallel to _stack: each attached span's open record, or None
        # when the span is no longer open (add_ns then charges its row).
        self._records: list[Optional[list]] = []
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
        stack = self._stack
        if parent is None and stack:
            parent = stack[-1]
        self._next_id = span_id = self._next_id + 1
        clock = self.clock
        t0 = float(clock()) if clock is not None else 0.0
        log = self.log
        row = log.n
        if row == log.capacity:
            log.grow()
        log.n = row + 1
        # A fresh row already reads open, parentless, fieldless, costless.
        if parent is not None:
            log.parent_id[row] = parent.span_id
        try:
            log.kind[row] = log.kind_codes[kind]
        except KeyError:
            log.kind[row] = log.code(kind)
        log.t0[row] = t0  # an open row's t1 reads as t0 (see Span.t1)
        log.names[row] = name
        if fields:
            log.shape[row], log.values[row] = log.pack(fields)
        if meter is None:
            record = log.open[row] = [None, 0.0, 0, None, 0]
        else:
            record = log.open[row] = [
                meter, meter.ns + meter.taken_ns, len(meter.transfers), None, 0
            ]
        span = Span(log, span_id)
        if push:
            stack.append(span)
            self._records.append(record)
            record[_ATTACHED] = 1
        return span

    def end(self, span: Span, **fields: object) -> Span:
        """Close a span; wall duration if any time passed, else charged."""
        log = span.log
        row = span.span_id - log.base
        record = log.open.pop(row, None)
        if record is None:
            return span
        if fields:
            if log.shape[row]:
                log.merge_fields(row, fields)
            else:
                log.shape[row], log.values[row] = log.pack(fields)
        clock = self.clock
        t1 = float(clock()) if clock is not None else 0.0
        wall = t1 - log.t0[row]
        meter = record[_METER]
        if wall <= 0.0 and meter is not None:
            charged = (meter.ns + meter.taken_ns) - record[_C0]
            transfers = meter.transfers
            c_idx = record[_C_IDX]
            if c_idx < len(transfers):
                for charge in transfers[c_idx:]:
                    charged += charge.base_ns
            ns = charged if charged > 0.0 else 0.0
        else:
            ns = wall
        log.t1[row] = t1
        log.ns[row] = ns
        log.status[row] = STATUS_CLOSED
        self._end_seq = log.end_seq[row] = self._end_seq + 1
        costs = record[_COSTS]
        if costs is not None:
            log.store_costs(row, costs)
        if record[_ATTACHED]:
            # Pop through the span; anything opened above it that was
            # never ended (exception path) is abandoned, keeping the
            # stack consistent for the next synchronous segment.
            stack, records = self._stack, self._records
            while stack:
                top = stack.pop()
                popped = records.pop()
                if popped is not None:
                    popped[_ATTACHED] -= 1
                if popped is record:
                    break
                self._abandon(top)
            if record[_ATTACHED]:
                self._detach(record)
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
        clock = self.clock
        now = float(clock()) if clock is not None else 0.0
        if t0 is None:
            t0 = now - ns
        else:
            ns = now - t0
        if parent is None and self._stack:
            parent = self._stack[-1]
        self._next_id = span_id = self._next_id + 1
        log = self.log
        row = log.n
        if row == log.capacity:
            log.grow()
        log.n = row + 1
        if parent is not None:
            log.parent_id[row] = parent.span_id
        try:
            log.kind[row] = log.kind_codes[kind]
        except KeyError:
            log.kind[row] = log.code(kind)
        log.t0[row] = t0
        log.t1[row] = now
        if ns > 0.0:
            log.ns[row] = ns
        log.status[row] = STATUS_CLOSED
        self._end_seq = log.end_seq[row] = self._end_seq + 1
        log.names[row] = name
        if fields:
            log.shape[row], log.values[row] = log.pack(fields)
        return Span(log, span_id)

    def add_ns(self, kind: str, ns: float) -> None:
        """Charge ``ns`` to the current span's ``costs[kind]`` bucket.

        The cheap alternative to a span per memory access: the
        critical-path decomposition carves these out of the enclosing
        span's self-time. Dropped (but counted in
        :attr:`dropped_costs`) when nothing is attached.
        """
        records = self._records
        if not records:
            self.dropped_costs += 1
            return
        record = records[-1]
        if record is None:
            top = self._stack[-1]
            top.log.charge(top.span_id - top.log.base, kind, ns)
            return
        costs = record[_COSTS]
        if costs is None:
            record[_COSTS] = {kind: 0.0 + ns}
        else:
            costs[kind] = costs.get(kind, 0.0) + ns

    # -- attach stack -------------------------------------------------------------

    def push(self, span: Span) -> None:
        log = span.log
        record = log.open.get(span.span_id - log.base)
        if record is not None:
            record[_ATTACHED] += 1
        self._stack.append(span)
        self._records.append(record)

    def pop(self, span: Span) -> None:
        """Pop ``span``; anything left open above it is abandoned."""
        stack, records = self._stack, self._records
        while stack:
            top = stack.pop()
            popped = records.pop()
            if popped is not None:
                popped[_ATTACHED] -= 1
            if top.span_id == span.span_id and top.log is span.log:
                return
            self._abandon(top)

    def attached(self, span: Span) -> _Attached:
        """Context manager attaching ``span`` for a synchronous segment."""
        return _Attached(self, span)

    def attach_stack(self) -> tuple[Span, ...]:
        """The attach stack, bottom first."""
        return tuple(self._stack)

    # -- leaving ------------------------------------------------------------------

    def _detach(self, record: list) -> None:
        """Point a closed span's remaining stack entries at its row."""
        records = self._records
        for index, entry in enumerate(records):
            if entry is record:
                records[index] = None
        record[_ATTACHED] = 0

    def _abandon_row(self, log: SpanLog, row: int, record: list) -> None:
        """Close an open row as abandoned (it is already out of ``open``)."""
        log.t1[row] = t1 = self._now()
        log.ns[row] = float(t1 - log.t0[row])
        log.status[row] = STATUS_ABANDONED
        self._end_seq = log.end_seq[row] = self._end_seq + 1
        if record[_COSTS] is not None:
            log.store_costs(row, record[_COSTS])
        self.abandoned_total += 1

    def _abandon(self, span: Span) -> None:
        log = span.log
        row = span.span_id - log.base
        record = log.open.pop(row, None)
        if record is not None:
            self._abandon_row(log, row, record)
            if record[_ATTACHED]:
                self._detach(record)

    # -- crash handling -----------------------------------------------------------

    def abandon_open(self) -> int:
        """Mark every still-open span abandoned (crash semantics).

        Called where an :class:`~repro.faults.injector.InjectedCrash`
        is caught: the spans above the crash point can never end, so
        they must not leak as ``open`` (the span-balance invariant) nor
        mis-parent spans from the next incarnation. Walks only the open
        spans, in begin order. Returns how many spans were abandoned.
        """
        for record in self._records:
            if record is not None:  # an open span of an older log stays open
                record[_ATTACHED] = 0
        self._stack.clear()
        self._records.clear()
        log = self.log
        still_open, log.open = log.open, {}
        for row, record in still_open.items():
            self._abandon_row(log, row, record)
        return len(still_open)

    # -- inspection ---------------------------------------------------------------

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Stamp future spans with this clock (e.g. ``lambda: sim.now``)."""
        self.clock = clock

    def spans(self) -> SpanSeq:
        """All recorded spans in begin order (views; ``len`` builds none)."""
        return SpanSeq(self.log, len(self.log))

    def clear(self) -> None:
        """Drop recorded spans (the attach stack must be empty).

        Views of the dropped spans keep their log alive and stay valid;
        ending one of them still works.
        """
        if self._stack:
            raise RuntimeError("clear() with spans still attached")
        self.log = SpanLog(base=self._next_id + 1)

    # -- installation -------------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        return PROBES.install("spans", self)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        PROBES.uninstall("spans", self)
