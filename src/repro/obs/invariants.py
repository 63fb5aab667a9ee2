"""Trace-driven coherency-protocol invariant checking.

The checker replays a trace (a :class:`Tracer`, whose rings it walks
column by column, or any iterable of :class:`TraceEvent` in emission
order) and asserts the safety properties the sharing protocol of §3.3
promises. It never looks at live objects — only at the event
stream — so it works equally as a pytest fixture over a finished test,
over a sweep-harness golden run, or over a benchmark trace.

Checked invariants
==================

``no_stale_read``
    After the fusion server pushes an ``invalid`` flag to a node for a
    page (``fusion.invalidate_push``), that node's next access to the
    page (``sharing.page_access``) must observe the flag and invalidate
    its CPU cache (``saw_invalid=True``) — otherwise it read through
    potentially stale cached lines. Tracking for a (node, page) pair
    resets when the node drops its metadata entry (``sharing.drop``):
    a re-registration invalidates the cache and fetches fresh bytes.

``flush_on_write_release``
    Every distributed write-lock release (``lock.write_release``) must
    be preceded — since the matching ``lock.write_acquire`` — by a
    flush of that page (``sharing.flush`` for the CXL pool,
    ``rdma.flush_page`` for the RDMA baseline). A CXL flush must write
    back *exactly* the dirty lines: ``lines_flushed == dirty_before``
    and ``dirty_after == 0`` (clflush leaves nothing cached).

``lsn_monotone``
    Within one redo log, appended LSNs (``wal.append``) are strictly
    increasing — globally and therefore per page.

Event schema expected (unknown events are ignored, so traces may carry
arbitrary additional subsystems):

=========================  ==================================================
event key                  fields used
=========================  ==================================================
``fusion.invalidate_push`` ``page``, ``target`` (and ``writer``, unused)
``sharing.page_access``    ``node``, ``page``, ``saw_invalid``
``sharing.drop``           ``node``, ``page``
``sharing.flush``          ``node``, ``page``, ``dirty_before``,
                           ``lines_flushed``, ``dirty_after``
``rdma.flush_page``        ``node``, ``page``
``lock.write_acquire``     ``node``, ``page``
``lock.write_release``     ``node``, ``page``
``wal.append``             ``log``, ``page``, ``lsn``
=========================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional, Union

from .spans import STATUS_ABANDONED, STATUS_CLOSED, Span, SpanLog, SpanTracer
from .trace import TraceEvent, Tracer, in_seq_order

__all__ = [
    "Violation",
    "InvariantViolationError",
    "TraceInvariantChecker",
    "assert_trace_invariants",
    "SpanCheckStats",
    "check_span_invariants",
    "assert_span_invariants",
]

# Subsystems the checker's correctness depends on: a dropped event here
# could hide a violation, so assert_trace_invariants refuses such traces.
PROTOCOL_SUBSYSTEMS = ("fusion", "sharing", "lock", "wal", "rdma")


@dataclass(frozen=True)
class Violation:
    """One invariant broken at one point of the trace."""

    invariant: str
    seq: int
    detail: str


class InvariantViolationError(AssertionError):
    """The trace breaks one or more protocol invariants."""

    def __init__(self, violations: list[Violation]) -> None:
        lines = "\n".join(
            f"  [{v.invariant}] @#{v.seq}: {v.detail}" for v in violations
        )
        super().__init__(
            f"{len(violations)} trace invariant violation(s):\n{lines}"
        )
        self.violations = violations


@dataclass
class CheckStats:
    """How much the checker actually verified (guards trivial passes)."""

    events: int = 0
    accesses_checked: int = 0
    invalidations_tracked: int = 0
    releases_checked: int = 0
    flushes_checked: int = 0
    appends_checked: int = 0
    violations: list[Violation] = field(default_factory=list)


class TraceInvariantChecker:
    """Single-pass replay of an event stream against the §3.3 invariants."""

    def __init__(self) -> None:
        self.stats = CheckStats()
        # (node, page) -> seq of the oldest unacknowledged invalid push
        self._pending_invalid: dict[tuple, int] = {}
        # (node, page) -> flush seen since the open write_acquire?
        self._open_write_locks: dict[tuple, bool] = {}
        # log id -> last appended LSN
        self._last_lsn: dict[object, int] = {}

    def check(self, source: Union[Tracer, Iterable[TraceEvent]]) -> list[Violation]:
        """Replay ``source`` — a tracer's buffered events, or any
        iterable of events in emission order — and return the violations."""
        if isinstance(source, Tracer):
            return self._check_columns(source)
        for event in source:
            self.stats.events += 1
            kind = _HANDLERS.get(event.key)
            if kind is not None:
                handler, wants = kind
                fields = event.fields
                handler(
                    self,
                    event.seq,
                    *[fields[want] for want in wants if want in fields or want not in _OPTIONAL],
                )
        return self.stats.violations

    def _check_columns(self, tracer: Tracer) -> list[Violation]:
        """:meth:`check` over the tracer's rings: only the events a
        handler reads are merged into emission order, and each hands its
        handler the fields it takes straight from the packed values."""
        parts = tracer.rows(tuple(tracer.subsystems()))
        rings = [ring for _, ring, _, _ in parts]
        # Per part, per name code: [handler, fields it takes, getter by shape].
        kinds = [
            [
                None if kind is None else [*kind, {}]
                for kind in (_HANDLERS.get(f"{subsystem}.{name}") for name in tracer.names)
            ]
            for subsystem, _, _, _ in parts
        ]
        self.stats.events += sum(end - first for _, _, first, end in parts)
        for seq, index, row in in_seq_order(tracer.capacity_per_subsystem, parts, kinds):
            ring = rings[index]
            handler, wants, getters = kinds[index][ring.name[row]]
            shape = ring.shape[row]
            getter = getters.get(shape)
            if getter is None:
                getter = getters[shape] = _getter(tracer.shapes[shape], wants)
            handler(self, seq, *getter(ring.values[row]))
        return self.stats.violations

    # -- handlers -------------------------------------------------------------------

    def _violate(self, invariant: str, seq: int, detail: str) -> None:
        self.stats.violations.append(Violation(invariant, seq, detail))

    def _on_invalidate_push(self, seq: int, target: object, page: int) -> None:
        self._pending_invalid.setdefault((target, page), seq)
        self.stats.invalidations_tracked += 1

    def _on_page_access(
        self, seq: int, node: object, page: int, saw_invalid: object = None
    ) -> None:
        key = (node, page)
        pushed_at = self._pending_invalid.pop(key, None)
        self.stats.accesses_checked += 1
        if pushed_at is not None and not saw_invalid:
            self._violate(
                "no_stale_read",
                seq,
                f"node {node!r} accessed page {page} without observing "
                f"the invalid flag pushed at #{pushed_at} — stale CPU-cache "
                "lines may have served the read",
            )

    def _on_drop(self, seq: int, node: object, page: int) -> None:
        key = (node, page)
        self._pending_invalid.pop(key, None)
        self._open_write_locks.pop(key, None)

    def _on_write_acquire(self, seq: int, node: object, page: int) -> None:
        self._open_write_locks[(node, page)] = False

    def _on_flush(
        self,
        seq: int,
        node: object,
        page: int,
        dirty_before: int,
        lines_flushed: int,
        dirty_after: int,
    ) -> None:
        key = (node, page)
        self.stats.flushes_checked += 1
        if key in self._open_write_locks:
            self._open_write_locks[key] = True
        if lines_flushed != dirty_before:
            self._violate(
                "flush_on_write_release",
                seq,
                f"node {node!r} page {page}: flushed {lines_flushed} "
                f"lines but {dirty_before} were dirty — the release must "
                "write back exactly the modified 64 B lines",
            )
        if dirty_after != 0:
            self._violate(
                "flush_on_write_release",
                seq,
                f"node {node!r} page {page}: {dirty_after} dirty lines "
                "survived the release flush",
            )

    def _on_rdma_flush(self, seq: int, node: object, page: int) -> None:
        key = (node, page)
        self.stats.flushes_checked += 1
        if key in self._open_write_locks:
            self._open_write_locks[key] = True

    def _on_write_release(self, seq: int, node: object, page: int) -> None:
        self.stats.releases_checked += 1
        flushed = self._open_write_locks.pop((node, page), None)
        if flushed is None:
            self._violate(
                "flush_on_write_release",
                seq,
                f"node {node!r} released a write lock on page {page} "
                "it never acquired in this trace",
            )
        elif not flushed:
            self._violate(
                "flush_on_write_release",
                seq,
                f"node {node!r} released the write lock on page {page} "
                "without flushing its modifications",
            )

    def _on_wal_append(self, seq: int, log: object, lsn: int, page: int) -> None:
        self.stats.appends_checked += 1
        last = self._last_lsn.get(log)
        if last is not None and lsn <= last:
            self._violate(
                "lsn_monotone",
                seq,
                f"log {log!r}: LSN {lsn} appended after {last} (page {page})",
            )
        if last is None or lsn > last:
            self._last_lsn[log] = lsn


#: Event key -> (handler, the fields it takes, in parameter order). Every
#: handler takes at least two fields that must be present; a field in
#: ``_OPTIONAL`` may be absent, and the handler's default stands in.
_HANDLERS = {
    "fusion.invalidate_push": (TraceInvariantChecker._on_invalidate_push, ("target", "page")),
    "sharing.page_access": (
        TraceInvariantChecker._on_page_access,
        ("node", "page", "saw_invalid"),
    ),
    "sharing.drop": (TraceInvariantChecker._on_drop, ("node", "page")),
    "sharing.flush": (
        TraceInvariantChecker._on_flush,
        ("node", "page", "dirty_before", "lines_flushed", "dirty_after"),
    ),
    "rdma.flush_page": (TraceInvariantChecker._on_rdma_flush, ("node", "page")),
    "lock.write_acquire": (TraceInvariantChecker._on_write_acquire, ("node", "page")),
    "lock.write_release": (TraceInvariantChecker._on_write_release, ("node", "page")),
    "wal.append": (TraceInvariantChecker._on_wal_append, ("log", "lsn", "page")),
}
_OPTIONAL = frozenset({"saw_invalid"})


def _getter(keys: tuple[str, ...], wants: tuple[str, ...]) -> Callable[[object], tuple]:
    """From the packed values of an event with fields ``keys`` to the
    ``wants`` a handler takes (``KeyError`` if a required one is absent).

    Two or more present fields, so the values are a tuple and so is what
    the getter returns.
    """
    positions = []
    for want in wants:
        if want in keys:
            positions.append(keys.index(want))
        elif want not in _OPTIONAL:
            raise KeyError(want)
    return itemgetter(*positions)


def assert_trace_invariants(
    source: Union[Tracer, Iterable[TraceEvent]],
) -> CheckStats:
    """Check a tracer (or raw event list); raise on any violation.

    When given a :class:`Tracer`, also refuses traces whose protocol
    subsystems overflowed their rings — lost events could hide
    violations, so such a run must be re-traced with a larger capacity.
    Returns the checker's :class:`CheckStats` so callers can assert the
    trace was non-trivial (e.g. ``stats.releases_checked > 0``).
    """
    if isinstance(source, Tracer):
        lost = {
            subsystem: count
            for subsystem, count in source.dropped.items()
            if subsystem in PROTOCOL_SUBSYSTEMS and count
        }
        if lost:
            raise InvariantViolationError(
                [
                    Violation(
                        "trace_complete",
                        0,
                        f"protocol events dropped from full rings: {lost}; "
                        "raise Tracer(capacity_per_subsystem=...)",
                    )
                ]
            )
    else:
        source = list(source)
    checker = TraceInvariantChecker()
    violations = checker.check(source)
    if violations:
        raise InvariantViolationError(violations)
    return checker.stats


# ---------------------------------------------------------------------------
# Span-balance invariants (repro.obs.spans)
# ---------------------------------------------------------------------------


@dataclass
class SpanCheckStats:
    """What the span checker verified (guards trivial passes)."""

    spans: int = 0
    closed: int = 0
    abandoned: int = 0
    violations: list[Violation] = field(default_factory=list)


def check_span_invariants(
    source: Union["SpanTracer", Iterable["Span"]],
    allow_abandoned: bool = False,
) -> SpanCheckStats:
    """Verify span well-formedness; violations collected, not raised.

    The span-balance invariant: every recorded span was *ended* — closed
    by matching :meth:`~repro.obs.spans.SpanTracer.end`, or explicitly
    marked ``abandoned`` by crash handling
    (:meth:`~repro.obs.spans.SpanTracer.abandon_open`). Additionally:

    * a span's parent exists and was begun before it,
    * nesting is well-formed: no closed span outlives its closed parent
      (children end before the parent, in end order and in simulated
      time).

    ``allow_abandoned`` is for fault-injected runs, where the spans that
    were open at the crash legitimately never end.

    One pass over the log's columns. A tracer's rows carry consecutive
    ids, so a parent's row is its id minus the log's base; any other
    iterable of spans is first loaded into a log with explicit ids,
    whose rows are indexed as the walk reaches them.
    """
    log = source.log if isinstance(source, SpanTracer) else SpanLog.load(source)
    stats = SpanCheckStats()
    violations = stats.violations
    base, ids = log.base, log.ids
    index: Optional[dict[int, int]] = None if ids is None else {}
    parents, statuses = log.parent_id, log.status
    end_seqs, t1s = log.end_seq, log.t1
    for row in range(len(log)):
        stats.spans += 1
        if ids is None:
            sid = base + row
        else:
            sid = ids[row]
            index[sid] = row
        status = statuses[row]
        if status == STATUS_CLOSED:
            stats.closed += 1
        elif status == STATUS_ABANDONED:
            stats.abandoned += 1
            if not allow_abandoned:
                violations.append(
                    Violation(
                        "span_balance",
                        sid,
                        f"{_label(log, row)} abandoned in a crash-free "
                        "run (missing end())",
                    )
                )
        else:
            violations.append(
                Violation(
                    "span_balance",
                    sid,
                    f"{_label(log, row)} still open — a begin() "
                    "without a matching end() or abandon_open()",
                )
            )
        parent_id = parents[row]
        if not parent_id:
            continue
        if index is None:
            prow = parent_id - base
            if not 0 <= prow <= row:
                prow = None
        else:
            prow = index.get(parent_id)
        if prow is None:
            violations.append(
                Violation(
                    "span_parent",
                    sid,
                    f"{_label(log, row)} references parent "
                    f"#{parent_id}, which was never begun (or begun later)",
                )
            )
            continue
        if status == STATUS_CLOSED and statuses[prow] == STATUS_CLOSED:
            if end_seqs[row] > end_seqs[prow] or t1s[row] > t1s[prow]:
                violations.append(
                    Violation(
                        "span_nesting",
                        sid,
                        f"{_label(log, row)} outlives its parent "
                        f"#{parent_id} ({_label(log, prow)})",
                    )
                )
    return stats


def _label(log: SpanLog, row: int) -> str:
    return f"{log.kinds[log.kind[row]]}:{log.names[row]}"


def assert_span_invariants(
    source: Union["SpanTracer", Iterable["Span"]],
    allow_abandoned: bool = False,
) -> SpanCheckStats:
    """Check span balance/nesting; raise on any violation.

    Returns :class:`SpanCheckStats` so callers can assert the check was
    non-trivial (e.g. ``stats.closed > 0``).
    """
    stats = check_span_invariants(source, allow_abandoned=allow_abandoned)
    if stats.violations:
        raise InvariantViolationError(stats.violations)
    return stats
