"""Critical-path decomposition of span trees into mechanism buckets.

Given a :class:`~repro.obs.spans.SpanTracer` full of closed spans, this
module answers the paper's §4.4 question quantitatively: of each
transaction's commit latency, how many nanoseconds went to lock waits,
cache-line flushes, RPCs, WAL appends, CXL accesses, ...?

Attribution semantics (DESIGN.md §9):

* a span's **self-time** is its duration minus the summed durations of
  its direct children — time the mechanism itself was responsible for;
* fine-grained ``costs`` recorded via
  :meth:`~repro.obs.spans.SpanTracer.add_ns` (memory line fills,
  coherency flag reads) are carved out of the self-time of the span
  they were charged under and credited to their own bucket;
* the *root* span's self-time is reported as ``unattributed`` — it is
  exactly the latency the instrumentation failed to explain, so
  coverage is honest by construction.

Because child durations telescope, the bucket totals for one
transaction sum to its measured wall latency (up to the integer
truncation the simulator applies when turning charges into timeouts;
negative self-times from that truncation are clamped to zero).
"""

from __future__ import annotations

from typing import Iterable, Union

from ..sim.stats import LatencyRecorder
from .spans import Span, SpanTracer

__all__ = [
    "MechanismBreakdown",
    "UNATTRIBUTED",
    "decompose",
    "summarize",
]

UNATTRIBUTED = "unattributed"


class MechanismBreakdown:
    """Aggregated per-mechanism latency buckets over a set of root spans.

    ``buckets`` maps mechanism kind → total ns across all roots;
    ``per_txn`` maps kind → a :class:`LatencyRecorder` of per-root ns
    (for p50/p95/p99); ``latency`` records per-root total ns.
    """

    def __init__(self) -> None:
        self.txns = 0
        self.total_ns = 0.0
        self.buckets: dict[str, float] = {}
        self.per_txn: dict[str, LatencyRecorder] = {}
        self.latency = LatencyRecorder()

    def _absorb(self, root_ns: float, txn_buckets: dict[str, float]) -> None:
        self.txns += 1
        self.total_ns += root_ns
        self.latency.add(root_ns)
        for kind, ns in txn_buckets.items():
            self.buckets[kind] = self.buckets.get(kind, 0.0) + ns
            recorder = self.per_txn.get(kind)
            if recorder is None:
                recorder = self.per_txn[kind] = LatencyRecorder()
            recorder.add(ns)

    def merge(self, other: "MechanismBreakdown") -> "MechanismBreakdown":
        """Fold another breakdown in (e.g. runs at different share pcts)."""
        self.txns += other.txns
        self.total_ns += other.total_ns
        self.latency.merge(other.latency)
        for kind, ns in other.buckets.items():
            self.buckets[kind] = self.buckets.get(kind, 0.0) + ns
        for kind, recorder in other.per_txn.items():
            mine = self.per_txn.get(kind)
            if mine is None:
                mine = self.per_txn[kind] = LatencyRecorder()
            mine.merge(recorder)
        return self

    @property
    def attributed_ns(self) -> float:
        return sum(
            ns for kind, ns in self.buckets.items() if kind != UNATTRIBUTED
        )

    @property
    def coverage(self) -> float:
        """Fraction of root latency explained by mechanism buckets."""
        if self.total_ns <= 0.0:
            return 1.0
        return min(1.0, self.attributed_ns / self.total_ns)

    def fraction(self, kind: str) -> float:
        if self.total_ns <= 0.0:
            return 0.0
        return self.buckets.get(kind, 0.0) / self.total_ns

    def kinds(self) -> list[str]:
        """Bucket kinds, largest total first (unattributed last)."""
        ranked = sorted(
            (kind for kind in self.buckets if kind != UNATTRIBUTED),
            key=lambda kind: -self.buckets[kind],
        )
        if UNATTRIBUTED in self.buckets:
            ranked.append(UNATTRIBUTED)
        return ranked


def _children_index(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        parent = span.parent_id
        if parent is not None:
            children.setdefault(parent, []).append(span)
    return children


def decompose(
    root: Span, children: dict[int, list[Span]]
) -> dict[str, float]:
    """One root span's subtree → mechanism-kind buckets (ns).

    The root's own self-time becomes ``unattributed``; every descendant
    contributes its self-time to its kind and its ``costs`` to theirs.
    """
    buckets: dict[str, float] = {}
    pending = [root]
    while pending:
        span = pending.pop()
        kids = children.get(span.span_id)
        child_ns = 0.0
        if kids:
            pending.extend(kids)
            for kid in kids:
                child_ns += kid.ns
        self_ns = span.ns - child_ns
        if span.costs:
            for kind, ns in span.costs.items():
                buckets[kind] = buckets.get(kind, 0.0) + ns
                self_ns -= ns
        if self_ns < 0.0:
            self_ns = 0.0
        key = UNATTRIBUTED if span is root else span.kind
        buckets[key] = buckets.get(key, 0.0) + self_ns
    return buckets


def summarize(source: Union[SpanTracer, Iterable[Span]]) -> MechanismBreakdown:
    """Decompose every closed root span and aggregate the buckets.

    Roots are parentless closed ``txn`` spans. Abandoned
    subtrees (crashes) are excluded — a transaction that never
    committed has no commit latency to attribute.
    """
    spans = list(source.spans() if isinstance(source, SpanTracer) else source)
    children = _children_index(spans)
    breakdown = MechanismBreakdown()
    for span in spans:
        if (
            span.parent_id is None
            and span.kind == "txn"
            and span.status == "closed"
        ):
            breakdown._absorb(span.ns, decompose(span, children))
    return breakdown
