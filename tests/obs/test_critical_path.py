"""Unit tests for the span → mechanism-bucket decomposition."""

from repro.obs.critical_path import (
    UNATTRIBUTED,
    MechanismBreakdown,
    decompose,
    summarize,
)
from repro.obs.spans import SpanTracer


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _traced_txn(total=1000.0, mtr=600.0, lock=150.0, cxl=100.0):
    """One closed txn root: mtr child (with cxl costs) + lock_wait."""
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    root = tracer.begin("txn", "t")
    child = tracer.begin("mtr", "m")
    tracer.add_ns("cxl_access", cxl)
    clock.now = mtr
    tracer.end(child)
    tracer.record("lock_wait", "write", ns=lock)
    clock.now = total
    tracer.end(root)
    return tracer


def test_decompose_self_time_costs_and_unattributed():
    tracer = _traced_txn()
    breakdown = summarize(tracer)
    assert breakdown.txns == 1
    assert breakdown.total_ns == 1000.0
    # mtr self-time = 600 - 100 carved out for cxl costs
    assert breakdown.buckets["mtr"] == 500.0
    assert breakdown.buckets["cxl_access"] == 100.0
    assert breakdown.buckets["lock_wait"] == 150.0
    # root self-time = 1000 - 600 - 150 → honest unattributed remainder
    assert breakdown.buckets[UNATTRIBUTED] == 250.0
    assert breakdown.coverage == 0.75
    assert breakdown.fraction("mtr") == 0.5
    # buckets telescope back to the root latency exactly
    assert sum(breakdown.buckets.values()) == breakdown.total_ns


def test_decompose_clamps_negative_self_time():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    root = tracer.begin("txn", "t")
    clock.now = 100.0
    # Child reported *more* than the root's width (integer-truncation
    # analogue): the root's self-time must clamp to 0, not go negative.
    child = tracer.record("mtr", "m", ns=150.0)
    tracer.end(root)
    children = {root.span_id: [child]}
    buckets = decompose(root, children)
    assert buckets[UNATTRIBUTED] == 0.0
    assert buckets["mtr"] == 150.0


def test_summarize_skips_abandoned_and_foreign_roots():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    crashed = tracer.begin("txn", "crashed")
    tracer.abandon_open()
    not_a_txn = tracer.begin("recovery_phase", "scan")
    clock.now = 50.0
    tracer.end(not_a_txn)
    assert crashed.status == "abandoned"
    breakdown = summarize(tracer)
    assert breakdown.txns == 0
    assert breakdown.total_ns == 0.0
    assert breakdown.coverage == 1.0  # vacuous, not a false alarm
    assert breakdown.fraction("mtr") == 0.0


def test_merge_combines_buckets_and_percentile_samples():
    first = summarize(_traced_txn(total=1000.0))
    second = summarize(_traced_txn(total=2000.0, mtr=900.0))
    merged = MechanismBreakdown().merge(first).merge(second)
    assert merged.txns == 2
    assert merged.total_ns == 3000.0
    assert merged.buckets["lock_wait"] == 300.0
    assert merged.per_txn["lock_wait"].count == 2
    assert merged.latency.percentile_ns(0.0) == 1000.0
    assert merged.latency.percentile_ns(100.0) == 2000.0


def test_kinds_ranked_by_total_with_unattributed_last():
    breakdown = summarize(_traced_txn())
    kinds = breakdown.kinds()
    assert kinds[0] == "mtr"  # largest bucket first
    assert kinds[-1] == UNATTRIBUTED
    assert set(kinds) == {"mtr", "cxl_access", "lock_wait", UNATTRIBUTED}
