"""Unit tests for the causal span tracer (repro.obs.spans)."""

import pytest

from repro.hardware.memory import AccessMeter
from repro.obs.invariants import (
    InvariantViolationError,
    assert_span_invariants,
    check_span_invariants,
)
from repro.obs.probes import PROBES
from repro.obs.spans import SpanTracer


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# -- begin / end ------------------------------------------------------------------


def test_wall_duration_from_attached_clock():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    span = tracer.begin("txn", "t")
    clock.now = 1500.0
    tracer.end(span)
    assert span.status == "closed"
    assert span.ns == 1500.0
    assert span.t1 - span.t0 == 1500.0


def test_charged_duration_from_meter_when_no_time_passes():
    meter = AccessMeter()
    tracer = SpanTracer()
    span = tracer.begin("mtr", "m", meter=meter)
    meter.ns += 700.0
    tracer.end(span)
    assert span.ns == 700.0
    assert span.t1 == span.t0


def test_wall_duration_wins_over_charged():
    clock = FakeClock()
    meter = AccessMeter()
    tracer = SpanTracer(clock=clock)
    span = tracer.begin("mtr", "m", meter=meter)
    meter.ns += 700.0
    clock.now = 100.0  # simulated time passed: wall is authoritative
    tracer.end(span)
    assert span.ns == 100.0


def test_end_is_idempotent_and_merges_fields():
    tracer = SpanTracer()
    span = tracer.begin("rpc", "r", page=3)
    tracer.end(span, retries=2)
    ns = span.ns
    tracer.end(span, retries=99)  # already closed: no-op
    assert span.fields == {"page": 3, "retries": 2}
    assert span.ns == ns


def test_parent_defaults_to_stack_top():
    tracer = SpanTracer()
    root = tracer.begin("txn", "t")
    child = tracer.begin("mtr", "m")
    assert child.parent_id == root.span_id
    tracer.end(child)
    tracer.end(root)
    assert root.parent_id is None


def test_end_pops_and_abandons_orphans_above():
    tracer = SpanTracer()
    root = tracer.begin("txn", "t")
    orphan = tracer.begin("page_fix", "leaked")
    tracer.end(root)  # orphan was never ended
    assert orphan.status == "abandoned"
    assert root.status == "closed"
    assert tracer.attach_stack() == ()


# -- record / add_ns --------------------------------------------------------------


def test_record_retroactive_with_ns():
    clock = FakeClock(5000.0)
    tracer = SpanTracer(clock=clock)
    span = tracer.record("lock_wait", "write", ns=800.0, page=4)
    assert span.status == "closed"
    assert span.ns == 800.0
    assert (span.t0, span.t1) == (4200.0, 5000.0)
    assert span.fields == {"page": 4}


def test_record_retroactive_with_t0():
    clock = FakeClock(5000.0)
    tracer = SpanTracer(clock=clock)
    span = tracer.record("pipe_wait", "settle", t0=3000.0)
    assert span.ns == 2000.0


def test_add_ns_accumulates_into_top_of_stack():
    tracer = SpanTracer()
    span = tracer.begin("page_fix", "get")
    tracer.add_ns("cxl_access", 250.0)
    tracer.add_ns("cxl_access", 50.0)
    tracer.add_ns("dram_access", 10.0)
    tracer.end(span)
    assert span.costs == {"cxl_access": 300.0, "dram_access": 10.0}


def test_add_ns_dropped_when_stack_empty():
    tracer = SpanTracer()
    tracer.add_ns("cxl_access", 250.0)  # must not raise
    assert tracer.spans() == []


# -- cross-yield attach ------------------------------------------------------------


def test_push_false_with_attached_segments():
    tracer = SpanTracer()
    op = tracer.begin("txn", "op", push=False)
    assert tracer.attach_stack() == ()  # not on the stack
    with tracer.attached(op):
        inner = tracer.begin("mtr", "m")
        tracer.end(inner)
    assert inner.parent_id == op.span_id
    assert tracer.attach_stack() == ()
    tracer.end(op)
    assert op.status == "closed"


def test_attached_none_is_shared_null_context():
    null = PROBES.attached(None)
    with null:
        pass
    with SpanTracer() as tracer:
        assert PROBES.attached(None) is null  # no span to attach
        op = tracer.begin("txn", "op", push=False)
        with PROBES.attached(op):
            assert tracer.attach_stack()[-1] is op
        assert tracer.attach_stack() == ()
    assert PROBES.attached(op) is null  # tracing is off again


# -- crash handling ----------------------------------------------------------------


def test_abandon_open_marks_all_open_spans():
    tracer = SpanTracer()
    root = tracer.begin("txn", "t")
    child = tracer.begin("mtr", "m")
    done = tracer.begin("rpc", "r")
    tracer.end(done)
    assert tracer.abandon_open() == 2
    assert (root.status, child.status) == ("abandoned", "abandoned")
    assert done.status == "closed"
    assert tracer.attach_stack() == ()
    assert tracer.abandon_open() == 0  # idempotent: nothing is open any more


def test_clear_refuses_with_spans_attached():
    tracer = SpanTracer()
    tracer.begin("txn", "t")
    with pytest.raises(RuntimeError, match="still attached"):
        tracer.clear()


# -- installation ------------------------------------------------------------------


def test_install_conflict_and_idempotent_uninstall():
    first = SpanTracer()
    with first:
        assert PROBES.spans is first
        assert first.__enter__() is first  # re-installing self is fine
        with pytest.raises(RuntimeError, match="already installed"):
            SpanTracer().__enter__()
        with pytest.raises(RuntimeError, match="different SpanTracer"):
            PROBES.uninstall("spans", SpanTracer())
    assert PROBES.spans is None
    PROBES.uninstall("spans")  # idempotent


# -- invariant checker -------------------------------------------------------------


def test_span_invariants_clean_run():
    tracer = SpanTracer()
    root = tracer.begin("txn", "t")
    child = tracer.begin("mtr", "m")
    tracer.end(child)
    tracer.end(root)
    stats = assert_span_invariants(tracer)
    assert (stats.spans, stats.closed, stats.abandoned) == (2, 2, 0)


def test_span_invariants_flag_open_span():
    tracer = SpanTracer()
    tracer.begin("txn", "t")
    stats = check_span_invariants(tracer)
    assert [v.invariant for v in stats.violations] == ["span_balance"]
    with pytest.raises(InvariantViolationError, match="still open"):
        assert_span_invariants(tracer)


def test_span_invariants_abandoned_needs_allowance():
    tracer = SpanTracer()
    tracer.begin("txn", "t")
    tracer.abandon_open()
    with pytest.raises(InvariantViolationError, match="crash-free"):
        assert_span_invariants(tracer)
    stats = assert_span_invariants(tracer, allow_abandoned=True)
    assert stats.abandoned == 1


def test_span_invariants_flag_child_outliving_parent():
    tracer = SpanTracer()
    parent = tracer.begin("txn", "t", push=False)
    child = tracer.begin("mtr", "m", parent=parent, push=False)
    tracer.end(parent)
    tracer.end(child)  # child ended after its parent
    stats = check_span_invariants([parent, child])
    assert [v.invariant for v in stats.violations] == ["span_nesting"]
    assert check_span_invariants(tracer).violations == stats.violations


def test_span_invariants_flag_unknown_parent():
    tracer = SpanTracer()
    ghost = tracer.begin("txn", "t", push=False)
    tracer.clear()  # the parent's row is dropped
    orphan = tracer.record("mtr", "m", parent=ghost)
    stats = check_span_invariants([orphan])
    assert [v.invariant for v in stats.violations] == ["span_parent"]
    assert check_span_invariants(tracer).violations == stats.violations
