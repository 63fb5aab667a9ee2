"""Invariant-checker unit tests over fabricated traces.

Each violation class gets a hand-built trace that breaks exactly one
invariant, plus the minimal edit that makes the same trace legal — the
checker must flag the former and pass the latter.
"""

import pytest

from repro.obs import (
    InvariantViolationError,
    TraceInvariantChecker,
    Tracer,
    assert_trace_invariants,
)


def _tracer(*steps):
    """A tracer holding (subsystem, name, fields) events."""
    tracer = Tracer()
    for subsystem, name, fields in steps:
        tracer.emit(subsystem, name, **fields)
    return tracer


def _trace(*steps):
    """Build a TraceEvent list from (subsystem, name, fields) tuples."""
    return _tracer(*steps).events()


def _checked_both_ways(tracer):
    """The checker's verdict walking the tracer's columns, which must
    equal its verdict and stats over the tracer's events as a list."""
    by_columns, by_events = TraceInvariantChecker(), TraceInvariantChecker()
    violations = by_columns.check(tracer)
    assert violations == by_events.check(list(tracer.events()))
    assert by_columns.stats == by_events.stats
    return violations, by_columns.stats


def _violations(*steps):
    return _checked_both_ways(_tracer(*steps))[0]


GOOD_FLUSH = {"dirty_before": 3, "lines_flushed": 3, "dirty_after": 0}


class TestNoStaleRead:
    def test_access_ignoring_invalid_flag_is_flagged(self):
        violations = _violations(
            ("fusion", "invalidate_push", {"page": 5, "writer": "n1", "target": "n0"}),
            ("sharing", "page_access",
             {"node": "n0", "page": 5, "saw_invalid": False, "registered": False}),
        )
        assert [v.invariant for v in violations] == ["no_stale_read"]
        assert "stale" in violations[0].detail

    def test_access_observing_flag_passes(self):
        assert not _violations(
            ("fusion", "invalidate_push", {"page": 5, "writer": "n1", "target": "n0"}),
            ("sharing", "page_access",
             {"node": "n0", "page": 5, "saw_invalid": True, "registered": False}),
        )

    def test_only_the_targeted_node_is_constrained(self):
        assert not _violations(
            ("fusion", "invalidate_push", {"page": 5, "writer": "n1", "target": "n0"}),
            ("sharing", "page_access",
             {"node": "n2", "page": 5, "saw_invalid": False, "registered": False}),
        )

    def test_drop_resets_tracking(self):
        # Deregistering drops the cached lines; a later re-registration
        # fetches fresh bytes, so the pending flag no longer applies.
        assert not _violations(
            ("fusion", "invalidate_push", {"page": 5, "writer": "n1", "target": "n0"}),
            ("sharing", "drop", {"node": "n0", "page": 5}),
            ("sharing", "page_access",
             {"node": "n0", "page": 5, "saw_invalid": False, "registered": True}),
        )

    def test_second_access_after_acknowledging_is_free(self):
        assert not _violations(
            ("fusion", "invalidate_push", {"page": 5, "writer": "n1", "target": "n0"}),
            ("sharing", "page_access",
             {"node": "n0", "page": 5, "saw_invalid": True, "registered": False}),
            ("sharing", "page_access",
             {"node": "n0", "page": 5, "saw_invalid": False, "registered": False}),
        )


class TestFlushOnWriteRelease:
    def test_release_without_flush_is_flagged(self):
        violations = _violations(
            ("lock", "write_acquire", {"node": "n0", "page": 9}),
            ("lock", "write_release", {"node": "n0", "page": 9}),
        )
        assert [v.invariant for v in violations] == ["flush_on_write_release"]
        assert "without flushing" in violations[0].detail

    def test_release_after_flush_passes(self):
        assert not _violations(
            ("lock", "write_acquire", {"node": "n0", "page": 9}),
            ("sharing", "flush", {"node": "n0", "page": 9, **GOOD_FLUSH}),
            ("lock", "write_release", {"node": "n0", "page": 9}),
        )

    def test_rdma_page_flush_also_satisfies_release(self):
        assert not _violations(
            ("lock", "write_acquire", {"node": "n0", "page": 9}),
            ("rdma", "flush_page", {"node": "n0", "page": 9}),
            ("lock", "write_release", {"node": "n0", "page": 9}),
        )

    def test_flush_of_other_page_does_not_satisfy(self):
        violations = _violations(
            ("lock", "write_acquire", {"node": "n0", "page": 9}),
            ("sharing", "flush", {"node": "n0", "page": 8, **GOOD_FLUSH}),
            ("lock", "write_release", {"node": "n0", "page": 9}),
        )
        assert [v.invariant for v in violations] == ["flush_on_write_release"]

    def test_release_without_acquire_is_flagged(self):
        violations = _violations(
            ("lock", "write_release", {"node": "n0", "page": 9}),
        )
        assert [v.invariant for v in violations] == ["flush_on_write_release"]
        assert "never acquired" in violations[0].detail

    def test_partial_flush_is_flagged(self):
        violations = _violations(
            ("sharing", "flush",
             {"node": "n0", "page": 9,
              "dirty_before": 4, "lines_flushed": 2, "dirty_after": 2}),
        )
        kinds = [v.invariant for v in violations]
        assert kinds == ["flush_on_write_release"] * 2  # wrong count + residue

    def test_over_flush_is_flagged(self):
        violations = _violations(
            ("sharing", "flush",
             {"node": "n0", "page": 9,
              "dirty_before": 1, "lines_flushed": 5, "dirty_after": 0}),
        )
        assert [v.invariant for v in violations] == ["flush_on_write_release"]


class TestLsnMonotone:
    def test_decreasing_lsn_is_flagged(self):
        violations = _violations(
            ("wal", "append", {"log": 1, "page": 3, "lsn": 10}),
            ("wal", "append", {"log": 1, "page": 4, "lsn": 9}),
        )
        assert [v.invariant for v in violations] == ["lsn_monotone"]

    def test_repeated_lsn_is_flagged(self):
        violations = _violations(
            ("wal", "append", {"log": 1, "page": 3, "lsn": 10}),
            ("wal", "append", {"log": 1, "page": 3, "lsn": 10}),
        )
        assert [v.invariant for v in violations] == ["lsn_monotone"]

    def test_increasing_lsns_pass(self):
        assert not _violations(
            ("wal", "append", {"log": 1, "page": 3, "lsn": 10}),
            ("wal", "append", {"log": 1, "page": 4, "lsn": 11}),
        )

    def test_logs_are_independent(self):
        assert not _violations(
            ("wal", "append", {"log": 1, "page": 3, "lsn": 10}),
            ("wal", "append", {"log": 2, "page": 3, "lsn": 5}),
        )


class TestAssertTraceInvariants:
    def test_raises_with_all_violations(self):
        tracer = _tracer(
            ("lock", "write_release", {"node": "n0", "page": 1}),
            ("wal", "append", {"log": 1, "page": 1, "lsn": 5}),
            ("wal", "append", {"log": 1, "page": 1, "lsn": 5}),
        )
        assert len(_checked_both_ways(tracer)[0]) == 2
        events = tracer.events()
        with pytest.raises(InvariantViolationError) as excinfo:
            assert_trace_invariants(events)
        assert len(excinfo.value.violations) == 2
        assert isinstance(excinfo.value, AssertionError)

    def test_returns_stats_for_clean_trace(self):
        tracer = Tracer()
        tracer.emit("lock", "write_acquire", node="n0", page=1)
        tracer.emit("sharing", "flush", node="n0", page=1, **GOOD_FLUSH)
        tracer.emit("lock", "write_release", node="n0", page=1)
        tracer.emit("wal", "append", log=1, page=1, lsn=1)
        stats = assert_trace_invariants(tracer)
        assert stats.events == 4
        assert stats.releases_checked == 1
        assert stats.flushes_checked == 1
        assert stats.appends_checked == 1

    def test_unknown_events_are_ignored(self):
        stats = assert_trace_invariants(
            _trace(("custom", "thing", {"x": 1}), ("mem", "access", {}))
        )
        assert stats.events == 2
        assert stats.accesses_checked == 0

    def test_dropped_protocol_events_rejected(self):
        tracer = Tracer(capacity_per_subsystem=2)
        for lsn in range(1, 5):
            tracer.emit("wal", "append", log=1, page=1, lsn=lsn)
        with pytest.raises(InvariantViolationError) as excinfo:
            assert_trace_invariants(tracer)
        assert excinfo.value.violations[0].invariant == "trace_complete"

    def test_dropped_non_protocol_events_tolerated(self):
        tracer = Tracer(capacity_per_subsystem=2)
        for _ in range(5):
            tracer.emit("mem", "access")
        assert assert_trace_invariants(tracer).events == 2


class TestColumnWalk:
    def test_a_stress_schedule_checks_the_same_by_columns_and_by_events(self):
        import random

        from repro.analysis.checked import CommittedState
        from repro.obs.world import build_sharing_setup
        from repro.parallel.stress import _NODES, _ROWS, _run_schedule
        from repro.workloads.sysbench import SysbenchWorkload

        keys = range(1, _ROWS + 1)
        setup = build_sharing_setup("cxl", _NODES, SysbenchWorkload(rows=_ROWS, n_nodes=_NODES))
        oracle = CommittedState(SysbenchWorkload.loaded_row)
        with Tracer() as tracer:
            _run_schedule(setup, random.Random(1000), oracle, keys)
        violations, stats = _checked_both_ways(tracer)
        assert violations == []
        assert stats.accesses_checked > 0 and stats.releases_checked > 0
        assert stats.appends_checked > 0 and stats.invalidations_tracked > 0

    def test_wrapped_rings_check_the_same_by_columns_and_by_events(self):
        tracer = Tracer(capacity_per_subsystem=3)
        for lsn in (5, 4, 6, 7, 7, 8):
            tracer.emit("mem", "access", line=lsn)
            tracer.emit("wal", "append", log=1, page=2, lsn=lsn)
        violations, stats = _checked_both_ways(tracer)
        assert [v.seq for v in violations] == [10]
        assert stats.events == 6
