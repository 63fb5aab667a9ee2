"""Unit tests for the CXL-MemSan happens-before machinery.

These drive the detector directly through its hook API — no simulator —
so each rule's firing condition and each synchronization edge is pinned
in isolation. Protocol-level detection (the seeded mutations) lives in
``test_memsan_protocol.py``.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memsan import (
    DIRTY,
    RDMA_PAGES,
    MemSan,
    MemSanError,
    vc_join,
    vc_leq,
)
from repro.obs.probes import PROBES

from .test_memsan_spec import SpecMemSan

REGION = "cxl.test"


def make() -> MemSan:
    ms = MemSan()
    ms.watch_region(REGION)
    return ms


def rules(ms: MemSan) -> list[str]:
    return [report.rule for report in ms.reports]


# -- vector clocks ---------------------------------------------------------


def test_vc_leq_is_pointwise():
    assert vc_leq({}, {})
    assert vc_leq({"a": 1}, {"a": 1})
    assert vc_leq({"a": 1}, {"a": 2, "b": 9})
    assert not vc_leq({"a": 2}, {"a": 1})
    # Missing entries count as zero on the right.
    assert not vc_leq({"a": 1}, {"b": 5})
    assert vc_leq({"a": 0}, {})


def test_vc_join_is_pointwise_max_in_place():
    dst = {"a": 1, "b": 4}
    out = vc_join(dst, {"a": 3, "c": 2})
    assert out is dst
    assert dst == {"a": 3, "b": 4, "c": 2}


# -- publish / fetch visibility -------------------------------------------


def test_flush_then_ordered_fill_is_clean():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 7)
        ms.cache_flush_line("n0$", REGION, 7, dirty=True)
        ms.flag_store(REGION, 100, True)
    with ms.actor("n1"):
        ms.flag_read(REGION, 100, True)  # acquire: sees the store
        ms.cache_load("n1$", REGION, 7, fetched=True)
    assert ms.reports == []
    assert ms.accesses_checked > 0


def test_unordered_fill_after_publish_reports_read_write_race():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 7)
        ms.cache_flush_line("n0$", REGION, 7, dirty=True)
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 7, fetched=True)  # no edge from n0
    assert rules(ms) == ["read-write-race"]
    report = ms.reports[0]
    assert report.actor == "n1" and report.other == "n0"
    assert report.line == 7 and report.region == REGION


def test_fill_while_dirty_elsewhere_reports_read_write_race():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 3)  # never flushed
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 3, fetched=True)
    assert rules(ms) == ["read-write-race"]
    assert "unflushed" in ms.reports[0].detail


def test_concurrent_stores_report_write_write_race():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 5)
    with ms.actor("n1"):
        ms.cache_store("n1$", REGION, 5)
    assert rules(ms) == ["write-write-race"]


def test_lock_handover_orders_stores():
    ms = make()
    with ms.actor("n0"):
        ms.lock_acquired("n0", 42)
        ms.cache_store("n0$", REGION, 5)
        ms.cache_flush_line("n0$", REGION, 5, dirty=True)
        ms.lock_released("n0", 42)
    with ms.actor("n1"):
        ms.lock_acquired("n1", 42)
        ms.cache_store("n1$", REGION, 5)
        ms.cache_flush_line("n1$", REGION, 5, dirty=True)
        ms.lock_released("n1", 42)
    assert ms.reports == []


def test_rpc_entry_exit_orders_raw_accesses():
    ms = make()
    with ms.actor("n0"):
        ms.rpc_acquire("fusion")
        ms.raw_store(REGION, 0, 64)
        ms.rpc_release("fusion")
    with ms.actor("n1"):
        ms.raw_load(REGION, 0, 64)  # unordered: n1 never entered the RPC
    assert rules(ms) == ["read-write-race"]

    ms = make()
    with ms.actor("n0"):
        ms.rpc_acquire("fusion")
        ms.raw_store(REGION, 0, 64)
        ms.rpc_release("fusion")
    with ms.actor("n1"):
        ms.rpc_acquire("fusion")
        ms.raw_load(REGION, 0, 64)
        ms.rpc_release("fusion")
    assert ms.reports == []


def test_raw_store_spanning_lines_checks_each_line():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 1)
    with ms.actor("n1"):
        # 64..192 covers lines 1 and 2; line 1 is dirty under n0.
        ms.raw_store(REGION, 64, 128)
    assert rules(ms) == ["write-write-race"]


def test_a_multi_line_raw_store_publishes_the_pre_tick_clock_on_every_line():
    ms = make()
    with ms.actor("n0"):
        ms.rpc_acquire("fusion")
        ms.rpc_release("fusion")  # n0's clock has moved past its first tick
        before = dict(ms._clock("n0"))
        ms.raw_store(REGION, 0, 4 * 64)
        ms.raw_store(REGION, 8 * 64, 64)  # ticks n0 again
    clocks = [ms.line_state(REGION, line).publish_vc for line in range(4)]
    assert clocks == [before] * 4
    assert all(clock is clocks[0] for clock in clocks)  # one snapshot per store
    assert ms.line_state(REGION, 8).publish_vc != before


def test_a_raw_store_checks_each_lines_own_publish():
    ms = make()
    with ms.actor("n1"):
        ms.cache_store("n1$", REGION, 0)
        ms.cache_flush_line("n1$", REGION, 0, dirty=True)
        ms.lock_released("n1", 42)
        ms.cache_store("n1$", REGION, 1)
        ms.cache_flush_line("n1$", REGION, 1, dirty=True)  # after the release
    with ms.actor("n0"):
        ms.lock_acquired("n0", 42)
        ms.raw_store(REGION, 0, 2 * 64)
    assert [(report.rule, report.line) for report in ms.reports] == [("write-write-race", 1)]


# -- staleness and the reader-side invalidation rules ----------------------


def test_stale_cached_serve_reports():
    ms = make()
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 2, fetched=True)  # holds version 0
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 2)
        ms.cache_flush_line("n0$", REGION, 2, dirty=True)  # version 1
        ms.flag_store(REGION, 100, True)
    with ms.actor("n1"):
        # Never reads the flag, serves the cached copy: stale.
        ms.cache_load("n1$", REGION, 2, fetched=False)
    assert rules(ms) == ["stale-cached-read"]
    assert "version 0" in ms.reports[0].detail


def test_invalidated_then_refetched_is_clean():
    ms = make()
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 2, fetched=True)
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 2)
        ms.cache_flush_line("n0$", REGION, 2, dirty=True)
        ms.flag_store(REGION, 100, True)
    with ms.actor("n1"):
        ms.flag_read(REGION, 100, True)
        ms.cache_invalidate_line("n1$", REGION, 2)
        ms.cache_load("n1$", REGION, 2, fetched=True)
        ms.cache_load("n1$", REGION, 2, fetched=False)  # now-current copy
    assert ms.reports == []


def test_preinstall_copy_is_adopted_not_reported():
    # A cached serve of a copy MemSan never saw being filled must adopt
    # the current version: the fill predates install.
    ms = make()
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 9, fetched=False)
    assert ms.reports == []


def test_assert_flushed_reports_surviving_dirty_line():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 4)
        ms.assert_flushed("n0$", REGION, 0, 64 * 8)
    assert rules(ms) == ["unflushed-write-at-release"]

    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 4)
        ms.cache_flush_line("n0$", REGION, 4, dirty=True)
        ms.assert_flushed("n0$", REGION, 0, 64 * 8)
    assert ms.reports == []


def test_invalid_cleared_with_stale_copy_reports():
    ms = make()
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 2, fetched=True)
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 2)
        ms.cache_flush_line("n0$", REGION, 2, dirty=True)
    with ms.actor("n1"):
        ms.invalid_cleared("n1$", REGION, 0, 64 * 4)
    assert rules(ms) == ["cleared-flag-before-invalidate"]

    ms = make()
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 2, fetched=True)
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 2)
        ms.cache_flush_line("n0$", REGION, 2, dirty=True)
    with ms.actor("n1"):
        ms.cache_invalidate_line("n1$", REGION, 2)
        ms.invalid_cleared("n1$", REGION, 0, 64 * 4)
    assert ms.reports == []


def test_own_dirty_copy_is_not_stale():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 2)
        ms.cache_load("n0$", REGION, 2, fetched=False)  # own DIRTY copy
    assert ms.reports == []
    state = ms.line_state(REGION, 2)
    assert state.cached["n0$"] == DIRTY


# -- write-after-read (opt-in) ---------------------------------------------


def test_write_after_read_off_by_default():
    ms = make()
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 6, fetched=True)
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 6)
    assert ms.reports == []


def test_write_after_read_opt_in_reports():
    ms = MemSan(check_write_after_read=True)
    ms.watch_region(REGION)
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 6, fetched=True)
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 6)
    assert "write-after-read-race" in rules(ms)


# -- crashes ---------------------------------------------------------------


def test_cache_dropped_clears_dirty_state():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 3)
    ms.cache_dropped("n0$")
    with ms.actor("n1"):
        ms.cache_load("n1$", REGION, 3, fetched=True)
    assert ms.reports == []


def test_actor_crashed_inheritor_sees_the_dead_nodes_publishes():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 3)
        ms.cache_flush_line("n0$", REGION, 3, dirty=True)
    ms.actor_crashed("n0", inheritor="failover")
    with ms.actor("failover"):
        ms.raw_store(REGION, 3 * 64, 64)  # rebuild: ordered after n0
    assert ms.reports == []


# -- RDMA page-granular tracking ------------------------------------------


def test_rdma_stale_page_read_reports():
    ms = MemSan()
    ms.page_fetch("n1", 12)
    ms.page_publish("n0", 12)
    ms.page_cached_read("n1", 12)
    assert rules(ms) == ["stale-page-read"]
    assert ms.reports[0].region == RDMA_PAGES


def test_rdma_refetch_and_drop_are_clean():
    ms = MemSan()
    ms.page_fetch("n1", 12)
    ms.page_publish("n0", 12)
    ms.page_fetch("n1", 12)  # invalidation observed: refetch
    ms.page_cached_read("n1", 12)
    ms.page_dropped("n1", 12)
    ms.page_publish("n0", 12)
    ms.page_fetch("n1", 12)  # dropped frame refetches; no stale serve
    ms.page_cached_read("n1", 12)
    assert ms.reports == []


# -- reporting and install protocol ---------------------------------------


def test_max_reports_caps_and_counts_dropped():
    ms = MemSan(max_reports=2)
    ms.watch_region(REGION)
    with ms.actor("n0"):
        for line in range(5):
            ms.cache_store("n0$", REGION, line)
    with ms.actor("n1"):
        for line in range(5):
            ms.cache_store("n1$", REGION, line)
    assert len(ms.reports) == 2
    assert ms.reports_dropped == 3
    with pytest.raises(MemSanError) as err:
        ms.check()
    assert "5 race report(s)" in str(err.value)


def test_check_passes_when_clean():
    make().check()


def test_report_str_mentions_rule_and_missing_edge():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 5)
    with ms.actor("n1"):
        ms.cache_store("n1$", REGION, 5)
    text = str(ms.reports[0])
    assert "write-write-race" in text
    assert "missing edge" in text


def test_install_protocol_is_exclusive_and_scoped():
    assert PROBES.memsan is None
    ms = MemSan()
    with ms:
        assert PROBES.memsan is ms
        with pytest.raises(RuntimeError):
            MemSan().__enter__()
        # scoped_actor targets the installed instance.
        with PROBES.scoped_actor("n0"):
            assert ms._ambient() == "n0"
        assert ms._ambient() is None
    assert PROBES.memsan is None
    PROBES.uninstall("memsan")  # idempotent


def test_scoped_actor_is_null_when_uninstalled():
    scope = PROBES.scoped_actor("n0")
    with scope:
        pass  # must be a no-op, not an error


def test_unwatched_region_is_ignored():
    ms = MemSan()
    with ms.actor("n0"):
        ms.cache_store("n0$", "other.region", 1)
        ms.raw_store("other.region", 0, 64)
    with ms.actor("n1"):
        ms.cache_store("n1$", "other.region", 1)
    assert ms.reports == []


def test_internal_scope_suppresses_raw_hooks():
    ms = make()
    with ms.actor("n0"):
        ms.cache_store("n0$", REGION, 1)
    with ms.actor("n1"), ms.internal():
        ms.raw_load(REGION, 64, 64)  # bookkeeping: not an access
    assert ms.reports == []


def test_watch_setup_watches_only_software_coherent_cxl():
    class Region:
        name = "cxl.pool"

    class Manager:
        region = Region()

    class Setup:
        def __init__(self, system):
            self.system = system
            self.manager = Manager()

    ms = MemSan()
    ms.watch_setup(Setup("cxl"))
    assert "cxl.pool" in ms._watched
    ms = MemSan()
    ms.watch_setup(Setup("cxl3"))
    assert not ms._watched
    ms = MemSan()
    ms.watch_setup(Setup("rdma"))
    assert not ms._watched


# -- the held-lines index ---------------------------------------------------
#
# assert_flushed / invalid_cleared / cache_dropped visit the lines a cache
# holds (MemSan._held) instead of every line of the range or every tracked
# line. SpecMemSan (test_memsan_spec.py) is the detector as plain per-line
# dicts whose per-page checks scan every line of the range; any stream a
# CpuCache can produce must leave both with the same reports, in order, and
# the same accesses_checked.


PAGE_LINES = 256
CACHES = ("n0$", "n1$", "n2$")
cache_ids = st.integers(0, 2)
# A few hot lines on two pages (so the caches collide), at both ends of a group.
lines = st.builds(
    lambda page, slot: page * PAGE_LINES + slot, st.integers(0, 1), st.sampled_from([3, 255])
)
page_ranges = st.one_of(
    st.builds(lambda page: (page * PAGE_LINES * 64, PAGE_LINES * 64), st.integers(0, 1)),  # a page
    st.builds(lambda page: (page * PAGE_LINES * 64, PAGE_LINES * 64), st.integers(0, 1)),
    st.builds(lambda line, n: (line * 64 + 5, n), lines, st.sampled_from([0, 1, 59, 60, 200])),
    st.builds(  # starts mid-page and runs into the next: clips two groups
        lambda start, n: (start * 64, n * 64), st.integers(1, 255), st.integers(1, 400)
    ),
)
index_ops = st.one_of(
    st.tuples(st.just("load"), cache_ids, lines, st.booleans()),
    st.tuples(st.just("load"), cache_ids, lines, st.booleans()),
    st.tuples(st.just("store"), cache_ids, lines),
    st.tuples(st.just("store"), cache_ids, lines),
    st.tuples(st.just("flush"), cache_ids, lines, st.booleans()),
    st.tuples(st.just("invalidate"), cache_ids, lines),
    st.tuples(st.just("dropped"), cache_ids),
    st.tuples(st.just("raw_store"), cache_ids, lines),
    st.tuples(st.just("handover"), cache_ids, cache_ids),
    st.tuples(st.just("assert_flushed"), cache_ids, page_ranges),
    st.tuples(st.just("assert_flushed"), cache_ids, page_ranges),
    st.tuples(st.just("invalid_cleared"), cache_ids, page_ranges),
    st.tuples(st.just("invalid_cleared"), cache_ids, page_ranges),
)


# Every line those ops reach: a hot line, and the next for a raw store.
REACHED = sorted(
    {page * PAGE_LINES + slot + d for page in (0, 1) for slot in (3, 255) for d in (0, 1)}
)


def _apply(ms, op: tuple) -> None:
    kind, who, *args = op
    cache = CACHES[who]
    with ms.actor(f"n{who}"):
        if kind == "load":
            ms.cache_load(cache, REGION, args[0], fetched=args[1])
        elif kind == "store":
            ms.cache_store(cache, REGION, args[0])
        elif kind == "flush":
            ms.cache_flush_line(cache, REGION, args[0], dirty=args[1])
        elif kind == "invalidate":
            ms.cache_invalidate_line(cache, REGION, args[0])
        elif kind == "dropped":
            ms.cache_dropped(cache)
        elif kind == "raw_store":
            ms.raw_store(REGION, args[0] * 64 + 8, 70)
        elif kind == "handover":
            ms.lock_released(f"n{who}", "L")
            ms.lock_acquired(f"n{args[0]}", "L")
        else:
            getattr(ms, kind)(cache, REGION, *args[0])


def _held_equals_cached(ms: MemSan) -> bool:
    """The index invariant: ``line in _held[cache][region, line >> 8]``
    exactly when ``cache in line_state(region, line).cached``; no empty group."""
    indexed = set()
    for cache, groups in ms._held.items():
        for (region, group), held in groups.items():
            if not held or any(line >> 8 != group for line in held):
                return False
            indexed |= {(cache, region, line) for line in held}
    return indexed == {
        (cache, REGION, line)
        for line in REACHED
        for cache in ms.line_state(REGION, line).cached
    }


@settings(max_examples=150, deadline=None)
@given(st.lists(index_ops, min_size=25, max_size=80))
def test_indexed_checks_equal_the_full_scans(ops):
    indexed, spec = MemSan(max_reports=1000), SpecMemSan(max_reports=1000)
    for ms in (indexed, spec):
        ms.watch_region(REGION)
    for op in ops:
        if op[0] == "flush":
            # A CpuCache passes its entry's dirty bit: it never flushes as
            # clean a line whose last store was its own.
            state = indexed.line_state(REGION, op[2])
            own = state.dirty and state.writer_cache == CACHES[op[1]]
            op = (*op[:3], op[3] or own)
        for ms in (indexed, spec):
            _apply(ms, op)
    assert indexed.reports == spec.reports
    assert indexed.accesses_checked == spec.accesses_checked
    assert _held_equals_cached(indexed)


class _CountingColumn(array):
    """A line-table column that counts the slots read from it."""

    visits = 0

    def __getitem__(self, i):
        self.visits += 1
        return super().__getitem__(i)

    def index(self, *args):
        self.visits += 1
        return super().index(*args)


def _count_column_visits(ms: MemSan, region: str):
    """Swap the region's table columns for counting ones; returns a
    function giving the slots visited since."""
    table = ms._watched[region]
    columns = []
    for name in ("version", "publisher", "writer_actor", "writer_cache"):
        column = _CountingColumn(getattr(table, name).typecode, getattr(table, name))
        setattr(table, name, column)
        columns.append(column)
    return lambda: sum(column.visits for column in columns)


@pytest.mark.parametrize("check", ["assert_flushed", "invalid_cleared"])
@pytest.mark.parametrize("held", [0, 1, 5, 40])
def test_page_checks_look_up_only_the_held_lines(check, held):
    """The scan cannot silently return: a page check costs its held lines."""
    ms = make()
    with ms.actor("n0"):
        for line in range(0, 3 * PAGE_LINES, 3):  # another cache holds a third of everything
            ms.cache_load("n1$", REGION, line, fetched=True)
        for line in range(PAGE_LINES + 7, PAGE_LINES + 7 + 5 * held, 5):
            ms.cache_load("n0$", REGION, line, fetched=True)
        lookups = _count_column_visits(ms, REGION)
        getattr(ms, check)("n0$", REGION, PAGE_LINES * 64, PAGE_LINES * 64)
    assert lookups() <= held + 2
    assert ms.reports == []


@pytest.mark.parametrize("dirty", [0, 1, 7, 60])
def test_a_crash_visits_only_the_dead_actors_dirty_lines(dirty):
    """actor_crashed searches the writer column for the dead actor: its
    cost is that actor's dirty lines, not every tracked line."""
    ms = make()
    others = range(2 * PAGE_LINES, 4 * PAGE_LINES, 7)
    with ms.actor("n1"):
        ms.raw_store(REGION, 0, 4 * PAGE_LINES * 64)  # four pages of tracked lines
        for line in others:  # another actor's dirty lines
            ms.cache_store("n1$", REGION, line)
        ms.lock_released("n1", "L")
    dead = range(0, 3 * dirty, 3)  # from the table's first slot on
    with ms.actor("n0"):
        ms.lock_acquired("n0", "L")
        for line in dead:
            ms.cache_store("n0$", REGION, line)
    lookups = _count_column_visits(ms, REGION)
    ms.actor_crashed("n0", inheritor="failover")
    assert lookups() <= dirty + 2
    assert ms.reports == []
    assert not any(ms.line_state(REGION, line).dirty for line in dead)
    assert all(ms.line_state(REGION, line).writer_actor == "n1" for line in others)
