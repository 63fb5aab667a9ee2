"""The sharing access path behaves exactly as its executable spec.

``CpuCache``'s resident-line index, the bulk crash-point hits of
``clflush`` and the fused ``CacheWindow.unpack`` frame are host-side
speed-ups only. For any lock-cycle op list they must return what the
per-line ``reference_models.SpecCpuCache`` returns and leave the same LRU order,
line bytes and dirty bits, fills / write-backs / stale serves,
``meter.ns`` (bit for bit), counters, transfer list and backing-region
bytes — bare, under ``Tracer`` / ``SpanTracer`` / ``MemSan`` (which must
have seen the same things), and with a ``FaultInjector`` armed at every
hit of ``cache.clflush.line`` in turn: same trace, same coordinate fired,
same bytes on the device and same lines surviving in the cache — bare
and with all three instruments installed around the armed injector (the
shape of every checked sweep coordinate), where what each instrument saw
up to the crash must be equal too. The caches hold a handful of lines,
so eviction happens mid-cycle.
"""

import contextlib
import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memsan import MemSan
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.obs import SpanTracer, Tracer
from repro.sim.latency import CACHE_LINE

from .reference_models import (
    CACHE_EQ_BASES,
    CACHE_EQ_REGION,
    _lock_cycle_ops,
    build_cache_world,
    cache_state,
    check_cache_equivalence,
    replay_cache_ops,
)

FORMATS = [struct.Struct(f) for f in ("<B", "<H", "<Q", "<QQ")]
HOT = 40 * CACHE_LINE  # window offsets fall in 40 lines; the caches hold 2..12

regions = st.integers(0, 1)
offsets = st.integers(0, HOT - 1)
unpacks = st.tuples(st.just("unpack"), regions, st.sampled_from(FORMATS), offsets)
runs = st.tuples(
    st.just("run"),
    regions,
    st.sampled_from(FORMATS),
    st.integers(400, HOT - 1),
    st.sampled_from([2, 8, 16, 3, -2, -8, -5]),
    st.integers(0, 24),
)
reads = st.tuples(
    st.just("read"), regions, offsets, st.sampled_from([0, 1, 8, 63, 64, 65, 130, 700])
)
writes = st.builds(
    lambda r, offset, nbytes, fill: ("write", r, offset, bytes([fill]) * nbytes),
    regions,
    offsets,
    st.sampled_from([1, 2, 8, 61, 64, 130, 300]),
    st.integers(0, 255),
)
remotes = st.builds(
    lambda r, offset, fill: ("remote", r, CACHE_EQ_BASES[r] + offset, bytes([fill]) * 70),
    regions,
    offsets,
    st.integers(0, 255),
)


def range_ops(max_bytes, kinds=("clflush", "clflush", "invalidate", "dirty")):
    """clflush / invalidate / dirty_lines over absolute ranges that start
    around the window's lines: empty, within a line, unaligned, and
    (region 1's base is not group-aligned) clipping the index's groups."""
    return st.builds(
        lambda kind, r, start, nbytes: (kind, r, CACHE_EQ_BASES[r] + start, nbytes),
        st.sampled_from(kinds),
        regions,
        st.integers(-1000, HOT),
        st.one_of(st.sampled_from([0, 1, 64, 65]), st.integers(0, max_bytes)),
    )


controls = st.one_of(
    st.just(("drop_all",)), st.tuples(st.just("capacity"), st.integers(0, 12))
)


def op_lists(max_bytes, min_size=0):
    return st.lists(
        st.one_of(
            unpacks, unpacks, runs, reads, writes, writes, remotes, range_ops(max_bytes), controls
        ),
        min_size=min_size,
        max_size=50,
    )


# Lines get cached and dirtied, a range over them is flushed, twice over:
# every example of the crash test has hits to arm, in gaps and on lines.
flushes = st.builds(
    lambda r, start, lines, extra: ("clflush", r, CACHE_EQ_BASES[r] + start, lines * CACHE_LINE - extra),
    regions,
    st.integers(-300, HOT // 2),
    st.integers(4, 44),
    st.integers(0, CACHE_LINE - 1),
)
flushed_op_lists = st.builds(
    lambda warm, first, more, second, rest: [*warm, first, *more, second, *rest],
    st.lists(st.one_of(unpacks, writes), min_size=6, max_size=20),
    flushes,
    op_lists(20 * CACHE_LINE),
    flushes,
    op_lists(20 * CACHE_LINE),
)


capacities = st.integers(2, 12)


def _replay(optimized, ops, lines):
    cache, cache_regions = build_cache_world(optimized, lines)
    returned = replay_cache_ops(cache, cache_regions, ops, typed=optimized)
    return returned, cache_state(cache, cache_regions)


@settings(max_examples=120, deadline=None)
@given(op_lists(CACHE_EQ_REGION, min_size=10), capacities)
def test_bare_equals_the_spec(ops, lines):
    check_cache_equivalence(ops=ops, capacity_lines=lines)


@settings(max_examples=40, deadline=None)
@given(op_lists(CACHE_EQ_REGION, min_size=10), capacities)
def test_equal_under_every_instrument(ops, lines):
    bare = _replay(True, ops, lines)
    assert bare == _replay(False, ops, lines)

    seen = []
    for optimized in (True, False):
        with Tracer() as tracer:
            assert _replay(optimized, ops, lines) == bare  # instruments do not perturb the model
        seen.append((tracer.counters.snapshot(), [e.fields for e in tracer.events()]))
    assert seen[0] == seen[1]

    seen = []
    for optimized in (True, False):
        with SpanTracer() as spans:
            root = spans.begin("txn", "eq")
            assert _replay(optimized, ops, lines) == bare
            spans.end(root)
            _replay(optimized, ops, lines)  # nothing attached: charges dropped, and counted
        seen.append((root.costs, spans.dropped_costs))
    assert seen[0] == seen[1]

    seen = []
    for optimized in (True, False):
        with MemSan() as memsan:
            memsan.watch_region("eq0")
            memsan.watch_region("eq1")
            with memsan.actor("node0"):
                assert _replay(optimized, ops, lines) == bare
        seen.append((memsan.accesses_checked, memsan.reports))
    assert seen[0] == seen[1]


def _crash_at(optimized, ops, lines, arm, actor=contextlib.nullcontext):
    """Replay under an injector; returns what a crash sweep can observe."""
    cache, cache_regions = build_cache_world(optimized, lines)
    injector = arm(FaultInjector())
    returned = None
    with injector, actor():
        try:
            returned = replay_cache_ops(cache, cache_regions, ops, typed=optimized)
        except InjectedCrash as crash:
            returned = ("crashed", crash.point, crash.hit)
    return returned, injector.trace, injector.fired, injector.hits, cache_state(cache, cache_regions)


def _checked_crash_at(optimized, ops, lines, arm):
    """:func:`_crash_at` inside every instrument, plus what each one saw."""
    with MemSan() as memsan, Tracer() as tracer, SpanTracer() as spans:
        memsan.watch_region("eq0")
        memsan.watch_region("eq1")
        root = spans.begin("txn", "eq")
        # The actor scopes the replay only: filling the regions is not a node's store.
        observed = _crash_at(optimized, ops, lines, arm, lambda: memsan.actor("node0"))
        spans.end(root)
    return (
        observed,
        tracer.counters.snapshot(),
        [event.fields for event in tracer.events()],
        (root.costs, spans.dropped_costs),
        (memsan.accesses_checked, memsan.reports),
    )


@settings(max_examples=40, deadline=None)
@given(flushed_op_lists, st.integers(2, 24))
def test_a_crash_at_every_clflush_hit_leaves_the_same_world(ops, lines):
    passive = _crash_at(True, ops, lines, lambda injector: injector)
    assert passive == _crash_at(False, ops, lines, lambda injector: injector)
    total = passive[3].get("cache.clflush.line", 0)
    assert total == sum(
        (op[2] + op[3] - 1) // CACHE_LINE - op[2] // CACHE_LINE + 1
        for op in ops
        if op[0] == "clflush" and op[3] > 0
    )  # one hit per line of every flushed range, resident or not
    for hit in range(1, total + 1):
        crashed = _crash_at(True, ops, lines, lambda inj: inj.arm("cache.clflush.line", hit))
        assert crashed[2] == ("cache.clflush.line", hit)
        assert crashed == _crash_at(
            False, ops, lines, lambda inj: inj.arm("cache.clflush.line", hit)
        )
        by_total = _crash_at(True, ops, lines, lambda inj: inj.arm_after_total(hit))
        assert by_total == crashed


@settings(max_examples=25, deadline=None)
@given(flushed_op_lists, st.integers(2, 24))
def test_a_crash_at_every_clflush_hit_under_every_instrument(ops, lines):
    passive = _checked_crash_at(True, ops, lines, lambda injector: injector)
    assert passive == _checked_crash_at(False, ops, lines, lambda injector: injector)
    assert passive[0] == _crash_at(True, ops, lines, lambda injector: injector)  # not perturbed
    for hit in range(1, passive[0][3].get("cache.clflush.line", 0) + 1):
        def arm(injector, hit=hit):
            return injector.arm("cache.clflush.line", hit)

        crashed = _checked_crash_at(True, ops, lines, arm)
        assert crashed[0][2] == ("cache.clflush.line", hit)
        assert crashed == _checked_crash_at(False, ops, lines, arm)


def test_lock_cycle_stream_under_a_passive_and_an_armed_injector():
    """The built-in stream (page-sized flushes of a few resident lines),
    traced, and crashed at sampled coordinates — the first and last hit
    of a flush, hits inside gaps, hits on resident lines."""
    ops = list(_lock_cycle_ops(60))
    passive = _crash_at(True, ops, 96, lambda injector: injector)
    assert passive == _crash_at(False, ops, 96, lambda injector: injector)
    total = passive[3]["cache.clflush.line"]
    assert total > 20 * 256
    for hit in (1, 2, 25, 256, 257, 300, 3 * 256 + 1, total // 2, total - 1, total):
        crashed = _crash_at(True, ops, 96, lambda inj: inj.arm("cache.clflush.line", hit))
        assert crashed[0] == ("crashed", "cache.clflush.line", hit)
        assert crashed == _crash_at(
            False, ops, 96, lambda inj: inj.arm("cache.clflush.line", hit)
        )


@pytest.mark.parametrize("capacity", [1, 7, 96])
def test_builtin_lock_cycles_match_at_other_capacities(capacity):
    check_cache_equivalence(300, capacity_lines=capacity)


def test_the_reference_cannot_drift_with_the_model():
    """The built-in 1,500 lock cycles through the spec alone: the sha256
    over its ``cache_state`` at every drain is a literal, so an edit to
    the spec fails here even when the model was edited to match and the
    differential still passes."""
    cache, cache_regions = build_cache_world(False, 96)
    ops = list(_lock_cycle_ops(1_500))
    digest = hashlib.sha256()
    for start in range(0, len(ops), 256):
        replay_cache_ops(cache, cache_regions, ops[start : start + 256], typed=False)
        digest.update(repr(cache_state(cache, cache_regions)).encode())
        cache.meter.take()
    assert digest.hexdigest() == (
        "38b3e5aa6e725b53caed3c0dfbe715289fb49ce115ddf099f03d3b2e9e1bdebc"
    )
