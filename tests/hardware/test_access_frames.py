"""The collapsed access paths stay collapsed.

A typed page read used to cross eleven Python frames and three probe
calls before it reached the region buffer. It is now the page view, the
pool's window and the fused frame in ``hardware/memory.py``; with no
instrument installed it consults the probe slot by attribute and calls
no probe function. Counted with ``sys.setprofile`` on a DRAM, a CXL and
an RDMA pool page, so a wrapper or a probe call that creeps back in fails
here, deterministically, instead of as a few percent on a noisy box. A
bare ``FaultInjector`` (or pipeline) does not count as an instrument the
access path consults: the fused frames stay fused under one.

The sharing path likewise: a warm typed read on a sharing node's page is
the page view and ``CacheWindow.unpack`` in ``hardware/cache.py`` (seven
frames and two probe calls before), a coherency-flag read is at most
two frames, and a write-lock release's ``clflush`` enters the crash
point once per resident line and once for the rest of the page while
still recording one hit per line. A whole sharing transaction with
nothing installed enters no instrument module at all — every hook site
is an attribute load on the slot — apart from the slot's two null-scope
helpers (310 ``active()`` frames per transaction before).

Installed instruments no longer change the shape of an access either.
The same frames run under a ``Tracer``, a ``SpanTracer`` or a ``MemSan``
— no ``MappedMemory.read`` / ``_charge`` / ``touch_range``, no
``CpuCache.read`` / ``_load_entry`` — followed by one call per installed
instrument, and the model's own line fills, write-backs and flag bytes
reach the region buffer without entering MemSan's ``internal()`` scope.
"""

import contextlib
import sys
from pathlib import Path

import pytest

from repro.analysis.memsan import MemSan, _InternalScope
from repro.bench.harness import build_pooling_setup, build_sharing_setup
from repro.db.constants import OFF_NRECS, PAGE_SIZE
from repro.faults.injector import FaultInjector
from repro.obs import SpanTracer, Tracer
from repro.obs.metrics import MetricsPipeline
from repro.workloads.sysbench import SysbenchWorkload


def _python_frames(call) -> list:
    """(file, function) of every Python frame entered while ``call()`` runs."""
    entered = []

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.append((Path(code.co_filename).name, code.co_name))

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered[1:]  # entered[0] is `call` itself


#: Nothing installed, or only an instrument no metered access consults.
OFF_THE_ACCESS_PATH = [contextlib.nullcontext, FaultInjector, MetricsPipeline]


@pytest.mark.parametrize("system", ["dram", "cxl", "rdma"])
def test_typed_page_read_is_three_frames_and_no_probe_call(system):
    setup = build_pooling_setup(system, 1, SysbenchWorkload(rows=100), seed=7)
    engine = setup.instances[0].engine
    mtr = engine.mtr()
    view = mtr.get_page(engine.tables["sbtest1"].btree.root_page_id)
    view.read_u16(OFF_NRECS)  # warm the line: the steady-state access is a hit
    for installed in OFF_THE_ACCESS_PATH:
        with installed():
            frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
        assert frames == [
            ("page.py", "read_u16"),  # PageView
            ("memory.py", "unpack"),  # WindowedMemory: the pool's page accessor
            ("memory.py", "unpack"),  # MappedMemory: the fused frame
        ], installed
    mtr.commit()


#: The frames of the access itself, whatever is installed.
POOL_READ = [("page.py", "read_u16"), ("memory.py", "unpack"), ("memory.py", "unpack")]
SHARING_READ = [("page.py", "read_u16"), ("cache.py", "unpack")]


@pytest.mark.parametrize("system", ["dram", "cxl", "rdma"])
def test_instrumented_typed_page_read_is_the_same_frames_plus_one_call_each(system):
    setup = build_pooling_setup(system, 1, SysbenchWorkload(rows=100), seed=7)
    engine = setup.instances[0].engine
    mtr = engine.mtr()
    view = mtr.get_page(engine.tables["sbtest1"].btree.root_page_id)
    view.read_u16(OFF_NRECS)
    mapped = view.accessor.mapped
    with SpanTracer() as spans:
        root = spans.begin("txn", "pin")
        frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
        spans.end(root)
    assert frames == POOL_READ + [("spans.py", "add_ns")]
    assert list(root.costs.values()) == [mapped.timing.hit_ns]
    with Tracer() as tracer:
        frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
    # Tracer.count adds into its registry in place, one frame: a hit is
    # one count, a miss would be two (misses + device bytes) — never _charge.
    assert frames == POOL_READ + [("trace.py", "count")]
    assert tracer.counters.snapshot() == {f"mem.{mapped.counter_key}.line_hits": 1.0}
    with MemSan() as memsan:
        memsan.watch_region(mapped.region.name)
        with memsan.actor("node0"):
            frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
    # Only MemSan sends the data touch through the sanitized accessor.
    assert frames[:5] == POOL_READ + [("memory.py", "read"), ("memsan.py", "raw_load")]
    assert {frame[0] for frame in frames[5:]} <= {"memsan.py"}  # raw_load's own helpers
    assert memsan.accesses_checked == 1
    mtr.commit()


def test_block_metadata_field_is_the_accessor_and_the_fused_frame():
    """An LRU move reads and rewrites ~17 metadata fields: each is the
    field's accessor and one ``MappedMemory`` frame, no window frame."""
    setup = build_pooling_setup("cxl", 1, SysbenchWorkload(rows=100), seed=7)
    meta = setup.instances[0].engine.buffer_pool.meta(0)
    prev = meta.prev  # warm the metadata line
    assert _python_frames(lambda: meta.prev) == [("block.py", "<lambda>"), ("memory.py", "unpack")]
    frames = _python_frames(lambda: meta.set_prev(prev))
    assert frames == [("block.py", "<lambda>"), ("memory.py", "write")]
    assert meta.prev == prev


def test_pooled_read_only_transaction_builds_no_row_in_its_range_selects():
    """A sysbench range select only takes the row count: its leaf walk
    goes through ``range_count`` and decodes nothing, so the only
    ``RecordCodec.decode`` frames of a read-only transaction are its ten
    point selects'."""
    workload = SysbenchWorkload(rows=400)
    ictx = build_pooling_setup("cxl", 1, workload, seed=7).instances[0]
    frames = _python_frames(lambda: workload.txn_read_only(ictx.engine, ictx.rng))
    assert frames.count(("record.py", "decode")) == 10
    assert frames.count(("btree.py", "range_count")) == 4
    assert ("btree.py", "range_scan") not in frames


@pytest.fixture(scope="module")
def sharing_node():
    workload = SysbenchWorkload(rows=100, n_nodes=2)
    setup = build_sharing_setup("cxl", 2, workload, seed=7)
    return setup.nodes[0]


def test_typed_read_on_a_sharing_page_is_two_frames_and_no_probe_call(sharing_node):
    engine = sharing_node.engine
    mtr = engine.mtr()
    view = mtr.get_page(engine.tables["sbtest_shared"].btree.root_page_id)
    view.read_u16(OFF_NRECS)  # warm the line: the steady-state access is a hit
    for installed in OFF_THE_ACCESS_PATH:
        with installed():
            frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
        assert frames == [
            ("page.py", "read_u16"),  # PageView
            ("cache.py", "unpack"),  # CacheWindow: the fused frame
        ], installed
    mtr.commit()


def test_instrumented_typed_read_on_a_sharing_page_is_two_frames_plus_one_call_each(
    sharing_node,
):
    engine = sharing_node.engine
    pool = engine.buffer_pool
    mtr = engine.mtr()
    view = mtr.get_page(engine.tables["sbtest_shared"].btree.root_page_id)
    view.read_u16(OFF_NRECS)
    with MemSan() as memsan:
        memsan.watch_region(pool.region.name)
        with memsan.actor(sharing_node.node_id):
            frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
    assert frames[:3] == SHARING_READ + [("memsan.py", "cache_load")]
    assert {frame[0] for frame in frames[3:]} <= {"memsan.py"}  # cache_load's own helpers
    assert memsan.accesses_checked == 1
    with SpanTracer() as spans:
        root = spans.begin("txn", "pin")
        frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
        spans.end(root)
    assert frames == SHARING_READ + [("spans.py", "add_ns")]
    assert root.costs == {"cxl_access": pool.cpu_cache.hit_ns}
    with Tracer() as tracer:
        frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
    assert frames == SHARING_READ and tracer.counters.snapshot() == {}  # a hit counts nothing
    mtr.commit()


def test_instrumented_flag_read_is_the_same_frames_plus_one_call_each(sharing_node):
    slab = sharing_node.engine.buffer_pool.flag_slab
    with MemSan(), Tracer(), SpanTracer():
        frames = _python_frames(lambda: slab.read_invalid(0))
    assert frames == [
        ("coherency.py", "read_invalid"),
        ("coherency.py", "_read_flag"),
        ("trace.py", "count"),
        ("spans.py", "add_ns"),
        ("memsan.py", "flag_read"),  # a clear flag is no acquire edge: nothing below it
    ]


def test_flag_read_is_at_most_two_frames_and_no_probe_call(sharing_node):
    slab = sharing_node.engine.buffer_pool.flag_slab
    for read_flag in (slab.read_invalid, slab.read_removal):
        frames = _python_frames(lambda: read_flag(0))
        assert len(frames) <= 2
        assert {frame[0] for frame in frames} == {"coherency.py"}


def test_page_flush_records_a_hit_per_line_in_a_call_per_resident_line(sharing_node):
    pool = sharing_node.engine.buffer_pool
    cache, region = pool.cpu_cache, pool.region
    table = sharing_node.engine.tables["sbtest_shared"]
    base = pool._meta[table.btree.root_page_id].data_offset
    cache.clflush(region, base, PAGE_SIZE)
    for line in (3, 90, 200):  # three resident lines, one of them dirty
        cache.read(region, base + line * 64, 8)
    cache.write(region, base + 90 * 64, cache.read(region, base + 90 * 64, 8))
    written = cache.write_backs
    with FaultInjector() as injector:
        frames = _python_frames(lambda: cache.clflush(region, base, PAGE_SIZE))
    assert injector.hits == {"cache.clflush.line": PAGE_SIZE // 64}
    assert len([frame for frame in frames if frame[1] == "crash_point"]) <= 4
    assert cache.write_backs == written + 1
    assert cache.invalidate(region, base, PAGE_SIZE) == 0  # all three lines left the cache


def test_sharing_transaction_with_nothing_installed_enters_no_instrument(sharing_node):
    update = sharing_node.point_update("sbtest_shared", 42, "k", 7)
    frames = _python_frames(lambda: sharing_node.settler.sim.run_process(update))
    assert ("sharing.py", "point_update") in frames
    instrument_modules = {"trace.py", "spans.py", "metrics.py", "memsan.py", "probes.py"}
    entered = {frame for frame in frames if frame[0] in instrument_modules}
    # The slot's null-scope helpers and the shared no-op context they return.
    assert entered == {
        ("probes.py", "attached"),
        ("probes.py", "scoped_actor"),
        ("probes.py", "__enter__"),
        ("probes.py", "__exit__"),
    }
    # crash_point stays a function (one slot load inside); it is the only
    # frame the transaction enters in the injector.
    assert {frame for frame in frames if frame[0] == "injector.py"} == {
        ("injector.py", "crash_point")
    }


def test_sharing_transaction_under_memsan_never_enters_the_internal_scope(
    sharing_node, monkeypatch
):
    """Fills, write-backs, flag stores and flag reads are the model's own
    traffic: they touch the region buffer directly, so nothing needs the
    raw-access hooks silenced around it."""
    entries = []
    monkeypatch.setattr(_InternalScope, "__enter__", lambda scope: entries.append(scope))
    update = sharing_node.point_update("sbtest_shared", 43, "k", 9)
    with MemSan() as memsan:
        memsan.watch_region(sharing_node.engine.buffer_pool.region.name)
        frames = _python_frames(lambda: sharing_node.settler.sim.run_process(update))
    memsan.check()
    entered = set(frames)
    assert {("cache.py", "_fill"), ("cache.py", "clflush"), ("memsan.py", "cache_load")} <= entered
    assert entries == [] and ("memsan.py", "internal") not in entered
    assert not entered & {("memsan.py", "raw_load"), ("memsan.py", "raw_store")}
