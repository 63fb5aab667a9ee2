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
"""

import contextlib
import sys
from pathlib import Path

import pytest

from repro.bench.harness import build_pooling_setup, build_sharing_setup
from repro.db.constants import OFF_NRECS, PAGE_SIZE
from repro.faults.injector import FaultInjector
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
