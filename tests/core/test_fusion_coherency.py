"""Buffer fusion server, page locks, and the coherency flag machinery."""

import pytest

from repro.core.coherency import FlagSlab, set_remote_flag
from repro.core.fusion import BufferFusionServer, PageLockService
from repro.db.constants import PAGE_SIZE, PT_LEAF
from repro.db.page import format_empty_page
from repro.hardware.memory import AccessMeter, MemoryRegion
from repro.storage.pagestore import PageStore


@pytest.fixture
def region():
    return MemoryRegion("dbp", 64 * PAGE_SIZE + 4096, volatile=False)


@pytest.fixture
def store():
    store = PageStore(PAGE_SIZE)
    for page_id in range(30):
        store.write_page(page_id, format_empty_page(page_id, PT_LEAF))
    return store


@pytest.fixture
def fusion(region, store):
    return BufferFusionServer(region, pages_base=4096, n_slots=16, page_store=store)


@pytest.fixture
def slab(region):
    return FlagSlab(region, base=0, n_entries=32, meter=AccessMeter())


class TestFlagSlab:
    def test_flags_start_clear(self, slab):
        assert not slab.read_invalid(0)
        assert not slab.read_removal(0)

    def test_remote_store_visible(self, region, slab):
        set_remote_flag(region, slab.invalid_addr(3), None, slab.config)
        assert slab.read_invalid(3)
        assert not slab.read_removal(3)
        slab.clear_invalid(3)
        assert not slab.read_invalid(3)

    def test_entries_independent(self, region, slab):
        set_remote_flag(region, slab.removal_addr(5), None, slab.config)
        assert slab.read_removal(5)
        assert not slab.read_removal(4)
        assert not slab.read_removal(6)

    def test_flag_reads_charged_as_cxl_loads(self, slab):
        slab.read_invalid(0)
        assert slab.meter.ns >= slab.config.cxl_switch_local_ns
        assert slab.meter.counters["flag_reads"] == 1

    def test_out_of_range_entry(self, slab):
        with pytest.raises(IndexError):
            slab.invalid_addr(32)


class TestFusionServer:
    def test_request_loads_page_into_cxl(self, fusion, region, slab):
        meter = AccessMeter()
        offset = fusion.request_page(7, "n0", slab.invalid_addr(0), slab.removal_addr(0), meter)
        assert fusion.has_page(7)
        assert region.read(offset, 8) == format_empty_page(7, PT_LEAF)[:8]
        assert fusion.pages_loaded == 1
        assert meter.counters["fusion_rpcs"] == 1

    def test_second_request_reuses_slot(self, fusion, slab):
        meter = AccessMeter()
        a = fusion.request_page(7, "n0", slab.invalid_addr(0), slab.removal_addr(0), meter)
        b = fusion.request_page(7, "n1", slab.invalid_addr(1), slab.removal_addr(1), meter)
        assert a == b
        assert fusion.pages_loaded == 1
        assert set(fusion.entry_of(7).active) == {"n0", "n1"}

    def test_write_release_invalidates_others_only(self, fusion, region, slab):
        meter = AccessMeter()
        fusion.request_page(7, "n0", slab.invalid_addr(0), slab.removal_addr(0), meter)
        fusion.request_page(7, "n1", slab.invalid_addr(1), slab.removal_addr(1), meter)
        pushed = fusion.on_write_release(7, "n0", meter)
        assert pushed == 1
        assert not slab.read_invalid(0)  # the writer keeps its cache
        assert slab.read_invalid(1)
        assert fusion.entry_of(7).dirty

    def test_release_of_unknown_page_raises(self, fusion):
        with pytest.raises(KeyError):
            fusion.on_write_release(99, "n0", AccessMeter())

    def test_recycle_sets_removal_and_flushes_dirty(self, fusion, region, slab, store):
        meter = AccessMeter()
        offset = fusion.request_page(7, "n0", slab.invalid_addr(0), slab.removal_addr(0), meter)
        fusion.on_write_release(7, "n0", meter)  # dirty
        region.write(offset + 512, b"changed!")
        recycled = fusion.recycle(1, meter)
        assert recycled == [7]
        assert slab.read_removal(0)
        assert store.read_page_unmetered(7)[512:520] == b"changed!"
        assert not fusion.has_page(7)

    def test_recycle_skips_locked_pages(self, sim, fusion, slab):
        meter = AccessMeter()
        locks = PageLockService(sim)
        fusion.request_page(7, "n0", slab.invalid_addr(0), slab.removal_addr(0), meter)
        sim.run_process(locks.lock(7, write=True))
        assert fusion.recycle(1, meter, lock_service=locks) == []
        locks.unlock(7, write=True)
        assert fusion.recycle(1, meter, lock_service=locks) == [7]

    def test_slot_exhaustion_recycles(self, fusion, slab):
        meter = AccessMeter()
        for page_id in range(17):  # one more than the 16 slots
            fusion.request_page(
                page_id, "n0",
                slab.invalid_addr(page_id % 32), slab.removal_addr(page_id % 32),
                meter,
            )
        assert fusion.resident_count <= 16
        assert fusion.pages_recycled >= 1

    def test_deregister(self, fusion, slab):
        meter = AccessMeter()
        fusion.request_page(7, "n0", slab.invalid_addr(0), slab.removal_addr(0), meter)
        fusion.deregister(7, "n0")
        assert fusion.entry_of(7).active == {}


class TestPageLockService:
    def test_write_lock_excludes(self, sim):
        locks = PageLockService(sim)
        log = []

        def holder():
            yield from locks.lock(5, write=True)
            yield sim.timeout(100)
            log.append(("h", sim.now))
            locks.unlock(5, write=True)

        def waiter():
            yield sim.timeout(1)
            yield from locks.lock(5, write=True)
            log.append(("w", sim.now))
            locks.unlock(5, write=True)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert log[0][0] == "h"
        assert log[1][0] == "w"
        assert log[1][1] > log[0][1]

    def test_lock_rpc_latency_charged(self, sim):
        locks = PageLockService(sim)

        def proc():
            yield from locks.lock(1, write=False)
            locks.unlock(1, write=False)
            return sim.now

        elapsed = sim.run_process(proc())
        assert elapsed >= locks.config.lock_rpc_ns

    def test_contended_acquire_pays_wakeup(self, sim):
        locks = PageLockService(sim)
        times = {}

        def holder():
            yield from locks.lock(5, write=True)
            yield sim.timeout(1000)
            locks.unlock(5, write=True)

        def waiter():
            yield sim.timeout(1)
            start = sim.now
            yield from locks.lock(5, write=True)
            times["waited"] = sim.now - start
            locks.unlock(5, write=True)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        config = locks.config
        assert times["waited"] >= 1000 - 1 + config.lock_wakeup_ns

    def test_contention_counter(self, sim):
        locks = PageLockService(sim)

        def holder():
            yield from locks.lock(5, write=True)
            yield sim.timeout(10)
            locks.unlock(5, write=True)

        def waiter():
            yield sim.timeout(1)
            yield from locks.lock(5, write=False)
            locks.unlock(5, write=False)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert locks.contended_acquires == 1
        assert locks.acquires == 2

    def test_is_write_locked(self, sim):
        locks = PageLockService(sim)
        assert not locks.is_write_locked(1)
        sim.run_process(locks.lock(1, write=True))
        assert locks.is_write_locked(1)
        locks.unlock(1, write=True)
        assert not locks.is_write_locked(1)
