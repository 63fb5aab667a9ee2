"""SharedCxlBufferPool edge cases: metadata-entry pressure, pins."""

import pytest

from repro.core.coherency import FlagSlab
from repro.core.fusion import BufferFusionServer
from repro.core.sharing import SharedCxlBufferPool
from repro.db.constants import PAGE_SIZE, PT_LEAF
from repro.db.page import format_empty_page
from repro.hardware.cache import CpuCache
from repro.hardware.memory import AccessMeter, MemoryRegion
from repro.obs.world import build_sharing_setup
from repro.storage.pagestore import PageStore


def _tiny_shared_pool(n_entries=3):
    region = MemoryRegion("dbp", 32 * PAGE_SIZE + 4096, volatile=False)
    store = PageStore(PAGE_SIZE)
    for page_id in range(16):
        store.write_page(page_id, format_empty_page(page_id, PT_LEAF))
    fusion = BufferFusionServer(region, pages_base=4096, n_slots=16, page_store=store)
    meter = AccessMeter()
    slab = FlagSlab(region, base=0, n_entries=n_entries, meter=meter)
    cache = CpuCache("n0", capacity_lines=1 << 12, meter=meter)
    pool = SharedCxlBufferPool("n0", fusion, region, cache, slab, meter)
    return pool, fusion


class TestMetadataBufferPressure:
    def test_entry_eviction_deregisters(self):
        pool, fusion = _tiny_shared_pool(n_entries=2)
        for page_id in (0, 1):
            pool.get_page(page_id)
            pool.unpin(page_id)
        assert pool.metadata_entries_used == 2
        pool.get_page(2)  # must evict one metadata entry
        pool.unpin(2)
        assert pool.metadata_entries_used == 2
        # One of the first two was deregistered with the fusion server.
        active_nodes = sum(
            1 for page_id in (0, 1) if "n0" in fusion.entry_of(page_id).active
        )
        assert active_nodes == 1

    def test_all_entries_pinned_raises(self):
        pool, _ = _tiny_shared_pool(n_entries=2)
        pool.get_page(0)
        pool.get_page(1)  # both pinned
        with pytest.raises(RuntimeError, match="exhausted"):
            pool.get_page(2)

    def test_evicted_entry_page_still_reachable(self):
        pool, _ = _tiny_shared_pool(n_entries=2)
        for page_id in (0, 1, 2):
            pool.get_page(page_id)
            pool.unpin(page_id)
        # Page 0's entry was evicted; re-registering works transparently.
        view = pool.get_page(0)
        assert view.stored_page_id == 0
        pool.unpin(0)


class TestUnpinDiscipline:
    def test_unpin_unpinned_raises(self):
        pool, _ = _tiny_shared_pool()
        with pytest.raises(RuntimeError):
            pool.unpin(0)

    def test_nested_pins(self):
        pool, _ = _tiny_shared_pool()
        pool.get_page(0)
        pool.get_page(0)
        pool.unpin(0)
        pool.unpin(0)
        with pytest.raises(RuntimeError):
            pool.unpin(0)


class TestHarnessCxl3Validation:
    def test_cxl3_included_in_valid_systems(self):
        from repro.workloads.sysbench import SysbenchWorkload

        with pytest.raises(ValueError):
            build_sharing_setup("cxl4", 2, SysbenchWorkload(rows=100, n_nodes=2))
