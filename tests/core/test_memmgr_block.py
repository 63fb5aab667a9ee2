"""CXL memory manager (multi-tenancy) and block layout."""

import pytest

from repro.core.block import (
    BLOCK_META_SIZE,
    BLOCK_NIL,
    BLOCK_SIZE,
    BlockMeta,
    POOL_HEADER_SIZE,
    PoolHeader,
    block_data_offset,
    block_offset,
    pool_bytes_needed,
)
from repro.core.memmgr import CxlMemoryManager, OutOfCxlMemoryError
from repro.db.constants import PAGE_SIZE
from repro.hardware.cache import LineCacheModel
from repro.hardware.host import cxl_timing
from repro.hardware.memory import AccessMeter, MappedMemory, MemoryRegion
from repro.sim.latency import LatencyConfig


@pytest.fixture
def manager(cluster):
    return CxlMemoryManager(cluster.fabric, 64 << 20)


class TestCxlMemoryManager:
    def test_allocations_do_not_overlap(self, manager):
        meter = AccessMeter()
        a = manager.allocate("node0", 1 << 20, meter)
        b = manager.allocate("node1", 3 << 20, meter)
        c = manager.allocate("node0", 1 << 20, meter)
        assert manager.extents_of("node0") == [a, c]
        assert manager.extents_of("node1") == [b]
        assert manager.extents_of("node2") == []
        spans = sorted(
            (e.offset, e.end) for client in ("node0", "node1") for e in manager.extents_of(client)
        )
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    def test_alignment(self, manager):
        extent = manager.allocate("n", 100)
        assert extent.offset % (1 << 21) == 0
        assert extent.size % (1 << 21) == 0
        assert extent.size >= 100

    def test_allocation_charged_as_rpc(self, manager):
        meter = AccessMeter()
        manager.allocate("n", 4096, meter)
        assert meter.ns > 0
        assert meter.counters["cxl_alloc_rpcs"] == 1

    def test_exhaustion(self, manager):
        manager.allocate("n", 60 << 20)
        with pytest.raises(OutOfCxlMemoryError):
            manager.allocate("n", 8 << 20)

    def test_invalid_size(self, manager):
        with pytest.raises(ValueError):
            manager.allocate("n", 0)


def _Mem(size):
    """A mapped extent of its own: block views are windows onto one."""
    return MappedMemory(
        MemoryRegion("extent", size, volatile=False),
        cxl_timing(LatencyConfig()),
        AccessMeter(),
        LineCacheModel(),
        "cxl",
    )


class TestBlockLayout:
    def test_geometry(self):
        assert BLOCK_SIZE == BLOCK_META_SIZE + PAGE_SIZE
        assert block_offset(0) == POOL_HEADER_SIZE
        assert block_offset(3) == POOL_HEADER_SIZE + 3 * BLOCK_SIZE
        assert block_data_offset(3) == block_offset(3) + BLOCK_META_SIZE
        assert pool_bytes_needed(10) == POOL_HEADER_SIZE + 10 * BLOCK_SIZE

    def test_block_meta_roundtrip(self):
        mem = _Mem(pool_bytes_needed(4))
        meta = BlockMeta(mem, 2)
        meta.set_page_id(77)
        meta.set_lock_state(1)
        meta.set_in_use(True)
        meta.set_dirty_hint(True)
        meta.set_prev(1)
        meta.set_next(BLOCK_NIL)
        fresh = BlockMeta(mem, 2)
        assert fresh.page_id == 77
        assert fresh.lock_state == 1
        assert fresh.in_use
        assert fresh.dirty_hint
        assert fresh.prev == 1
        assert fresh.next == BLOCK_NIL

    def test_blocks_do_not_alias(self):
        mem = _Mem(pool_bytes_needed(4))
        BlockMeta(mem, 0).set_page_id(1)
        BlockMeta(mem, 1).set_page_id(2)
        assert BlockMeta(mem, 0).page_id == 1

    def test_page_lsn_reads_from_page_header(self):
        import struct

        mem = _Mem(pool_bytes_needed(2))
        mem.write(block_data_offset(1) + 8, struct.pack("<Q", 424242))
        assert BlockMeta(mem, 1).page_lsn() == 424242

    def test_pool_header_roundtrip(self):
        mem = _Mem(pool_bytes_needed(2))
        header = PoolHeader(mem)
        header.set_magic(123)
        header.set_n_blocks(2)
        header.set_free_head(0)
        header.set_lru_head(1)
        header.set_lru_tail(0)
        header.set_lru_mutation_flag(True)
        fresh = PoolHeader(mem)
        assert fresh.magic == 123
        assert fresh.n_blocks == 2
        assert fresh.free_head == 0
        assert fresh.lru_head == 1
        assert fresh.lru_tail == 0
        assert fresh.lru_mutation_flag
