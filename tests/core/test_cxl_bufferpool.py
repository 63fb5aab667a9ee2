"""The PolarCXLMem buffer pool: CXL-resident frames, metadata, and LRU."""

import pytest

from repro.core.block import BLOCK_NIL, BLOCK_NO_PAGE
from repro.core.cxl_bufferpool import CxlBufferPool
from repro.db.bufferpool import BufferPoolFullError
from repro.db.constants import PT_LEAF

from ..conftest import fill_table, make_cxl_engine


@pytest.fixture
def ctx(cluster, host):
    return make_cxl_engine(cluster, host, n_blocks=32)


class TestFormatAndAttach:
    def test_format_builds_free_list(self, ctx):
        pool = ctx.pool
        # initialize() consumed block 0 for the meta page; the free list
        # starts at block 1 and the LRU holds just the meta page.
        assert pool.header.free_head == 1
        assert pool.header.lru_head != BLOCK_NIL
        assert pool.resident_count == 1

    def test_attach_validates_magic(self, cluster, host):
        ctx = make_cxl_engine(cluster, host, n_blocks=8, name="fmt")
        # Attach works on a formatted pool...
        CxlBufferPool(ctx.mem, ctx.store, 8).attach()
        # ...but not with the wrong block count.
        with pytest.raises(ValueError):
            CxlBufferPool(ctx.mem, ctx.store, 9).attach()

    def test_attach_unformatted_rejected(self, cluster, host):
        from repro.core.block import pool_bytes_needed
        from repro.core.memmgr import CxlMemoryManager
        from repro.hardware.memory import AccessMeter, WindowedMemory
        from repro.hardware.cache import LineCacheModel
        from repro.storage.pagestore import PageStore
        from repro.db.constants import PAGE_SIZE

        manager = CxlMemoryManager(cluster.fabric, pool_bytes_needed(4) + (4 << 21))
        extent = manager.allocate("x", pool_bytes_needed(4))
        meter = AccessMeter()
        mapped = host.map_cxl(manager.region, meter, LineCacheModel())
        mem = WindowedMemory(mapped, extent.offset, extent.size)
        with pytest.raises(ValueError):
            CxlBufferPool(mem, PageStore(PAGE_SIZE, meter), 4).attach()

    def test_undersized_extent_rejected(self, ctx):
        with pytest.raises(ValueError):
            CxlBufferPool(ctx.mem, ctx.store, 10_000)


def _meta_of(pool, page_id):
    """The in-use block whose persisted metadata names ``page_id``."""
    (meta,) = [m for m in pool.iter_metas() if m.in_use and m.page_id == page_id]
    return meta


class TestMetadataPersistence:
    def test_page_id_recorded_in_block(self, ctx):
        fill_table(ctx, rows=40)
        pool = ctx.pool
        resident = pool.resident_page_ids()
        assert len(resident) > 1
        for page_id in resident:
            assert _meta_of(pool, page_id).page_id == page_id

    def test_write_latch_persisted(self, ctx):
        table = fill_table(ctx, rows=10)
        pool = ctx.pool
        mtr = ctx.engine.mtr()
        leaf_id = table.btree.leaf_page_id_for(mtr, 5)
        mtr.commit()
        meta = _meta_of(pool, leaf_id)
        mtr = ctx.engine.mtr()
        mtr.get_page(leaf_id, for_write=True)
        assert meta.lock_state == 1
        mtr.commit()
        assert meta.lock_state == 0

    def test_dirty_hint_persisted(self, ctx):
        table = fill_table(ctx, rows=10)
        ctx.engine.checkpoint()
        pool = ctx.pool
        mtr = ctx.engine.mtr()
        leaf_id = table.btree.leaf_page_id_for(mtr, 5)
        mtr.commit()
        meta = _meta_of(pool, leaf_id)
        assert not meta.dirty_hint
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 5, "k", 42)
        mtr.commit()
        assert meta.dirty_hint
        pool.flush_page(leaf_id)
        assert not meta.dirty_hint


class TestCxlLru:
    def test_lru_order_tracks_usage(self, ctx):
        pool = ctx.pool
        pool.new_page(100, PT_LEAF)
        pool.unpin(100)
        pool.new_page(101, PT_LEAF)
        pool.unpin(101)
        # 101 is most recent -> at the head.
        head = pool.lru_order()[0]
        assert pool.meta(head).page_id == 101
        pool.get_page(100)
        pool.unpin(100)
        head = pool.lru_order()[0]
        assert pool.meta(head).page_id == 100

    def test_lru_list_complete_and_acyclic(self, ctx):
        fill_table(ctx, rows=60)
        pool = ctx.pool
        order = pool.lru_order()
        assert len(order) == pool.resident_count
        assert len(set(order)) == len(order)

    def test_mutation_flag_clear_in_steady_state(self, ctx):
        fill_table(ctx, rows=30)
        assert not ctx.pool.header.lru_mutation_flag

    def test_lru_move_period_skips_moves(self, cluster, host):
        ctx = make_cxl_engine(cluster, host, n_blocks=64, name="p8", lru_move_period=8)
        table = fill_table(ctx, rows=40)
        # Just exercising: touches mostly skip the expensive move.
        mtr = ctx.engine.mtr()
        for key in range(1, 30):
            table.get(mtr, key)
        mtr.commit()
        order = ctx.pool.lru_order()
        assert len(order) == ctx.pool.resident_count


class TestEviction:
    def test_eviction_recycles_lru_tail(self, cluster, host):
        ctx = make_cxl_engine(cluster, host, n_blocks=6, name="tiny")
        pool = ctx.pool
        for page_id in range(100, 105):  # 5 pages + meta = 6 blocks
            pool.new_page(page_id, PT_LEAF)
            pool.unpin(page_id)
        pool.flush_dirty_pages()
        pool.get_page(100)  # make 100 hot; meta page is the tail now...
        pool.unpin(100)
        before = set(pool.resident_page_ids())
        pool.new_page(200, PT_LEAF)
        pool.unpin(200)
        after = set(pool.resident_page_ids())
        evicted = before - after
        assert len(evicted) == 1
        assert 100 not in evicted  # recently used survives
        # The evicted block's metadata was scrubbed.
        for meta in pool.iter_metas():
            if meta.in_use:
                assert meta.page_id != BLOCK_NO_PAGE

    def test_dirty_eviction_flushes_first(self, cluster, host):
        from repro.db.constants import META_PAGE_ID

        ctx = make_cxl_engine(cluster, host, n_blocks=4, name="dirtyev")
        pool = ctx.pool
        view = pool.new_page(100, PT_LEAF)
        view.write_u64(100, 9999)
        pool.unpin(100)
        for page_id in (101, 102):
            pool.new_page(page_id, PT_LEAF)
            pool.unpin(page_id)
        # Refresh everything except the dirty page 100 → 100 is the tail.
        for page_id in (101, 102, META_PAGE_ID):
            pool.get_page(page_id)
            pool.unpin(page_id)
        pool.new_page(103, PT_LEAF)
        pool.unpin(103)
        assert not pool.contains(100)
        import struct

        image = ctx.store.read_page_unmetered(100)
        assert struct.unpack_from("<Q", image, 100)[0] == 9999

    def test_all_pinned_raises(self, cluster, host):
        from repro.db.constants import META_PAGE_ID

        ctx = make_cxl_engine(cluster, host, n_blocks=3, name="pinned")
        pool = ctx.pool
        pool.get_page(META_PAGE_ID)  # pin the meta page too
        pool.new_page(100, PT_LEAF)
        pool.new_page(101, PT_LEAF)
        with pytest.raises(BufferPoolFullError):
            pool.new_page(102, PT_LEAF)

    def test_crash_hook_fires_on_lru_ops(self, ctx):
        events = []
        ctx.pool.crash_hook = events.append
        ctx.pool.new_page(100, PT_LEAF)
        ctx.pool.unpin(100)
        assert "lru" in events


class TestFunctionalParity:
    def test_cxl_engine_matches_local_semantics(self, cluster, host):
        """The same workload on CXL and DRAM pools yields identical data."""
        from ..conftest import make_local_engine

        cxl = make_cxl_engine(cluster, host, n_blocks=128, name="parity-cxl")
        local = make_local_engine(host, name="parity-local")
        table_c = fill_table(cxl, rows=150)
        table_l = fill_table(local, rows=150)
        for ctx, table in ((cxl, table_c), (local, table_l)):
            mtr = ctx.engine.mtr()
            table.update_field(mtr, 77, "k", 5)
            table.delete(mtr, 80)
            mtr.commit()
        assert (
            table_c.btree.checked_scan(cxl.engine.mtr).records
            == table_l.btree.checked_scan(local.engine.mtr).records
        )
