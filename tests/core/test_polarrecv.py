"""PolarRecv instant recovery: every §3.2 scenario, functionally."""

import pytest

from repro.core.recovery import apply_redo_to_image
from repro.db.constants import PAGE_SIZE, PT_LEAF
from repro.storage.wal import RedoRecord

from ..conftest import SMALL_CODEC, fill_table, make_cxl_engine, recover_cxl_ctx, row_for

SCHEMA = [("t", SMALL_CODEC)]


@pytest.fixture
def ctx(cluster, host):
    ctx = make_cxl_engine(cluster, host, n_blocks=128)
    fill_table(ctx, rows=300)
    ctx.engine.checkpoint()
    return ctx


class TestCleanCrash:
    def test_pool_survives_warm(self, ctx):
        resident_before = set(ctx.pool.resident_page_ids())
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        assert set(engine.buffer_pool.resident_page_ids()) == resident_before
        assert stats.pages_rebuilt == 0
        assert stats.blocks_discarded == 0
        # No redo touched: the log was never even scanned.
        assert not stats.log_scanned

    def test_data_intact_after_recovery(self, ctx):
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        table = engine.tables["t"]
        mtr = engine.mtr()
        for key in (1, 150, 300):
            assert table.get(mtr, key)["id"] == key
        mtr.commit()
        assert len(table.btree.checked_scan(engine.mtr).records) == 300

    def test_lru_adopted_not_rebuilt(self, ctx):
        order_before = ctx.pool.lru_order()
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        assert not stats.lru_rebuilt
        assert engine.buffer_pool.lru_order() == order_before


class TestCommittedSurvives:
    def test_update_with_durable_redo_kept(self, ctx):
        table = ctx.engine.tables["t"]
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 42, "k", 77)
        mtr.commit()
        txn.commit()  # redo durable
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        mtr = engine.mtr()
        assert engine.tables["t"].get(mtr, 42)["k"] == 77
        mtr.commit()
        # Page LSN <= durable max: kept without rebuild.
        assert stats.pages_rebuilt == 0


class TestTooNewPages:
    def test_uncommitted_update_rolled_back(self, ctx):
        table = ctx.engine.tables["t"]
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 42, "k", 99)
        mtr.commit()  # staged to the log buffer, never flushed
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        mtr = engine.mtr()
        assert engine.tables["t"].get(mtr, 42)["k"] == row_for(42)["k"]
        mtr.commit()
        assert stats.pages_rebuilt_too_new == 1
        assert stats.log_scanned

    def test_mixed_durable_and_lost_updates(self, ctx):
        table = ctx.engine.tables["t"]
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 10, "k", 50)
        mtr.commit()
        txn.commit()  # durable
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 10, "k", 60)  # same page, lost
        mtr.commit()
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        mtr = engine.mtr()
        # Rebuilt to the durable version: 50, not 60, not the original.
        assert engine.tables["t"].get(mtr, 10)["k"] == 50
        mtr.commit()
        assert stats.pages_rebuilt_too_new == 1
        assert stats.redo_records_applied >= 1


class TestLockedPages:
    def test_torn_write_discarded(self, ctx):
        table = ctx.engine.tables["t"]
        mtr = ctx.engine.mtr()
        path, leaf = table.btree._descend(mtr, 42, latch_leaf=True)
        # Crash mid-mtr: bytes half-written, latch bit still set in CXL.
        leaf.write(5000, b"\xAB" * 100)
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        assert stats.pages_rebuilt_locked == 1
        scan = engine.tables["t"].btree.checked_scan(engine.mtr)
        mtr = engine.mtr()
        assert engine.tables["t"].get(mtr, 42)["id"] == 42
        mtr.commit()
        assert len(scan.records) == 300

    def test_smo_mid_flight_rebuilt_consistently(self, cluster, host):
        """Crash in the middle of a leaf split (several latched pages)."""
        ctx = make_cxl_engine(cluster, host, n_blocks=128, name="smo")
        table = fill_table(ctx, rows=300)
        ctx.engine.checkpoint()
        # Start an insert that splits, but never commit the mtr.
        mtr = ctx.engine.mtr()
        btree = table.btree
        # Fill one leaf to force a split on the next insert.
        key = 10_000
        while True:
            path, leaf = btree._descend(mtr, key, latch_leaf=True)
            if btree._leaf_full(leaf):
                break
            btree._leaf_insert_at(
                mtr, leaf, btree._leaf_search(leaf, key)[0], key,
                SMALL_CODEC.encode(row_for(key)),
            )
            key += 1
        # Now run the split machinery and crash before mtr.commit().
        btree._split_leaf(mtr, path, leaf, key)
        ctx.engine.crash()

        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        assert stats.pages_rebuilt_locked >= 1
        scan = engine.tables["t"].btree.checked_scan(engine.mtr)
        # Everything durably committed is present; the torn SMO is gone.
        assert len(scan.records) == 300


class TestLruRecovery:
    def test_mutation_flag_forces_rebuild(self, ctx):
        ctx.pool.header.set_lru_mutation_flag(True)  # crash mid-move
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        pool = engine.buffer_pool
        assert stats.lru_rebuilt
        order = pool.lru_order()
        assert len(order) == pool.resident_count
        assert not pool.header.lru_mutation_flag

    def test_corrupt_links_detected_and_rebuilt(self, ctx):
        # Corrupt a prev pointer without setting the flag.
        order = ctx.pool.lru_order()
        ctx.pool.meta(order[1]).set_prev(order[1])  # self-loop
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        pool = engine.buffer_pool
        assert stats.lru_rebuilt
        assert len(pool.lru_order()) == pool.resident_count


class TestDiscardedBlocks:
    def test_never_durable_page_discarded(self, cluster, host):
        ctx = make_cxl_engine(cluster, host, n_blocks=64, name="disc")
        fill_table(ctx, rows=50)
        ctx.engine.checkpoint()
        # Create a page wholly after the checkpoint, never flush its mtr.
        mtr = ctx.engine.mtr()
        view = mtr.new_page(PT_LEAF)
        new_page_id = view.page_id
        # mtr never commits -> latch set, no durable trace of the page.
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, SCHEMA)
        pool = engine.buffer_pool
        assert stats.blocks_discarded == 1
        assert new_page_id not in pool.resident_page_ids()


class TestApplyRedoToImage:
    def test_lsn_guard_skips_old_records(self):
        import struct

        image = bytearray(PAGE_SIZE)
        struct.pack_into("<Q", image, 8, 10)  # page LSN = 10
        applied = apply_redo_to_image(
            image,
            [
                RedoRecord(5, 1, 100, b"old"),
                RedoRecord(15, 1, 100, b"new"),
            ],
        )
        assert applied == 1
        assert bytes(image[100:103]) == b"new"
        assert struct.unpack_from("<Q", image, 8)[0] == 15

    def test_records_apply_in_order(self):
        image = bytearray(PAGE_SIZE)
        apply_redo_to_image(
            image,
            [RedoRecord(1, 1, 0, b"aaaa"), RedoRecord(2, 1, 2, b"bb")],
        )
        assert bytes(image[0:4]) == b"aabb"
