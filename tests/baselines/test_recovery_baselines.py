"""Vanilla and RDMA-assisted recovery: full replay correctness."""

import pytest

from repro.baselines.rdma_bufferpool import RemoteMemoryNode, TieredRdmaBufferPool
from repro.baselines.vanilla_recovery import replay_recovery
from repro.db.constants import PAGE_SIZE
from repro.hardware.cache import LineCacheModel
from repro.hardware.memory import AccessMeter
from repro.sim.latency import CostModel

from ..conftest import SMALL_CODEC, fill_table, make_local_engine, row_for


def crashed_workload(host, name="v"):
    """An engine with committed-but-unflushed-page updates, then crash."""
    ctx = make_local_engine(host, name=name)
    table = fill_table(ctx, rows=500)  # several leaves
    ctx.engine.checkpoint()
    # Durable updates on distinct pages (log flushed, pages buffered).
    txn = ctx.engine.begin()
    mtr = txn.mtr()
    table.update_field(mtr, 10, "k", 55)
    table.update_field(mtr, 490, "k", 66)
    mtr.commit()
    txn.commit()
    # A lost (uncommitted) update.
    mtr = ctx.engine.mtr()
    table.update_field(mtr, 20, "k", 77)
    mtr.commit()
    ctx.engine.crash()
    return ctx


class TestVanillaReplay:
    def test_committed_updates_recovered(self, host):
        ctx = crashed_workload(host)
        fresh = make_local_engine(
            host, name="v2", store=ctx.store, redo=ctx.redo, initialize=False
        )
        stats = replay_recovery(fresh.pool, ctx.store, ctx.redo)
        fresh.engine.adopt_schema([("t", SMALL_CODEC)])
        mtr = fresh.engine.mtr()
        table = fresh.engine.tables["t"]
        assert table.get(mtr, 10)["k"] == 55
        assert table.get(mtr, 490)["k"] == 66
        assert table.get(mtr, 20)["k"] == row_for(20)["k"]  # rolled back
        mtr.commit()
        assert len(table.btree.checked_scan(fresh.engine.mtr).records) == 500
        assert stats.pages_redone >= 2
        assert stats.pages_from_storage == stats.pages_redone
        assert stats.pages_from_remote == 0

    def test_replayed_pages_warm_rest_cold(self, host):
        ctx = crashed_workload(host, name="warm")
        fresh = make_local_engine(
            host, name="warm2", store=ctx.store, redo=ctx.redo, initialize=False
        )
        stats = replay_recovery(fresh.pool, ctx.store, ctx.redo)
        # Only the redone pages are resident; the rest must come from
        # storage — the vanilla warm-up penalty.
        assert fresh.pool.resident_count == stats.pages_redone

    def test_idempotent_double_replay(self, host):
        ctx = crashed_workload(host, name="idem")
        fresh = make_local_engine(
            host, name="idem2", store=ctx.store, redo=ctx.redo, initialize=False
        )
        replay_recovery(fresh.pool, ctx.store, ctx.redo)
        stats2 = replay_recovery(fresh.pool, ctx.store, ctx.redo)
        assert stats2.records_applied == 0  # LSN guard skipped everything
        assert stats2.pages_from_buffer == stats2.pages_redone
        fresh.engine.adopt_schema([("t", SMALL_CODEC)])
        mtr = fresh.engine.mtr()
        assert fresh.engine.tables["t"].get(mtr, 10)["k"] == 55
        mtr.commit()


class TestRdmaAssistedReplay:
    def test_pages_come_from_remote_memory(self, host, cluster):
        # Build a tiered engine whose remote tier holds current pages.
        meter = AccessMeter()
        from repro.storage.pagestore import PageStore
        from repro.storage.wal import RedoLog
        from repro.db.engine import Engine

        store = PageStore(PAGE_SIZE, meter)
        redo = RedoLog(meter)
        remote_region = cluster.alloc_remote_memory("rec", 300 * PAGE_SIZE)
        remote = RemoteMemoryNode(remote_region, 300)
        lbp_region = host.alloc_dram("rec.lbp", 16 * PAGE_SIZE)
        pool = TieredRdmaBufferPool(
            host.map_dram(lbp_region, meter, LineCacheModel()),
            remote,
            store,
            16,
            meter,
        )
        engine = Engine("r", pool, store, redo, meter, CostModel(), volatile_regions=[lbp_region])
        engine.initialize()
        table = engine.create_table("t", SMALL_CODEC)
        for key in range(1, 201):
            mtr = engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        redo.flush()
        engine.checkpoint()
        txn = engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 10, "k", 55)
        mtr.commit()
        txn.commit()
        # Steady state: evictions have pushed page copies to the remote
        # tier (stale relative to the buffered updates), then crash.
        for page_id in list(pool.resident_page_ids()):
            view = pool.get_page(page_id)
            remote.write_page(page_id, view.image(), meter, dirty=False)
            pool.unpin(page_id)
        engine.crash()

        meter2 = AccessMeter()
        store.attach_meter(meter2)
        redo.attach_meter(meter2)
        lbp2 = host.alloc_dram("rec.lbp2", 64 * PAGE_SIZE)
        pool2 = TieredRdmaBufferPool(
            host.map_dram(lbp2, meter2, LineCacheModel()),
            remote,
            store,
            64,
            meter2,
        )
        stats = replay_recovery(pool2, store, redo, remote=remote, meter=meter2)
        assert stats.pages_redone >= 1
        assert stats.pages_from_remote >= 1
        engine2 = Engine("r2", pool2, store, redo, meter2, CostModel())
        engine2.adopt_schema([("t", SMALL_CODEC)])
        mtr = engine2.mtr()
        assert engine2.tables["t"].get(mtr, 10)["k"] == 55
        mtr.commit()

    def test_remote_replay_requires_meter(self, host):
        ctx = crashed_workload(host, name="meterless")
        fresh = make_local_engine(
            host, name="m2", store=ctx.store, redo=ctx.redo, initialize=False
        )

        class _FakeRemote:
            def has(self, page_id):
                return True

        with pytest.raises(ValueError):
            replay_recovery(fresh.pool, ctx.store, ctx.redo, remote=_FakeRemote())
