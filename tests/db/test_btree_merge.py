"""Merge SMOs: leaf merges, cascading internal merges, root collapse,
freed-page reuse, and crash-mid-merge recovery."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.constants import (
    META_OFF_FREE_PAGE_HEAD,
    META_PAGE_ID,
    PT_FREE,
)
from repro.db.record import Field, RecordCodec

from ..conftest import make_local_engine

# Few records per leaf -> merges are easy to trigger.
WIDE = RecordCodec([Field("id", 8), Field("pad", 2000, "bytes")])


def wide_row(key):
    return {"id": key, "pad": bytes([key % 251]) * 2000}


def build_wide(host, rows, name="merge"):
    ctx = make_local_engine(host, capacity_pages=2048, name=name)
    table = ctx.engine.create_table("t", WIDE)
    for key in range(1, rows + 1):
        mtr = ctx.engine.mtr()
        table.insert(mtr, key, wide_row(key))
        mtr.commit()
    ctx.engine.redo_log.flush()
    return ctx, table


def scan(ctx, table):
    return table.btree.checked_scan(ctx.engine.mtr)


class TestLeafMerge:
    def test_deleting_shrinks_leaf_count(self, host):
        ctx, table = build_wide(host, rows=60)
        before = scan(ctx, table)
        assert before.leaves > 4
        for key in range(1, 51):
            mtr = ctx.engine.mtr()
            assert table.delete(mtr, key)
            mtr.commit()
        after = scan(ctx, table)
        assert len(after.records) == 10
        assert after.leaves < before.leaves
        assert ctx.meter.counters.get("leaf_merges", 0) >= 1

    def test_contents_survive_merges(self, host):
        ctx, table = build_wide(host, rows=60)
        surviving = set(range(1, 61))
        for key in list(range(2, 61, 2)) + list(range(1, 40, 3)):
            mtr = ctx.engine.mtr()
            if table.delete(mtr, key):
                surviving.discard(key)
            mtr.commit()
        remaining = {key for key, _ in scan(ctx, table).records}
        assert remaining == surviving
        for key in sorted(surviving):
            mtr = ctx.engine.mtr()
            row = table.get(mtr, key)
            mtr.commit()
            assert row is not None and row["pad"][0] == key % 251

    def test_leaf_chain_stays_consistent(self, host):
        ctx, table = build_wide(host, rows=50)
        for key in range(10, 40):
            mtr = ctx.engine.mtr()
            table.delete(mtr, key)
            mtr.commit()
        stats = scan(ctx, table)  # the scan checks the chain exactly
        assert len(stats.records) == 20


class TestRootCollapse:
    def test_tree_height_shrinks_to_single_leaf(self, host):
        ctx, table = build_wide(host, rows=60)
        assert scan(ctx, table).depth >= 1
        for key in range(1, 58):
            mtr = ctx.engine.mtr()
            table.delete(mtr, key)
            mtr.commit()
        stats = scan(ctx, table)
        assert len(stats.records) == 3
        assert stats.depth == 0  # back to a root leaf
        assert ctx.meter.counters.get("root_collapses", 0) >= 1

    def test_tree_remains_usable_after_collapse(self, host):
        ctx, table = build_wide(host, rows=60)
        for key in range(1, 58):
            mtr = ctx.engine.mtr()
            table.delete(mtr, key)
            mtr.commit()
        # Grow it again past a split.
        for key in range(100, 160):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, wide_row(key))
            mtr.commit()
        stats = scan(ctx, table)
        assert len(stats.records) == 63
        assert stats.depth >= 1


class TestFreedPageReuse:
    def test_free_list_populated_and_reused(self, host):
        ctx, table = build_wide(host, rows=60)
        for key in range(1, 58):
            mtr = ctx.engine.mtr()
            table.delete(mtr, key)
            mtr.commit()
        mtr = ctx.engine.mtr()
        meta = mtr.get_page(META_PAGE_ID)
        free_head = meta.read_u64(META_OFF_FREE_PAGE_HEAD)
        next_id_before = meta.read_u64(32)
        mtr.commit()
        assert free_head != 0
        # New inserts reuse freed pages before extending the id space.
        for key in range(200, 260):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, wide_row(key))
            mtr.commit()
        mtr = ctx.engine.mtr()
        meta = mtr.get_page(META_PAGE_ID)
        next_id_after = meta.read_u64(32)
        mtr.commit()
        grown = next_id_after - next_id_before
        stats = scan(ctx, table)
        assert len(stats.records) == 63
        assert grown < stats.leaves, "splits should have reused freed pages"

    def test_freed_pages_marked_free(self, host):
        ctx, table = build_wide(host, rows=40)
        for key in range(1, 38):
            mtr = ctx.engine.mtr()
            table.delete(mtr, key)
            mtr.commit()
        mtr = ctx.engine.mtr()
        meta = mtr.get_page(META_PAGE_ID)
        free_head = meta.read_u64(META_OFF_FREE_PAGE_HEAD)
        assert free_head != 0
        freed = mtr.get_page(free_head)
        assert freed.page_type == PT_FREE
        mtr.commit()


class TestMergeRecovery:
    def test_crash_mid_merge_polarrecv(self, cluster, host):
        """Die between the leaf rewrite and the parent fix-up: every
        touched page is latched, so PolarRecv rebuilds them all."""
        from ..conftest import make_cxl_engine, recover_cxl_ctx

        ctx = make_cxl_engine(cluster, host, n_blocks=128, name="mergecrash")
        table = ctx.engine.create_table("t", WIDE)
        for key in range(1, 41):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, wide_row(key))
            mtr.commit()
        ctx.engine.redo_log.flush()
        ctx.engine.checkpoint()

        # Start a delete whose merge will fire, but never commit the mtr.
        btree = table.btree
        mtr = ctx.engine.mtr()
        # Delete most of one leaf's records in prior committed txns so
        # the next delete underflows it.
        mtr.commit()
        for key in range(1, 7):
            m = ctx.engine.mtr()
            table.delete(m, key)
            m.commit()
        ctx.engine.redo_log.flush()
        mtr = ctx.engine.mtr()
        path, leaf = btree._descend(mtr, 7, latch_leaf=True)
        idx, found = btree._leaf_search(leaf, 7)
        assert found
        btree._leaf_delete_at(mtr, leaf, idx)
        if path and leaf.nrecs < btree.capacity // 4:
            btree._try_merge_leaf(mtr, path, leaf)
        # Crash with the mtr open: latches set, redo never published.
        ctx.engine.crash()

        engine, stats = recover_cxl_ctx(ctx, [("t", WIDE)])
        assert stats.pages_rebuilt_locked >= 1
        table2 = engine.tables["t"]
        records = table2.btree.checked_scan(engine.mtr).records
        # The torn delete+merge rolled back; the committed deletes hold.
        assert {key for key, _ in records} == set(range(7, 41))
        assert len(records) == 34


@st.composite
def delete_orders(draw):
    keys = list(range(1, 61))
    return draw(st.permutations(keys))


class TestMergeProperties:
    @given(delete_orders())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_deletion_order_keeps_tree_valid(self, order):
        from repro.hardware.host import Cluster
        from repro.sim.core import Simulator

        cluster = Cluster(Simulator())
        host = cluster.add_host("h")
        ctx, table = build_wide(host, rows=60, name="prop")
        alive = set(range(1, 61))
        for i, key in enumerate(order):
            mtr = ctx.engine.mtr()
            assert table.delete(mtr, key)
            mtr.commit()
            alive.discard(key)
            if i % 13 == 0:
                records = scan(ctx, table).records
                assert {k for k, _ in records} == alive
                assert len(records) == len(alive)
        assert scan(ctx, table).records == []
