"""SharedCxlBufferPool + MultiPrimaryNode: the full coherency protocol."""

import pytest

from repro.db.constants import PAGE_SIZE
from repro.obs import Tracer
from repro.obs.world import build_sharing_setup
from repro.workloads.sysbench import SysbenchWorkload


@pytest.fixture(scope="module")
def setup():
    workload = SysbenchWorkload(rows=600, n_nodes=3)
    return build_sharing_setup("cxl", 3, workload), workload


class TestCoherencyEndToEnd:
    def test_remote_update_visible_after_protocol(self, setup):
        s, _ = setup
        a, b = s.nodes[0], s.nodes[1]
        sim = s.sim
        # B caches the page's lines.
        row = sim.run_process(b.point_select("sbtest_shared", 100))
        before = row["k"]
        # A updates through its own cache and releases the lock.
        assert sim.run_process(a.point_update("sbtest_shared", 100, "k", before + 1))
        # B must observe the new value (invalid flag -> cache invalidate).
        row = sim.run_process(b.point_select("sbtest_shared", 100))
        assert row["k"] == before + 1

    def test_all_nodes_converge(self, setup):
        s, _ = setup
        sim = s.sim
        for i, node in enumerate(s.nodes):
            assert sim.run_process(
                node.point_update("sbtest_shared", 200, "k", 100 + i)
            )
        values = [
            sim.run_process(node.point_select("sbtest_shared", 200))["k"]
            for node in s.nodes
        ]
        assert values == [102, 102, 102]

    def test_without_flush_region_is_stale_negative_control(self, setup):
        """Prove the model catches protocol violations: a write that skips
        the flush step is invisible to other nodes."""
        s, _ = setup
        a, b = s.nodes[0], s.nodes[2]
        sim = s.sim
        engine = a.engine
        table = engine.tables["sbtest_shared"]
        base = sim.run_process(b.point_select("sbtest_shared", 300))["k"]
        # Write through A's cache but do NOT call flush_page_writes.
        mtr = engine.mtr()
        assert table.update_field(mtr, 300, "k", base + 7)
        mtr.commit()
        stale = sim.run_process(b.point_select("sbtest_shared", 300))
        assert stale["k"] == base  # b sees the old value: genuinely stale
        # Completing the protocol repairs it.
        mtr = engine.mtr()
        leaf = table.btree.leaf_page_id_for(mtr, 300)
        mtr.commit()
        engine.buffer_pool.flush_page_writes(leaf)
        fresh = sim.run_process(b.point_select("sbtest_shared", 300))
        assert fresh["k"] == base + 7

    def test_line_granular_flush(self, setup):
        s, _ = setup
        a = s.nodes[0]
        sim = s.sim
        before = a.engine.meter.counters.get("lines_flushed", 0)
        sim.run_process(a.point_update("sbtest_shared", 400, "k", 5))
        flushed = a.engine.meter.counters.get("lines_flushed", 0) - before
        # A one-column update dirties a handful of 64 B lines, not a page.
        assert 0 < flushed < 16

    def test_range_select_through_protocol(self, setup):
        s, _ = setup
        rows = s.sim.run_process(s.nodes[1].range_select("sbtest_shared", 50, 10))
        assert [row["id"] for row in rows] == list(range(50, 60))

    def test_private_tables_see_no_invalidations(self, setup):
        s, _ = setup
        sim = s.sim
        node = s.nodes[0]
        observed_before = node.engine.buffer_pool.invalidations_observed
        for key in range(10, 20):
            sim.run_process(node.point_update("sbtest_private_0", key, "k", 1))
            sim.run_process(node.point_select("sbtest_private_0", key))
        assert node.engine.buffer_pool.invalidations_observed == observed_before


class TestRemovalFlag:
    def test_recycled_page_refetched_via_rpc(self, setup):
        s, _ = setup
        sim = s.sim
        node = s.nodes[0]
        pool = node.engine.buffer_pool
        row = sim.run_process(node.point_select("sbtest_shared", 500))
        mtr = node.engine.mtr()
        leaf = node.engine.tables["sbtest_shared"].btree.leaf_page_id_for(mtr, 500)
        mtr.commit()
        assert s.fusion is not None
        # Force-recycle that page.
        s.fusion._entries.move_to_end(leaf, last=False)
        recycled = s.fusion.recycle(1, node.engine.meter, s.lock_service)
        assert recycled == [leaf]
        removals_before = pool.removals_observed
        row2 = sim.run_process(node.point_select("sbtest_shared", 500))
        assert row2["id"] == row["id"]
        assert pool.removals_observed == removals_before + 1

    def test_scan_and_reclaim_removed(self, setup):
        s, _ = setup
        sim = s.sim
        node = s.nodes[1]
        pool = node.engine.buffer_pool
        sim.run_process(node.point_select("sbtest_shared", 550))
        mtr = node.engine.mtr()
        leaf = node.engine.tables["sbtest_shared"].btree.leaf_page_id_for(mtr, 550)
        mtr.commit()
        s.fusion._entries.move_to_end(leaf, last=False)
        s.fusion.recycle(1, node.engine.meter, s.lock_service)
        assert pool.contains(leaf)
        reclaimed = pool.scan_and_reclaim_removed()
        assert reclaimed >= 1
        assert not pool.contains(leaf)


class TestSharedPoolLimits:
    def test_new_page_rejected(self, setup):
        s, _ = setup
        from repro.db.constants import PT_LEAF

        with pytest.raises(NotImplementedError):
            s.nodes[0].engine.buffer_pool.new_page(9999, PT_LEAF)

    def test_flush_page_rejected(self, setup):
        s, _ = setup
        with pytest.raises(NotImplementedError):
            s.nodes[0].engine.buffer_pool.flush_page(1)


class _FlushScanTracer(Tracer):
    """Rescans the flushed page's dirty lines when ``sharing.flush`` fires."""

    def __init__(self, pools):
        super().__init__()
        self.pools = pools
        self.scans = []

    def emit(self, subsystem, name, **fields):
        if (subsystem, name) == ("sharing", "flush"):
            pool = self.pools[fields["node"]]
            meta = pool._meta[fields["page"]]
            fresh = pool.cpu_cache.dirty_lines(pool.region, meta.data_offset, PAGE_SIZE)
            self.scans.append((fields["dirty_before"], fields["dirty_after"], fresh))
        super().emit(subsystem, name, **fields)


@pytest.mark.parametrize("skip_flush", [False, True])
def test_flush_event_dirty_after_equals_a_fresh_scan(skip_flush):
    setup = build_sharing_setup("cxl", 2, SysbenchWorkload(rows=120, n_nodes=2))
    pools = {node.node_id: node.engine.buffer_pool for node in setup.nodes}
    writer = setup.nodes[0]
    writer.engine.buffer_pool._mutate_skip_flush = skip_flush
    with _FlushScanTracer(pools) as tracer:
        for key in (5, 6, 90):
            assert setup.sim.run_process(
                writer.point_update("sbtest_shared", key, "k", 4242 + key)
            )
    assert tracer.scans
    for dirty_before, dirty_after, fresh in tracer.scans:
        assert dirty_after == fresh
        assert dirty_before > 0
        assert dirty_after == (dirty_before if skip_flush else 0)
