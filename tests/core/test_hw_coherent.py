"""The modeled CXL 3.0 hardware-coherent shared pool."""

import pytest

from repro.obs.world import build_sharing_setup
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload


@pytest.fixture(scope="module")
def setup():
    workload = SysbenchWorkload(rows=500, n_nodes=2)
    return build_sharing_setup("cxl3", 2, workload), workload


class TestHwCoherent:
    def test_cross_node_visibility_without_protocol(self, setup):
        s, _ = setup
        a, b = s.nodes
        sim = s.sim
        sim.run_process(b.point_select("sbtest_shared", 100))
        sim.run_process(a.point_update("sbtest_shared", 100, "k", 777))
        row = sim.run_process(b.point_select("sbtest_shared", 100))
        assert row["k"] == 777

    def test_no_flag_traffic(self, setup):
        s, _ = setup
        sim = s.sim
        a, b = s.nodes
        sim.run_process(b.point_select("sbtest_shared", 200))
        sim.run_process(a.point_update("sbtest_shared", 200, "k", 5))
        for node in s.nodes:
            counters = node.engine.meter.counters
            assert "flag_reads" not in counters
            assert counters.get("lines_flushed", 0) == 0
        assert s.fusion is not None
        assert s.fusion.invalidations_pushed == 0

    def test_flush_page_writes_is_noop_but_marks_dirty(self, setup):
        s, _ = setup
        node = s.nodes[0]
        sim = s.sim
        sim.run_process(node.point_select("sbtest_shared", 300))
        mtr = node.engine.mtr()
        leaf = node.engine.tables["sbtest_shared"].btree.leaf_page_id_for(mtr, 300)
        mtr.commit()
        assert node.engine.buffer_pool.flush_page_writes(leaf) == 0
        assert s.fusion.entry_of(leaf).dirty

    def test_driver_runs(self, setup):
        s, workload = setup
        driver = SharingDriver(
            s.sim, s.nodes, s.hosts,
            workload.sharing_txn_fn("point_update"), shared_pct=50,
            cost=s.cost,
            workers_per_node=3, warmup_txns=1, measure_txns=2,
        )
        result = driver.run()
        assert result.txns == 12
        assert result.qps > 0

    def test_new_page_rejected(self, setup):
        from repro.db.constants import PT_LEAF

        s, _ = setup
        with pytest.raises(NotImplementedError):
            s.nodes[0].engine.buffer_pool.new_page(9999, PT_LEAF)

    def test_not_slower_than_software_protocol(self):
        qps = {}
        for system in ("cxl", "cxl3"):
            workload = SysbenchWorkload(
                rows=600, n_nodes=2, key_dist="zipf", zipf_theta=0.9
            )
            s = build_sharing_setup(system, 2, workload)
            driver = SharingDriver(
                s.sim, s.nodes, s.hosts,
                workload.sharing_txn_fn("point_update"), shared_pct=60,
                cost=s.cost,
                workers_per_node=4, warmup_txns=1, measure_txns=3,
            )
            qps[system] = driver.run().qps
        assert qps["cxl3"] >= qps["cxl"] * 0.98
