"""Multi-pool deployments (paper Fig. 5: two switch-backed pools)."""


from repro.core.memmgr import CxlMemoryManager
from repro.hardware.host import Cluster
from repro.obs.world import build_cxl_engine
from repro.sim.latency import CostModel

from ..conftest import fill_table, make_cxl_engine


class TestMultiplePools:
    def test_two_fabrics_are_independent(self, sim):
        cluster = Cluster(sim)
        second = cluster.add_fabric()
        assert cluster.fabric is not second
        assert len(cluster.fabrics) == 2
        a = cluster.fabric.map_pool(1 << 20)
        b = second.map_pool(1 << 20)
        a.write(0, b"pool-a")
        assert b.read(0, 6) == b"\x00" * 6
        assert a.name != b.name

    def test_hosts_attach_to_chosen_pool(self, sim):
        cluster = Cluster(sim)
        second = cluster.add_fabric("cxl-east")
        host_a = cluster.add_host("ha")
        host_b = cluster.add_host("hb", fabric=second)
        # Each host's CXL pipe chain ends at its own switch.
        assert cluster.fabric.switch.pipe in host_a.pipes["cxl"]
        assert second.switch.pipe in host_b.pipes["cxl"]
        assert second.switch.pipe not in host_a.pipes["cxl"]

    def test_pool_failure_isolated(self, sim):
        """One memory box dying does not touch the other pool's data."""
        cluster = Cluster(sim)
        second = cluster.add_fabric()
        region_a = cluster.fabric.map_pool(1 << 20)
        region_b = second.map_pool(1 << 20)
        region_a.write(0, b"A")
        region_b.write(0, b"B")
        cluster.fabric.power_fail_pool()
        assert region_a.read(0, 1) == b"\x00"
        assert region_b.read(0, 1) == b"B"

    def test_engines_on_different_pools(self, sim):
        """Two database instances, one per pool, fully isolated."""
        cluster = Cluster(sim)
        second = cluster.add_fabric()
        host_a = cluster.add_host("ha")
        host_b = cluster.add_host("hb", fabric=second)
        ctx_a = make_cxl_engine(cluster, host_a, n_blocks=48, name="pa")
        # Build the second engine against the second fabric.
        from repro.core.block import pool_bytes_needed
        from repro.db.constants import PAGE_SIZE
        from repro.hardware.cache import LineCacheModel
        from repro.hardware.memory import AccessMeter
        from repro.storage.pagestore import PageStore
        from repro.storage.wal import RedoLog

        meter = AccessMeter()
        manager_b = CxlMemoryManager(second, pool_bytes_needed(48) + (4 << 21))
        engine_b, _ = build_cxl_engine(
            "pb", host_b, manager_b, 48, meter, PageStore(PAGE_SIZE, meter),
            RedoLog(meter), LineCacheModel(), CostModel(), lru_move_period=1,
        )
        engine_b.initialize()

        table_a = fill_table(ctx_a, rows=40)
        from ..conftest import SMALL_CODEC, row_for

        table_b = engine_b.create_table("t", SMALL_CODEC)
        mtr = engine_b.mtr()
        table_b.insert(mtr, 1, row_for(1))
        mtr.commit()

        mtr_a = ctx_a.engine.mtr()
        assert table_a.get(mtr_a, 40)["id"] == 40
        mtr_a.commit()
        mtr_b = engine_b.mtr()
        assert table_b.get(mtr_b, 1)["id"] == 1
        assert table_b.get(mtr_b, 40) is None  # pools don't leak
        mtr_b.commit()
