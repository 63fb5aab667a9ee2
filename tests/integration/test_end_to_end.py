"""End-to-end integration: drivers, harness builders, full experiments
at miniature scale."""

import pytest

from repro.bench.recovery_exp import run_recovery_experiment
from repro.obs.world import build_pooling_setup, build_sharing_setup, reset_meters
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcc import TpccWorkload


class TestPoolingEndToEnd:
    @pytest.mark.parametrize("system", ["dram", "cxl", "rdma"])
    def test_point_select_runs_and_measures(self, system):
        workload = SysbenchWorkload(rows=600)
        setup = build_pooling_setup(system, 2, workload)
        driver = PoolingDriver(
            setup.sim,
            setup.instances,
            workload.txn_fn("point_select"),
            workers_per_instance=4,
            warmup_txns=1,
            measure_txns=5,
        )
        result = driver.run()
        assert result.txns == 2 * 4 * 5
        assert result.queries == result.txns
        assert result.qps > 0
        assert result.avg_latency_ns > 0
        assert result.p95_latency_ns >= result.avg_latency_ns * 0.5

    def test_rdma_consumes_nic_cxl_does_not(self):
        workload = SysbenchWorkload(rows=600)
        rdma = build_pooling_setup("rdma", 1, workload)
        driver = PoolingDriver(
            rdma.sim, rdma.instances, workload.txn_fn("point_select"),
            workers_per_instance=4, warmup_txns=1, measure_txns=5,
        )
        res_rdma = driver.run()
        assert res_rdma.pipe_bandwidth["rdma"] > 0
        assert res_rdma.pipe_bandwidth["cxl"] == 0

        cxl = build_pooling_setup("cxl", 1, workload)
        driver = PoolingDriver(
            cxl.sim, cxl.instances, workload.txn_fn("point_select"),
            workers_per_instance=4, warmup_txns=1, measure_txns=5,
        )
        res_cxl = driver.run()
        assert res_cxl.pipe_bandwidth["cxl"] > 0
        assert res_cxl.pipe_bandwidth["rdma"] == 0
        # Read amplification: RDMA moves far more bytes per query.
        assert res_rdma.pipe_bandwidth["rdma"] > 2 * res_cxl.pipe_bandwidth["cxl"]

    def test_functional_consistency_across_systems(self):
        """The same seeded workload leaves identical table contents on
        all three buffer pools."""
        contents = {}
        for system in ("dram", "cxl", "rdma"):
            workload = SysbenchWorkload(rows=400)
            # Full-size LBP for rdma: dumping the whole table pins every
            # leaf within one mini-transaction.
            setup = build_pooling_setup(system, 1, workload, lbp_fraction=1.0)
            driver = PoolingDriver(
                setup.sim,
                setup.instances,
                workload.txn_fn("read_write"),
                workers_per_instance=2,
                warmup_txns=1,
                measure_txns=4,
            )
            driver.run()
            engine = setup.instances[0].engine
            table = engine.tables["sbtest1"]
            contents[system] = table.btree.checked_scan(engine.mtr).records
        assert contents["dram"] == contents["cxl"] == contents["rdma"]

    def test_reuse_setup_across_runs(self):
        workload = SysbenchWorkload(rows=400)
        setup = build_pooling_setup("cxl", 2, workload)
        first = PoolingDriver(
            setup.sim, setup.instances[:1], workload.txn_fn("point_select"),
            workers_per_instance=2, warmup_txns=1, measure_txns=3,
        ).run()
        reset_meters(setup.instances)
        second = PoolingDriver(
            setup.sim, setup.instances, workload.txn_fn("point_select"),
            workers_per_instance=2, warmup_txns=1, measure_txns=3,
        ).run()
        # Two instances deliver roughly twice one instance's throughput.
        assert second.qps > 1.6 * first.qps


class TestSharingEndToEnd:
    @pytest.mark.parametrize("system", ["cxl", "rdma"])
    def test_point_update_driver(self, system):
        workload = SysbenchWorkload(rows=400, n_nodes=2)
        setup = build_sharing_setup(system, 2, workload)
        driver = SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            workload.sharing_txn_fn("point_update"),
            shared_pct=50,
            cost=setup.cost,
            workers_per_node=4,
            warmup_txns=1,
            measure_txns=3,
        )
        result = driver.run()
        assert result.txns == 2 * 4 * 3
        assert result.queries == result.txns * 10
        assert result.qps > 0

    def test_contention_grows_with_sharing(self):
        workload = SysbenchWorkload(
            rows=400, n_nodes=3, key_dist="zipf", zipf_theta=0.9
        )
        setup = build_sharing_setup("cxl", 3, workload)
        waits = {}
        for pct in (0, 100):
            for node in setup.nodes:
                node.engine.meter.reset()
            driver = SharingDriver(
                setup.sim,
                setup.nodes,
                setup.hosts,
                workload.sharing_txn_fn("point_update"),
                shared_pct=pct,
                cost=setup.cost,
                workers_per_node=6,
                warmup_txns=1,
                measure_txns=3,
            )
            waits[pct] = driver.run().lock_waits
        assert waits[100] > waits[0]

    def test_tpcc_multi_primary(self):
        workload = TpccWorkload(
            warehouses=4, n_nodes=2, customers_per_district=40,
            items=50, order_ring=20,
        )
        setup = build_sharing_setup("cxl", 2, workload)
        driver = SharingDriver(
            setup.sim, setup.nodes, setup.hosts, workload.txn_ops,
            shared_pct=0.0, cost=setup.cost, workers_per_node=4, warmup_txns=1, measure_txns=3,
        )
        result = driver.run()
        assert result.txns == 2 * 4 * 3
        assert result.qps > 0

    def test_tatp_multi_primary(self):
        workload = TatpWorkload(subscribers_per_node=60, n_nodes=2)
        setup = build_sharing_setup("rdma", 2, workload)
        driver = SharingDriver(
            setup.sim, setup.nodes, setup.hosts, workload.txn_ops,
            shared_pct=0.0, cost=setup.cost, workers_per_node=4, warmup_txns=1, measure_txns=3,
        )
        result = driver.run()
        assert result.txns == 24

    def test_memory_accounting(self):
        workload = SysbenchWorkload(rows=400, n_nodes=2)
        cxl = build_sharing_setup("cxl", 2, workload)
        rdma = build_sharing_setup(
            "rdma", 2, SysbenchWorkload(rows=400, n_nodes=2)
        )
        # The RDMA system pays for LBPs on top of the DBP.
        assert rdma.total_memory_bytes() > cxl.total_memory_bytes()


class TestRecoveryEndToEnd:
    @pytest.mark.parametrize("scheme", ["polarrecv", "rdma", "vanilla"])
    def test_timeline_structure(self, scheme):
        timeline = run_recovery_experiment(
            scheme, mix="read_write", rows=2000, workers=4,
            phase1_txns=2, phase2_txns=4,
        )
        assert timeline.scheme == scheme
        assert timeline.pre_crash_qps > 0
        assert timeline.recovery_seconds >= 0
        assert timeline.series, "timeline must not be empty"
        # Time advances monotonically across the series.
        times = [t for t, _ in timeline.series]
        assert times == sorted(times)

    def test_polarrecv_faster_than_vanilla(self):
        kwargs = dict(mix="write_only", rows=6000, workers=6,
                      phase1_txns=3, phase2_txns=6)
        polar = run_recovery_experiment("polarrecv", **kwargs)
        vanilla = run_recovery_experiment("vanilla", **kwargs)
        assert polar.recovery_seconds < vanilla.recovery_seconds
