"""PoolingDriver / SharingDriver mechanics."""

import pytest

from repro.obs.world import build_pooling_setup, build_sharing_setup
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload


@pytest.fixture(scope="module")
def pooling():
    workload = SysbenchWorkload(rows=400)
    return build_pooling_setup("dram", 2, workload), workload


class TestPoolingDriver:
    def test_txn_accounting(self, pooling):
        setup, workload = pooling
        driver = PoolingDriver(
            setup.sim, setup.instances, workload.txn_fn("read_only"),
            workers_per_instance=3, warmup_txns=2, measure_txns=4,
        )
        result = driver.run()
        assert result.txns == 2 * 3 * 4
        assert result.queries == result.txns * 14
        assert driver.latency.count == result.txns

    def test_warmup_not_measured(self, pooling):
        setup, workload = pooling
        driver = PoolingDriver(
            setup.sim, setup.instances[:1], workload.txn_fn("point_select"),
            workers_per_instance=2, warmup_txns=5, measure_txns=1,
        )
        result = driver.run()
        assert result.txns == 2  # only the measured ones

    def test_elapsed_positive_and_rates_consistent(self, pooling):
        setup, workload = pooling
        driver = PoolingDriver(
            setup.sim, setup.instances[:1], workload.txn_fn("point_select"),
            workers_per_instance=2, warmup_txns=1, measure_txns=4,
        )
        result = driver.run()
        assert result.elapsed_ns > 0
        assert result.tps == pytest.approx(
            result.txns * 1e9 / result.elapsed_ns
        )
        assert result.qps == pytest.approx(result.tps)  # 1 query per txn

    def test_to_dict_flat_export(self, pooling):
        setup, workload = pooling
        driver = PoolingDriver(
            setup.sim, setup.instances[:1], workload.txn_fn("point_select"),
            workers_per_instance=2, warmup_txns=1, measure_txns=2,
        )
        exported = driver.run().to_dict()
        assert exported["txns"] == 4
        assert exported["qps"] > 0
        assert any(key.startswith("bw_") for key in exported)

    def test_timeline_records_queries(self, pooling):
        from repro.sim.stats import TimeSeries

        setup, workload = pooling
        timeline = TimeSeries(bucket_ns=1_000_000)
        driver = PoolingDriver(
            setup.sim, setup.instances[:1], workload.txn_fn("point_select"),
            workers_per_instance=2, warmup_txns=0, measure_txns=3,
            timeline=timeline,
        )
        result = driver.run()
        total = sum(
            rate * (timeline.bucket_ns / 1e9) for _, rate in timeline.series()
        )
        assert round(total) == result.queries


class TestSharingDriver:
    def test_counts_and_locks(self):
        workload = SysbenchWorkload(rows=300, n_nodes=2)
        setup = build_sharing_setup("cxl", 2, workload)
        driver = SharingDriver(
            setup.sim, setup.nodes, setup.hosts,
            workload.sharing_txn_fn("point_update"), shared_pct=100,
            cost=setup.cost,
            workers_per_node=3, warmup_txns=1, measure_txns=2,
        )
        result = driver.run()
        assert result.txns == 2 * 3 * 2
        assert result.queries == result.txns * 10
        assert result.lock_waits >= 0
        assert setup.lock_service.acquires > 0

    def test_unknown_op_kind_rejected(self):
        workload = SysbenchWorkload(rows=300, n_nodes=2)
        setup = build_sharing_setup("cxl", 2, workload)
        from repro.workloads.base import Op

        driver = SharingDriver(
            setup.sim, setup.nodes, setup.hosts,
            lambda rng, node, pct: [Op("truncate", "sbtest_shared", 1)],
            shared_pct=0,
            cost=setup.cost,
            workers_per_node=1, warmup_txns=0, measure_txns=1,
        )
        with pytest.raises(ValueError):
            driver.run()
