"""Failure injection beyond the paper's fault model, and edge cases."""

import pytest

from repro.bench.recovery_exp import run_recovery_experiment
from repro.faults.injector import FaultInjector, InjectedCrash

from ..conftest import SMALL_CODEC, fill_table, make_cxl_engine, recover_cxl_ctx


class TestCxlBoxFailure:
    def test_pool_box_failure_breaks_attach(self, cluster, host):
        """Losing the CXL memory box (outside the paper's fault model)
        zeroes the pool; recovery must refuse the garbage, not limp on."""
        ctx = make_cxl_engine(cluster, host, n_blocks=32, name="boxfail")
        fill_table(ctx, rows=50)
        ctx.engine.crash()
        cluster.fabric.power_fail_pool()
        with pytest.raises(ValueError, match="unformatted"):
            recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])

    def test_storage_still_recovers_after_box_failure(self, cluster, host):
        """The durable tier is the last line of defense: a box failure
        plus vanilla replay still yields every checkpointed row."""
        from repro.baselines.vanilla_recovery import replay_recovery
        from ..conftest import make_local_engine

        ctx = make_cxl_engine(cluster, host, n_blocks=64, name="boxfail2")
        fill_table(ctx, rows=120)
        ctx.engine.checkpoint()
        ctx.engine.crash()
        cluster.fabric.power_fail_pool()

        fresh = make_local_engine(
            host, name="fallback", store=ctx.store, redo=ctx.redo,
            initialize=False,
        )
        replay_recovery(fresh.pool, ctx.store, ctx.redo)
        fresh.engine.adopt_schema([("t", SMALL_CODEC)])
        mtr = fresh.engine.mtr()
        assert fresh.engine.tables["t"].get(mtr, 60)["id"] == 60
        stats = fresh.engine.tables["t"].btree.verify(mtr)
        mtr.commit()
        assert stats["records"] == 120


class TestDoubleCrash:
    def test_crash_during_recovery_is_rerunnable(self, cluster, host):
        """PolarRecv itself dies; a second attempt from the same extent
        still converges to the committed state."""
        ctx = make_cxl_engine(cluster, host, n_blocks=64, name="double")
        table = fill_table(ctx, rows=100)
        ctx.engine.checkpoint()
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 5, "k", 42)
        mtr.commit()
        txn.commit()
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 6, "k", 43)  # lost
        mtr.commit()
        ctx.engine.crash()

        # First recovery attempt runs... and the host dies again right
        # after (before the engine is rebuilt). State in CXL: whatever
        # the first pass wrote.
        recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])

        # Second attempt.
        engine, _ = recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])
        mtr = engine.mtr()
        assert engine.tables["t"].get(mtr, 5)["k"] == 42
        assert engine.tables["t"].get(mtr, 6)["k"] == 6 % 97
        engine.tables["t"].btree.verify(mtr)
        mtr.commit()

    @pytest.mark.parametrize(
        "point",
        [
            "recovery.scan",
            "recovery.rebuild.image",
            "recovery.rebuild.marked",
            "recovery.rebuild.done",
            "recovery.lru",
            "recovery.done",
        ],
    )
    def test_recovery_reentrant_at_every_internal_point(
        self, cluster, host, point
    ):
        """PolarRecv is killed at each of its own crash points (including
        a torn rebuild write); a full power cycle plus a second recovery
        still converges to exactly the committed state."""
        ctx = make_cxl_engine(cluster, host, n_blocks=64, name="reentry")
        table = fill_table(ctx, rows=100)
        ctx.engine.checkpoint()
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 5, "k", 42)
        mtr.commit()
        txn.commit()
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 6, "k", 43)  # lost: never flushed
        mtr.commit()
        ctx.engine.crash()
        host.crash()
        host.restart()

        with pytest.raises(InjectedCrash):
            with FaultInjector().arm(point):
                recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])

        # Recovery died; the host power-cycles again and retries.
        host.crash()
        host.restart()
        engine, _ = recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])
        mtr = engine.mtr()
        assert engine.tables["t"].get(mtr, 5)["k"] == 42
        assert engine.tables["t"].get(mtr, 6)["k"] == 6 % 97
        stats = engine.tables["t"].btree.verify(mtr)
        mtr.commit()
        assert stats["records"] == 100


class TestSharingWithTinyCpuCache:
    def test_capacity_evictions_do_not_break_coherency(self, sim):
        """A 32-line CPU cache forces constant background write-backs of
        dirty lines mid-critical-section; the protocol must still never
        serve stale data (write-backs only ever *advance* the region)."""
        from repro.obs.world import build_sharing_setup
        from repro.workloads.sysbench import SysbenchWorkload

        workload = SysbenchWorkload(rows=400, n_nodes=2)
        setup = build_sharing_setup("cxl", 2, workload)
        for node in setup.nodes:
            node.engine.buffer_pool.cpu_cache.capacity_lines = 32
        a, b = setup.nodes
        for i in range(10):
            setup.sim.run_process(
                a.point_update("sbtest_shared", 100 + i, "k", i)
            )
            row = setup.sim.run_process(b.point_select("sbtest_shared", 100 + i))
            assert row["k"] == i
        assert a.engine.buffer_pool.cpu_cache.write_backs > 0


class TestRecoveryExperimentValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_recovery_experiment("timetravel")


class TestMeterTransferAccounting:
    def test_pooling_counters_track_amplification(self):
        """The RDMA instance's rdma_bytes per query dwarf the touched
        bytes — the paper's amplification metric, measurable directly."""
        from repro.obs.world import build_pooling_setup
        from repro.workloads.driver import PoolingDriver
        from repro.workloads.sysbench import SysbenchWorkload

        workload = SysbenchWorkload(rows=1500)
        setup = build_pooling_setup("rdma", 1, workload)
        driver = PoolingDriver(
            setup.sim, setup.instances, workload.txn_fn("point_select"),
            workers_per_instance=4, warmup_txns=2, measure_txns=8,
        )
        result = driver.run()
        transferred = result.counters["rdma_bytes"]
        returned = result.counters["client_bytes"]  # the data actually asked for
        # §2.2: "significant read/write amplification (up to dozens of
        # times)" — whole 16 KB pages move for a few hundred result bytes.
        assert transferred > 20 * returned
