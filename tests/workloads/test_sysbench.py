"""Sysbench workload: schema, loading, transaction mixes."""

import pytest

from repro.obs.world import build_pooling_setup
from repro.sim.latency import CostModel
from repro.sim.rng import WorkloadRng
from repro.workloads.base import TxnStats
from repro.workloads.sysbench import SYSBENCH_MIXES, SysbenchWorkload

from ..conftest import make_local_engine


@pytest.fixture
def loaded(host):
    ctx = make_local_engine(host, capacity_pages=1024)
    workload = SysbenchWorkload(rows=500)
    workload.load(ctx.engine)
    return ctx, workload


class TestLoading:
    def test_rows_loaded_and_durable(self, loaded):
        ctx, workload = loaded
        table = ctx.engine.tables["sbtest1"]
        mtr = ctx.engine.mtr()
        assert table.get(mtr, 1)["id"] == 1
        assert table.get(mtr, 500)["id"] == 500
        assert table.get(mtr, 501) is None
        mtr.commit()
        assert len(table.btree.checked_scan(ctx.engine.mtr).records) == 500
        # load_tables checkpoints: storage holds everything.
        assert len(ctx.store) > 1

    def test_sharing_layout_tables(self, host):
        ctx = make_local_engine(host, capacity_pages=2048, name="multi")
        workload = SysbenchWorkload(rows=100, n_nodes=3)
        workload.load(ctx.engine)
        names = {name for name, _ in workload.schema()}
        assert names == {
            "sbtest_private_0",
            "sbtest_private_1",
            "sbtest_private_2",
            "sbtest_shared",
        }
        assert set(ctx.engine.tables) == names

    def test_accessed_fraction(self):
        assert SysbenchWorkload(rows=100).accessed_fraction(4) == 1.0
        assert SysbenchWorkload(rows=100, n_nodes=4).accessed_fraction(4) == pytest.approx(0.4)


class TestSingleNodeMixes:
    @pytest.mark.parametrize("mix", SYSBENCH_MIXES)
    def test_every_mix_runs_and_counts(self, loaded, mix):
        ctx, workload = loaded
        txn_fn = workload.txn_fn(mix)
        rng = WorkloadRng(5)
        stats = txn_fn(ctx.engine, rng)
        assert isinstance(stats, TxnStats)
        expected_queries = {
            "point_select": 1,
            "range_select": 1,
            "read_only": 14,
            "read_write": 18,
            "write_only": 4,
            "point_update": 10,
        }[mix]
        assert stats.queries == expected_queries

    def test_unknown_mix_rejected(self, loaded):
        _, workload = loaded
        with pytest.raises(ValueError):
            workload.txn_fn("nope")

    def test_write_mixes_keep_row_count(self, loaded):
        ctx, workload = loaded
        rng = WorkloadRng(5)
        txn_fn = workload.txn_fn("write_only")
        for _ in range(30):
            txn_fn(ctx.engine, rng)
        table = ctx.engine.tables["sbtest1"]
        # delete+insert pairs keep the population constant.
        assert len(table.btree.checked_scan(ctx.engine.mtr).records) == 500

    def test_queries_charge_fixed_cost(self, loaded):
        ctx, workload = loaded
        ctx.meter.reset()
        workload.txn_fn("point_select")(ctx.engine, WorkloadRng(5))
        assert ctx.meter.ns >= ctx.engine.cost.query_fixed_ns

    def test_statements_charge_the_world_cost_model(self, monkeypatch):
        """The cost model handed to the builder is the one each statement
        charges: the workload keeps none of its own."""
        cost = CostModel(query_fixed_ns=55_555.0, range_row_ns=3_333.0)
        workload = SysbenchWorkload(rows=500)
        setup = build_pooling_setup("dram", 1, workload, cost=cost)
        engine = setup.instances[0].engine
        charged: list[float] = []
        charge = engine.meter.charge_ns

        def record(ns: float) -> None:
            charged.append(ns)
            charge(ns)

        monkeypatch.setattr(engine.meter, "charge_ns", record)
        rng = WorkloadRng(5)
        workload.txn_fn("point_select")(engine, rng)
        assert cost.query_fixed_ns in charged
        charged.clear()
        workload.txn_fn("range_select")(engine, rng)
        assert cost.range_row_ns * workload.range_size in charged
        assert cost.query_fixed_ns in charged

    def test_range_charges_client_bytes(self, loaded):
        ctx, workload = loaded
        ctx.meter.reset()
        workload.txn_fn("range_select")(ctx.engine, WorkloadRng(5))
        assert ctx.meter.counters.get("client_bytes", 0) >= 100 * 100


class TestSharingTxns:
    def test_point_update_ops(self):
        workload = SysbenchWorkload(rows=100, n_nodes=4)
        ops = workload.sharing_txn_point_update(WorkloadRng(1), 2, 50.0)
        assert len(ops) == 10
        assert all(op.kind == "update" for op in ops)
        tables = {op.table for op in ops}
        assert tables <= {"sbtest_private_2", "sbtest_shared"}

    def test_shared_pct_extremes(self):
        workload = SysbenchWorkload(rows=100, n_nodes=4)
        rng = WorkloadRng(1)
        ops0 = [
            op
            for _ in range(20)
            for op in workload.sharing_txn_point_update(rng, 1, 0.0)
        ]
        assert all(op.table == "sbtest_private_1" for op in ops0)
        ops100 = [
            op
            for _ in range(20)
            for op in workload.sharing_txn_point_update(rng, 1, 100.0)
        ]
        assert all(op.table == "sbtest_shared" for op in ops100)

    def test_read_write_mix_composition(self):
        workload = SysbenchWorkload(rows=500, n_nodes=2)
        ops = workload.sharing_txn_read_write(WorkloadRng(1), 0, 50.0)
        kinds = [op.kind for op in ops]
        assert kinds.count("select") == 10
        assert kinds.count("range") == 4
        assert kinds.count("update") == 4

    def test_sharing_requires_nodes(self):
        workload = SysbenchWorkload(rows=100)
        with pytest.raises(RuntimeError):
            workload.sharing_txn_point_update(WorkloadRng(1), 0, 50.0)

    def test_unknown_sharing_mix(self):
        workload = SysbenchWorkload(rows=100, n_nodes=2)
        with pytest.raises(ValueError):
            workload.sharing_txn_fn("write_only")

    def test_zipf_distribution_honored(self):
        workload = SysbenchWorkload(rows=1000, key_dist="zipf", zipf_theta=0.99)
        rng = WorkloadRng(2)
        keys = [workload.pick_key(rng) for _ in range(2000)]
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) > 20  # heavily skewed

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SysbenchWorkload(rows=5)
        with pytest.raises(ValueError):
            SysbenchWorkload(rows=100, key_dist="normal")
        with pytest.raises(ValueError):
            SysbenchWorkload(rows=100, n_nodes=2, with_k_index=True)


class TestKIndex:
    def test_index_loaded_and_maintained(self, host):
        ctx = make_local_engine(host, capacity_pages=2048, name="kidx")
        workload = SysbenchWorkload(rows=300, with_k_index=True)
        workload.load(ctx.engine)
        table = ctx.engine.tables["sbtest1"]
        assert "k" in table.indexes
        mtr = ctx.engine.mtr()
        k_of_5 = table.get(mtr, 5)["k"]
        assert 5 in set(table.indexes["k"].lookup_pks(mtr, k_of_5, limit=500))
        mtr.commit()
        # update_index moves the entry through the workload path.
        rng = WorkloadRng(5)
        for _ in range(20):
            workload.txn_fn("write_only")(ctx.engine, rng)
        entries = table.indexes["k"].btree.checked_scan(ctx.engine.mtr).records
        records = table.btree.checked_scan(ctx.engine.mtr).records
        assert len(entries) == len(records)

    def test_schema_includes_index_fields(self):
        workload = SysbenchWorkload(rows=100, with_k_index=True)
        assert workload.schema()[0][2] == ("k",)
