"""TPC-C and TATP workloads: key encodings, loading, transaction mixes."""

import pytest

from repro.sim.rng import WorkloadRng
from repro.workloads.tatp import TATP_MIX, TatpWorkload
from repro.workloads.tpcc import TPCC_MIX, TpccWorkload

from ..conftest import make_local_engine


class TestTpccKeys:
    def test_encodings_are_injective(self):
        workload = TpccWorkload(warehouses=4, n_nodes=2)
        keys = set()
        for w in range(4):
            keys.add(("w", workload.wh_key(w)))
            for d in range(workload.dpw):
                keys.add(("d", workload.district_key(w, d)))
                for c in range(0, workload.cpd, 37):
                    keys.add(("c", workload.customer_key(w, d, c)))
                for slot in range(0, workload.ring, 17):
                    keys.add(("o", workload.order_key(w, d, slot)))
                    for line in range(workload.max_ol):
                        keys.add(
                            ("ol", workload.order_line_key(w, d, slot, line))
                        )
        # Within each table, keys are unique.
        per_table: dict[str, list[int]] = {}
        for table, key in keys:
            per_table.setdefault(table, []).append(key)
        for table, table_keys in per_table.items():
            assert len(table_keys) == len(set(table_keys)), table

    def test_needs_warehouse_per_node(self):
        with pytest.raises(ValueError):
            TpccWorkload(warehouses=2, n_nodes=4)


@pytest.fixture(scope="module")
def tpcc_loaded():
    from repro.hardware.host import Cluster
    from repro.sim.core import Simulator

    cluster = Cluster(Simulator())
    host = cluster.add_host("h")
    ctx = make_local_engine(host, capacity_pages=4096, name="tpcc")
    workload = TpccWorkload(
        warehouses=4,
        n_nodes=2,
        customers_per_district=40,
        items=50,
        order_ring=20,
    )
    workload.load(ctx.engine)
    return ctx, workload


class TestTpccTxns:
    def test_load_populates_all_tables(self, tpcc_loaded):
        ctx, workload = tpcc_loaded
        mtr = ctx.engine.mtr()
        assert ctx.engine.tables["warehouse"].get(mtr, workload.wh_key(0))
        assert ctx.engine.tables["stock"].get(mtr, workload.stock_key(3, 49))
        assert ctx.engine.tables["order_line"].get(
            mtr, workload.order_line_key(3, 1, 19, 4)
        )
        mtr.commit()

    def test_mix_distribution(self, tpcc_loaded):
        _, workload = tpcc_loaded
        rng = WorkloadRng(4)
        sizes = []
        new_orders = 0
        for _ in range(300):
            ops = workload.txn_ops(rng, 0, 0.0)
            assert ops
            sizes.append(len(ops))
            if any(op.table == "order_line" and op.kind == "update" for op in ops):
                new_orders += 1
        # NewOrder is ~45% of the mix.
        assert 90 <= new_orders <= 180

    def test_home_warehouse_partitioning(self, tpcc_loaded):
        _, workload = tpcc_loaded
        rng = WorkloadRng(4)
        for node in range(2):
            for _ in range(50):
                w = workload.home_warehouse(rng, node)
                assert w % 2 == node

    def test_every_txn_kind_executes_functionally(self, tpcc_loaded):
        ctx, workload = tpcc_loaded
        rng = WorkloadRng(5)
        engine = ctx.engine
        for kind, _ in TPCC_MIX:
            ops = getattr(workload, f"_ops_{kind}")(rng, 0)
            for op in ops:
                table = engine.tables[op.table]
                mtr = engine.mtr()
                if op.kind == "select":
                    assert table.get(mtr, op.key) is not None, (kind, op)
                elif op.kind == "update":
                    assert table.update_field(mtr, op.key, op.field, op.value), (
                        kind,
                        op,
                    )
                else:
                    rows = table.range(mtr, op.key, op.count)
                    assert rows, (kind, op)
                mtr.commit()

    def test_cross_warehouse_rate(self, tpcc_loaded):
        _, workload = tpcc_loaded
        rng = WorkloadRng(6)
        remote = 0
        total = 0
        for _ in range(200):
            ops = workload._ops_new_order(rng, 0)
            for op in ops:
                if op.table == "stock":
                    total += 1
                    w = (op.key - 1) // workload.items
                    if w % 2 != 0:
                        remote += 1
        # ~10% of stock touches are cross-warehouse.
        assert 0.02 < remote / total < 0.25

    def test_accessed_fraction_partitioned(self):
        workload = TpccWorkload(warehouses=15, n_nodes=15)
        assert workload.accessed_fraction(15) == pytest.approx(0.1)


@pytest.fixture(scope="module")
def tatp_loaded():
    from repro.hardware.host import Cluster
    from repro.sim.core import Simulator

    cluster = Cluster(Simulator())
    host = cluster.add_host("h")
    ctx = make_local_engine(host, capacity_pages=4096, name="tatp")
    workload = TatpWorkload(subscribers_per_node=50, n_nodes=3)
    workload.load(ctx.engine)
    return ctx, workload


class TestTatp:
    def test_population(self, tatp_loaded):
        ctx, workload = tatp_loaded
        assert workload.population == 150
        mtr = ctx.engine.mtr()
        assert ctx.engine.tables["subscriber"].get(mtr, workload.sub_key(149))
        assert ctx.engine.tables["call_forwarding"].get(
            mtr, workload.cf_key(149, 3, 2)
        )
        mtr.commit()

    def test_all_ops_stay_in_partition(self, tatp_loaded):
        _, workload = tatp_loaded
        rng = WorkloadRng(7)
        for node in range(3):
            low = node * 50
            high = low + 50
            for _ in range(100):
                ops = workload.txn_ops(rng, node, 0.0)
                for op in ops:
                    if op.table == "subscriber":
                        s = op.key - 1
                    elif op.table == "access_info":
                        s = (op.key - 1) // 4
                    elif op.table == "special_facility":
                        s = (op.key - 1) // 4
                    else:
                        s = (op.key - 1) // 12
                    assert low <= s < high

    def test_mix_is_read_heavy(self, tatp_loaded):
        _, workload = tatp_loaded
        rng = WorkloadRng(8)
        reads = writes = 0
        for _ in range(400):
            for op in workload.txn_ops(rng, 0, 0.0):
                if op.kind == "update":
                    writes += 1
                else:
                    reads += 1
        # TATP is ~80% read transactions.
        assert reads > 2.0 * writes

    def test_every_txn_kind_executes_functionally(self, tatp_loaded):
        ctx, workload = tatp_loaded
        rng = WorkloadRng(9)
        for kind, _ in TATP_MIX:
            ops = getattr(workload, f"_ops_{kind}")(rng, 1)
            for op in ops:
                table = ctx.engine.tables[op.table]
                mtr = ctx.engine.mtr()
                if op.kind == "select":
                    assert table.get(mtr, op.key) is not None, (kind, op)
                else:
                    assert table.update_field(mtr, op.key, op.field, op.value), (
                        kind,
                        op,
                    )
                mtr.commit()

    def test_validation(self):
        with pytest.raises(ValueError):
            TatpWorkload(subscribers_per_node=5, n_nodes=2)
