"""Odds and ends: table record size, schema limits, latch helper."""

import pytest

from repro.db.constants import KEY_BYTES, META_MAX_TREES
from repro.db.record import Field, RecordCodec

from ..conftest import SMALL_CODEC, fill_table, make_local_engine


@pytest.fixture
def ctx(host):
    return make_local_engine(host)


class TestTablePayloadApis:
    def test_record_size_property(self, ctx):
        table = ctx.engine.create_table("t", SMALL_CODEC)
        assert table.btree.record_size == KEY_BYTES + SMALL_CODEC.record_size


class TestSchemaLimits:
    def test_tree_slot_exhaustion(self, ctx):
        tiny = RecordCodec([Field("id", 8)])
        for index in range(META_MAX_TREES):
            ctx.engine.create_table(f"t{index}", tiny)
        with pytest.raises(RuntimeError, match="tree slots"):
            ctx.engine.create_table("overflow", tiny)


class TestLatchHelper:
    def test_latch_write_persists_until_commit(self, ctx):
        table = fill_table(ctx, rows=20)
        mtr = ctx.engine.mtr()
        leaf_id = table.btree.leaf_page_id_for(mtr, 5)
        view = mtr.get_page(leaf_id)
        mtr.latch_write(view)
        assert leaf_id in ctx.engine.latched_pages
        mtr.latch_write(view)  # idempotent
        mtr.commit()
        assert leaf_id not in ctx.engine.latched_pages


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        """Guard against accidental nondeterminism anywhere in the stack."""
        from repro.obs.world import build_pooling_setup
        from repro.workloads.driver import PoolingDriver
        from repro.workloads.sysbench import SysbenchWorkload

        outcomes = []
        for _ in range(2):
            workload = SysbenchWorkload(rows=500)
            setup = build_pooling_setup("cxl", 1, workload, seed=13)
            driver = PoolingDriver(
                setup.sim, setup.instances, workload.txn_fn("read_write"),
                workers_per_instance=3, warmup_txns=1, measure_txns=3,
            )
            result = driver.run()
            outcomes.append(
                (result.qps, result.avg_latency_ns, result.counters.get("redo_records"))
            )
        assert outcomes[0] == outcomes[1]
