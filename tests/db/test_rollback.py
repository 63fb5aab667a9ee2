"""Transaction rollback: before-image undo with redo-logged compensation."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ..conftest import SMALL_CODEC, fill_table, make_local_engine, row_for


@pytest.fixture
def ctx(host):
    return make_local_engine(host)


@pytest.fixture
def table(ctx):
    return fill_table(ctx, rows=300)


def snapshot(ctx, table):
    return dict(table.btree.checked_scan(ctx.engine.mtr).records)


class TestRollback:
    def test_update_rolled_back(self, ctx, table):
        before = snapshot(ctx, table)
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 42, "k", 77)
        mtr.commit()
        txn.rollback()
        assert snapshot(ctx, table) == before
        assert txn.rolled_back and not txn.committed

    def test_insert_rolled_back(self, ctx, table):
        before = snapshot(ctx, table)
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.insert(mtr, 1000, row_for(1000))
        mtr.commit()
        txn.rollback()
        assert snapshot(ctx, table) == before
        mtr = ctx.engine.mtr()
        assert table.get(mtr, 1000) is None
        mtr.commit()
        table.btree.checked_scan(ctx.engine.mtr)

    def test_delete_rolled_back(self, ctx, table):
        before = snapshot(ctx, table)
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        assert table.delete(mtr, 42)
        mtr.commit()
        txn.rollback()
        assert snapshot(ctx, table) == before

    def test_multi_mtr_txn_rolls_back_everything(self, ctx, table):
        before = snapshot(ctx, table)
        txn = ctx.engine.begin()
        for key in (10, 20, 30):
            mtr = txn.mtr()
            table.update_field(mtr, key, "k", 1)
            mtr.commit()
        mtr = txn.mtr()
        table.delete(mtr, 40)
        table.insert(mtr, 999, row_for(999))
        mtr.commit()
        applied = txn.rollback()
        assert applied > 0
        assert snapshot(ctx, table) == before

    def test_rollback_across_split_restores_structure(self, host):
        """Undo a transaction whose inserts split pages: the reverted
        tree must verify and match the pre-transaction contents."""
        from repro.db.record import Field, RecordCodec

        wide = RecordCodec([Field("id", 8), Field("pad", 2000, "bytes")])
        ctx = make_local_engine(host, capacity_pages=1024, name="rbsplit")
        table = ctx.engine.create_table("t", wide)
        mtr = ctx.engine.mtr()
        for key in range(1, 20):
            table.insert(mtr, key, {"id": key, "pad": b"p" * 2000})
        mtr.commit()
        ctx.engine.redo_log.flush()
        before = snapshot(ctx, table)

        txn = ctx.engine.begin()
        mtr = txn.mtr()
        for key in range(100, 140):  # forces several splits
            table.insert(mtr, key, {"id": key, "pad": b"q" * 2000})
        mtr.commit()
        txn.rollback()
        assert snapshot(ctx, table) == before
        assert len(before) == 19

    def test_rollback_is_durable(self, ctx, table):
        """An aborted transaction stays aborted across a crash: the
        compensation was redo-logged and flushed."""
        from repro.baselines.vanilla_recovery import replay_recovery

        ctx.engine.checkpoint()
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 42, "k", 77)
        mtr.commit()
        # Another committer group-flushes the buffer, making the
        # uncommitted forward write durable...
        other = ctx.engine.begin()
        mtr = other.mtr()
        table.update_field(mtr, 50, "k", 9)
        mtr.commit()
        other.commit()
        # ...then the first transaction aborts, durably.
        txn.rollback()
        expected = snapshot(ctx, table)
        ctx.engine.crash()

        fresh = make_local_engine(
            host=ctx.host, name="rb2", store=ctx.store, redo=ctx.redo,
            initialize=False,
        )
        replay_recovery(fresh.pool, ctx.store, ctx.redo)
        fresh.engine.adopt_schema([("t", SMALL_CODEC)])
        table2 = fresh.engine.tables["t"]
        recovered = dict(table2.btree.checked_scan(fresh.engine.mtr).records)
        assert SMALL_CODEC.decode(recovered[42])["k"] == row_for(42)["k"]
        assert SMALL_CODEC.decode(recovered[50])["k"] == 9
        assert recovered == expected

    def test_context_manager_rolls_back_on_exception(self, ctx, table):
        before = snapshot(ctx, table)
        with pytest.raises(RuntimeError, match="boom"):
            with ctx.engine.begin() as txn:
                mtr = txn.mtr()
                table.update_field(mtr, 42, "k", 77)
                mtr.commit()
                raise RuntimeError("boom")
        assert snapshot(ctx, table) == before

    def test_use_after_rollback_rejected(self, ctx, table):
        txn = ctx.engine.begin()
        txn.rollback()
        with pytest.raises(RuntimeError):
            txn.mtr()
        with pytest.raises(RuntimeError):
            txn.commit()
        with pytest.raises(RuntimeError):
            txn.rollback()

    def test_rollback_with_secondary_index(self, host):
        from repro.db.record import Field, RecordCodec

        codec = RecordCodec([Field("id", 8), Field("k", 4)])
        ctx = make_local_engine(host, name="rbidx")
        table = ctx.engine.create_table("t", codec, index_fields=("k",))
        mtr = ctx.engine.mtr()
        for key in range(1, 50):
            table.insert(mtr, key, {"id": key, "k": key % 5})
        mtr.commit()
        ctx.engine.redo_log.flush()

        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 7, "k", 4)
        table.delete(mtr, 8)
        mtr.commit()
        txn.rollback()
        mtr = ctx.engine.mtr()
        assert 7 in set(table.indexes["k"].lookup_pks(mtr, 7 % 5, limit=100))
        assert 7 not in set(table.indexes["k"].lookup_pks(mtr, 4, limit=100))
        assert 8 in set(table.indexes["k"].lookup_pks(mtr, 8 % 5, limit=100))
        mtr.commit()
        table.indexes["k"].btree.checked_scan(ctx.engine.mtr)


@st.composite
def txn_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(1, 400),
            ),
            min_size=1,
            max_size=25,
        )
    )


class TestRollbackProperty:
    @given(txn_ops())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_rollback_restores_exact_state(self, ops):
        from repro.hardware.host import Cluster
        from repro.sim.core import Simulator

        cluster = Cluster(Simulator())
        host = cluster.add_host("h")
        ctx = make_local_engine(host, name="rbprop")
        table = fill_table(ctx, rows=120)
        before = snapshot(ctx, table)
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        for op, key in ops:
            if op == "insert":
                try:
                    table.insert(mtr, key, row_for(key))
                except KeyError:
                    pass
            elif op == "update":
                table.update_field(mtr, key, "k", (key * 3) % 97)
            else:
                table.delete(mtr, key)
        mtr.commit()
        txn.rollback()
        assert snapshot(ctx, table) == before
