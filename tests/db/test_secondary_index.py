"""Secondary indexes: maintenance, queries, recovery."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.record import Field, RecordCodec

from ..conftest import make_local_engine

CODEC = RecordCodec(
    [Field("id", 8), Field("k", 4), Field("c", 40, "bytes")]
)


def row(key, k=None):
    return {"id": key, "k": k if k is not None else key % 10, "c": b"x" * 40}


@pytest.fixture
def ctx(host):
    return make_local_engine(host, capacity_pages=1024)


@pytest.fixture
def table(ctx):
    table = ctx.engine.create_table("t", CODEC, index_fields=("k",))
    mtr = ctx.engine.mtr()
    for key in range(1, 201):
        table.insert(mtr, key, row(key))
    mtr.commit()
    ctx.engine.redo_log.flush()
    return table


class TestIndexQueries:
    def test_find_by_returns_matching_rows(self, ctx, table):
        mtr = ctx.engine.mtr()
        rows = table.find_by(mtr, "k", 3)
        mtr.commit()
        assert {r["id"] for r in rows} == {key for key in range(1, 201) if key % 10 == 3}
        assert all(r["k"] == 3 for r in rows)

    def test_find_by_missing_value_empty(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.find_by(mtr, "k", 9999) == []
        mtr.commit()

    def test_find_by_unindexed_field_raises(self, ctx, table):
        mtr = ctx.engine.mtr()
        with pytest.raises(KeyError):
            table.find_by(mtr, "c", 1)
        mtr.commit()

    def test_limit_respected(self, ctx, table):
        mtr = ctx.engine.mtr()
        rows = table.find_by(mtr, "k", 3, limit=5)
        mtr.commit()
        assert len(rows) == 5

    def test_results_in_pk_order(self, ctx, table):
        mtr = ctx.engine.mtr()
        ids = [r["id"] for r in table.find_by(mtr, "k", 7)]
        mtr.commit()
        assert ids == sorted(ids)


class TestIndexMaintenance:
    def test_update_moves_index_entry(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.update_field(mtr, 13, "k", 42)
        mtr.commit()
        mtr = ctx.engine.mtr()
        assert 13 in {r["id"] for r in table.find_by(mtr, "k", 42)}
        assert 13 not in {r["id"] for r in table.find_by(mtr, "k", 3)}
        mtr.commit()

    def test_update_to_same_value_is_noop_on_index(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.update_field(mtr, 13, "k", 3)
        mtr.commit()
        mtr = ctx.engine.mtr()
        assert 13 in {r["id"] for r in table.find_by(mtr, "k", 3)}
        mtr.commit()

    def test_delete_removes_index_entry(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.delete(mtr, 13)
        mtr.commit()
        mtr = ctx.engine.mtr()
        assert 13 not in {r["id"] for r in table.find_by(mtr, "k", 3)}
        mtr.commit()

    def test_unindexed_update_cheaper_than_indexed(self, ctx, table):
        ctx.meter.reset()
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 20, "c", b"y" * 40)
        mtr.commit()
        plain = ctx.meter.counters.get("redo_records", 0)
        ctx.meter.reset()
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 20, "k", 99)
        mtr.commit()
        indexed = ctx.meter.counters.get("redo_records", 0)
        assert indexed > plain  # the index entry moved too

    def test_index_consistent_with_table(self, ctx, table):
        """Exhaustive cross-check after a batch of mixed operations."""
        mtr = ctx.engine.mtr()
        for key in range(1, 60):
            if key % 3 == 0:
                table.delete(mtr, key)
            elif key % 3 == 1:
                table.update_field(mtr, key, "k", (key * 7) % 50)
        mtr.commit()
        expected: dict[int, set] = {}
        for key, payload in table.btree.checked_scan(ctx.engine.mtr).records:
            k = CODEC.decode(payload)["k"]
            expected.setdefault(k, set()).add(key)
        mtr = ctx.engine.mtr()
        for k, pks in expected.items():
            assert set(table.indexes["k"].lookup_pks(mtr, k, limit=500)) == pks
        mtr.commit()
        # And the index holds nothing extra.
        index_entries = table.indexes["k"].btree.checked_scan(ctx.engine.mtr).records
        assert len(index_entries) == sum(len(v) for v in expected.values())


class TestIndexRecovery:
    def test_index_survives_crash_via_polarrecv(self, cluster, host):
        from ..conftest import make_cxl_engine, recover_cxl_ctx

        ctx = make_cxl_engine(cluster, host, n_blocks=96, name="idxrec")
        table = ctx.engine.create_table("t", CODEC, index_fields=("k",))
        mtr = ctx.engine.mtr()
        for key in range(1, 101):
            table.insert(mtr, key, row(key))
        mtr.commit()
        ctx.engine.redo_log.flush()
        ctx.engine.checkpoint()
        # A committed indexed update, then an uncommitted one.
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        table.update_field(mtr, 5, "k", 88)
        mtr.commit()
        txn.commit()
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 6, "k", 99)  # lost at crash
        mtr.commit()
        ctx.engine.crash()

        engine, _ = recover_cxl_ctx(ctx, [("t", CODEC, ("k",))])
        table2 = engine.tables["t"]
        mtr = engine.mtr()
        assert 5 in {r["id"] for r in table2.find_by(mtr, "k", 88)}
        assert table2.find_by(mtr, "k", 99) == []
        assert 6 in {r["id"] for r in table2.find_by(mtr, "k", 6 % 10)}
        mtr.commit()
        table2.btree.checked_scan(engine.mtr)
        table2.indexes["k"].btree.checked_scan(engine.mtr)


class TestValidation:
    def test_wide_column_rejected(self, ctx):
        wide = RecordCodec([Field("id", 8), Field("big", 8)])
        with pytest.raises(ValueError, match="4 bytes"):
            ctx.engine.create_table("w", wide, index_fields=("big",))

    def test_slot_accounting_includes_indexes(self, ctx):
        before = ctx.engine._next_tree_slot
        ctx.engine.create_table("t", CODEC, index_fields=("k",))
        assert ctx.engine._next_tree_slot == before + 2


@st.composite
def index_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "update"]),
                st.integers(1, 50),
                st.integers(0, 15),
            ),
            min_size=1,
            max_size=80,
        )
    )


class TestIndexProperty:
    @given(index_ops())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_index_always_mirrors_table(self, ops):
        from repro.hardware.host import Cluster
        from repro.sim.core import Simulator

        cluster = Cluster(Simulator())
        host = cluster.add_host("h")
        ctx = make_local_engine(host, capacity_pages=512, name="idxprop")
        table = ctx.engine.create_table("t", CODEC, index_fields=("k",))
        model: dict[int, int] = {}
        for op, key, k in ops:
            mtr = ctx.engine.mtr()
            if op == "insert" and key not in model:
                table.insert(mtr, key, row(key, k=k))
                model[key] = k
            elif op == "delete":
                assert table.delete(mtr, key) == (key in model)
                model.pop(key, None)
            elif op == "update":
                assert table.update_field(mtr, key, "k", k) == (key in model)
                if key in model:
                    model[key] = k
            mtr.commit()
        mtr = ctx.engine.mtr()
        by_value: dict[int, set] = {}
        for pk, k in model.items():
            by_value.setdefault(k, set()).add(pk)
        for k in range(0, 16):
            assert set(
                table.indexes["k"].lookup_pks(mtr, k, limit=500)
            ) == by_value.get(k, set())
        mtr.commit()
