"""Property-based crash-consistency testing.

The central ACID claim of the reproduction: **whatever the workload and
wherever the crash lands, recovery produces exactly the committed
state** — for PolarRecv (from surviving CXL memory) and for vanilla
replay (from storage + log) alike, and the two agree with each other.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.vanilla_recovery import replay_recovery
from repro.hardware.host import Cluster
from repro.sim.core import Simulator

from ..conftest import (
    SMALL_CODEC,
    make_cxl_engine,
    make_local_engine,
    recover_cxl_ctx,
    row_for,
)


@st.composite
def histories(draw):
    """A committed prefix plus an uncommitted tail of table operations."""
    committed = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "update", "delete"]),
                    st.integers(1, 80),
                ),
                min_size=1,
                max_size=5,
            ),
            min_size=0,
            max_size=10,
        )
    )
    uncommitted = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(1, 80),
            ),
            max_size=4,
        )
    )
    return committed, uncommitted


def _apply(table, engine, model, ops, value_salt):
    """Apply ops in one transaction; mutate the model dict to match."""
    txn = engine.begin()
    mtr = txn.mtr()
    staged = dict(model)
    for op, key in ops:
        if op == "insert":
            if key not in staged:
                table.insert(mtr, key, row_for(key))
                staged[key] = key % 97
        elif op == "update":
            if table.update_field(mtr, key, "k", (key + value_salt) % 97):
                staged[key] = (key + value_salt) % 97
        else:
            if table.delete(mtr, key):
                staged.pop(key, None)
    mtr.commit()
    txn.commit()
    return staged


def _contents(engine):
    return {
        key: SMALL_CODEC.decode(payload)["k"]
        for key, payload in engine.tables["t"].btree.checked_scan(engine.mtr).records
    }


def _run_history(ctx, committed, uncommitted):
    """Run the history; returns the model of the committed state."""
    table = ctx.engine.create_table("t", SMALL_CODEC)
    # A durable baseline population.
    mtr = ctx.engine.mtr()
    model = {}
    for key in range(1, 41):
        table.insert(mtr, key, row_for(key))
        model[key] = key % 97
    mtr.commit()
    ctx.engine.redo_log.flush()
    ctx.engine.checkpoint()
    for salt, ops in enumerate(committed):
        model = _apply(table, ctx.engine, model, ops, salt)
    # The uncommitted tail: applied to pages, never flushed to the log.
    if uncommitted:
        mtr = ctx.engine.mtr()
        for op, key in uncommitted:
            if op == "insert":
                try:
                    table.insert(mtr, key, row_for(key))
                except KeyError:
                    pass
            elif op == "update":
                table.update_field(mtr, key, "k", 96)
            else:
                table.delete(mtr, key)
        mtr.commit()  # buffered only; the crash eats it
    return model


class TestCrashConsistency:
    @given(histories())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_polarrecv_recovers_exactly_committed_state(self, history):
        committed, uncommitted = history
        cluster = Cluster(Simulator())
        host = cluster.add_host("h")
        ctx = make_cxl_engine(cluster, host, n_blocks=96, name="prop")
        model = _run_history(ctx, committed, uncommitted)
        ctx.engine.crash()
        engine, _ = recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])
        assert _contents(engine) == model

    @given(histories())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_polarrecv_and_vanilla_agree(self, history):
        committed, uncommitted = history
        # PolarRecv over a CXL engine.
        cluster = Cluster(Simulator())
        host = cluster.add_host("h")
        cxl_ctx = make_cxl_engine(cluster, host, n_blocks=96, name="agree-cxl")
        model_cxl = _run_history(cxl_ctx, committed, uncommitted)
        cxl_ctx.engine.crash()
        engine_cxl, _ = recover_cxl_ctx(cxl_ctx, [("t", SMALL_CODEC)])

        # Vanilla replay over a DRAM engine with the same history.
        local_ctx = make_local_engine(host, name="agree-dram")
        model_dram = _run_history(local_ctx, committed, uncommitted)
        local_ctx.engine.crash()
        fresh = make_local_engine(
            host,
            name="agree-dram2",
            store=local_ctx.store,
            redo=local_ctx.redo,
            initialize=False,
        )
        replay_recovery(fresh.pool, local_ctx.store, local_ctx.redo)
        fresh.engine.adopt_schema([("t", SMALL_CODEC)])

        assert model_cxl == model_dram  # same deterministic history
        assert _contents(engine_cxl) == _contents(fresh.engine) == model_cxl


class TestCrashDuringLruMutation:
    @pytest.mark.parametrize("tag", ["lru"])
    def test_injected_crash_mid_lru_is_recoverable(self, cluster, host, tag):
        """Use the pool's crash hook to die exactly inside an LRU move."""

        class _Boom(Exception):
            pass

        ctx = make_cxl_engine(cluster, host, n_blocks=64, name="lruboom")
        table = ctx.engine.create_table("t", SMALL_CODEC)
        mtr = ctx.engine.mtr()
        rows = 300  # several leaves, so gets bounce the LRU head around
        for key in range(1, rows + 1):
            table.insert(mtr, key, row_for(key))
        mtr.commit()
        ctx.engine.redo_log.flush()
        ctx.engine.checkpoint()

        armed = {"count": 0}

        def hook(event):
            if event == tag:
                armed["count"] += 1
                if armed["count"] == 3:
                    raise _Boom()

        ctx.pool.crash_hook = hook
        with pytest.raises(_Boom):
            mtr = ctx.engine.mtr()
            for key in (1, 290, 1, 290, 1, 290):
                table.get(mtr, key)
            mtr.commit()
        ctx.pool.crash_hook = None
        # The flag was left set mid-mutation.
        assert ctx.pool.header.lru_mutation_flag
        ctx.engine.crash()
        engine, stats = recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])
        assert stats.lru_rebuilt
        contents = _contents(engine)
        assert set(contents) == set(range(1, 301))
