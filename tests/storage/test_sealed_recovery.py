"""Recovery over a sealed log reads what it reads over an unsealed one.

The same crashed world is built twice: once with segments small enough
that the records past the checkpoint span several sealed segments, once
with segments larger than the whole log. PolarRecv and vanilla replay
must recover the same rows from both, and charge the same storage bytes.
"""

from unittest import mock

import pytest

from repro.baselines.vanilla_recovery import replay_recovery
from repro.db.engine import Engine
from repro.hardware.host import Cluster
from repro.sim.core import Simulator
from repro.storage import wal

from ..conftest import SMALL_CODEC, fill_table, make_cxl_engine, make_local_engine, recover_cxl_ctx

ROWS = 300
SCHEMA = [("t", SMALL_CODEC)]
SMALL_SEGMENT = 1024
WHOLE_LOG = 1 << 30


def _crash_after_updates(ctx) -> None:
    """Checkpoint a loaded table, commit updates that hit key 10's page in
    every transaction, lose one more update of that page, then crash."""
    table = fill_table(ctx, rows=ROWS)
    ctx.engine.checkpoint()
    for round_ in range(40):
        txn = ctx.engine.begin()
        mtr = txn.mtr()
        for key in (10, 150, 290, 1 + (7 * round_) % ROWS):
            table.update_field(mtr, key, "k", round_ * 1000 + key)
        mtr.commit()
        txn.commit()
    mtr = ctx.engine.mtr()
    table.update_field(mtr, 10, "k", 999_999)
    mtr.commit()  # buffered, never flushed: lost at the crash
    ctx.engine.crash()


def _rows(engine: Engine) -> list:
    mtr = engine.mtr()
    rows = [engine.tables["t"].get(mtr, key) for key in range(1, ROWS + 1)]
    mtr.commit()
    return rows


def _recovered(system: str, segment_bytes: int) -> tuple:
    """The crashed world recovered by ``system`` with the log sealed
    every ``segment_bytes``: (log, storage bytes charged, rows)."""
    cluster = Cluster(Simulator())
    host = cluster.add_host("h0")
    with mock.patch.object(wal, "_SEGMENT_BYTES", segment_bytes):
        if system == "polarrecv":
            ctx = make_cxl_engine(cluster, host, n_blocks=128)
            _crash_after_updates(ctx)
            engine, stats = recover_cxl_ctx(ctx, SCHEMA)
            assert stats.log_scanned
        else:
            ctx = make_local_engine(host, name="v")
            _crash_after_updates(ctx)
            engine = make_local_engine(
                host, name="v2", store=ctx.store, redo=ctx.redo, initialize=False
            ).engine
            replay_recovery(engine.buffer_pool, ctx.store, ctx.redo)
            engine.adopt_schema(SCHEMA)
        rows = _rows(engine)
    return ctx.redo, engine.meter.counters["storage_bytes"], rows


@pytest.mark.parametrize("system", ["polarrecv", "vanilla"])
def test_recovery_over_sealed_segments_equals_recovery_over_one_tail(system):
    sealed_log, sealed_bytes, sealed_rows = _recovered(system, SMALL_SEGMENT)
    tail_log, tail_bytes, tail_rows = _recovered(system, WHOLE_LOG)
    assert not tail_log._sealed
    # Everything the checkpoint kept spans several sealed segments.
    checkpoint = sealed_log.checkpoint_lsn
    assert len(sealed_log._sealed) >= 3
    assert all(first > checkpoint for first, _, _ in sealed_log._sealed)
    assert sealed_rows == tail_rows
    assert sealed_rows[9]["k"] == 39 * 1000 + 10  # the last committed update
    assert sealed_bytes == tail_bytes
