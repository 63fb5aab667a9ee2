"""Recovery over a sealed log reads what it reads over an unsealed one.

The same crashed world is built twice: once with segments small enough
that the records past the checkpoint span several sealed segments, once
with segments larger than the whole log. PolarRecv and vanilla replay
must recover the same rows from both, and charge the same storage bytes.
"""

from unittest import mock

import pytest

from repro.baselines.vanilla_recovery import replay_recovery
from repro.core.recovery import PolarRecv
from repro.db.engine import Engine
from repro.hardware.cache import LineCacheModel
from repro.hardware.host import Cluster
from repro.hardware.memory import AccessMeter, WindowedMemory
from repro.sim.core import Simulator
from repro.sim.latency import CostModel
from repro.storage import wal

from ..conftest import SMALL_CODEC, fill_table, make_cxl_engine, make_local_engine

ROWS = 300
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
    engine.adopt_schema([("t", SMALL_CODEC)])
    mtr = engine.mtr()
    rows = [engine.tables["t"].get(mtr, key) for key in range(1, ROWS + 1)]
    mtr.commit()
    return rows


def _polarrecv(host, cluster) -> tuple:
    ctx = make_cxl_engine(cluster, host, n_blocks=128)
    _crash_after_updates(ctx)
    meter = AccessMeter()
    ctx.store.attach_meter(meter)
    ctx.redo.attach_meter(meter)
    mapped = host.map_cxl(ctx.manager.region, meter, LineCacheModel())
    mem = WindowedMemory(mapped, ctx.extent.offset, ctx.extent.size)
    pool, stats = PolarRecv(mem, ctx.store, ctx.redo, ctx.n_blocks).recover()
    assert stats.log_scanned
    engine = Engine("cxlnode", pool, ctx.store, ctx.redo, meter, CostModel())
    return ctx.redo, meter, _rows(engine)


def _vanilla(host, cluster) -> tuple:
    ctx = make_local_engine(host, name="v")
    _crash_after_updates(ctx)
    fresh = make_local_engine(host, name="v2", store=ctx.store, redo=ctx.redo, initialize=False)
    replay_recovery(fresh.pool, ctx.store, ctx.redo)
    return ctx.redo, fresh.meter, _rows(fresh.engine)


def _recovered(recover, segment_bytes: int) -> tuple:
    cluster = Cluster(Simulator())
    with mock.patch.object(wal, "_SEGMENT_BYTES", segment_bytes):
        redo, meter, rows = recover(cluster.add_host("h0"), cluster)
    return redo, meter.counters["storage_bytes"], rows


@pytest.mark.parametrize("recover", [_polarrecv, _vanilla], ids=["polarrecv", "vanilla"])
def test_recovery_over_sealed_segments_equals_recovery_over_one_tail(recover):
    sealed_log, sealed_bytes, sealed_rows = _recovered(recover, SMALL_SEGMENT)
    tail_log, tail_bytes, tail_rows = _recovered(recover, WHOLE_LOG)
    assert not tail_log._sealed
    # Everything the checkpoint kept spans several sealed segments.
    checkpoint = sealed_log.checkpoint_lsn
    assert len(sealed_log._sealed) >= 3
    assert all(first > checkpoint for first, _, _ in sealed_log._sealed)
    assert sealed_rows == tail_rows
    assert sealed_rows[9]["k"] == 39 * 1000 + 10  # the last committed update
    assert sealed_bytes == tail_bytes
