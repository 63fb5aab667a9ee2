"""Shared fixtures and factories for the test suite.

The factories build small but complete stacks (cluster → host → pools →
engine) so individual tests stay focused on behaviour. Everything is
deterministic: fixed seeds, fixed sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.block import pool_bytes_needed
from repro.core.memmgr import CxlMemoryManager
from repro.core.recovery import RecoveryStats
from repro.db.bufferpool import LocalBufferPool
from repro.db.constants import PAGE_SIZE
from repro.db.engine import Engine
from repro.db.record import Field, RecordCodec
from repro.hardware.cache import LineCacheModel
from repro.hardware.host import Cluster, Host
from repro.hardware.memory import AccessMeter
from repro.obs.world import build_cxl_engine, recover_cxl_engine
from repro.sim.core import Simulator
from repro.sim.latency import CostModel
from repro.sim.rng import WorkloadRng
from repro.storage.pagestore import PageStore
from repro.storage.wal import RedoLog, _headers

SMALL_CODEC = RecordCodec(
    [Field("id", 8), Field("k", 4), Field("payload", 52, "bytes")]
)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cluster(sim: Simulator) -> Cluster:
    return Cluster(sim)


@pytest.fixture
def host(cluster: Cluster) -> Host:
    return cluster.add_host("h0")


@dataclass
class EngineCtx:
    """An engine plus the plumbing tests may want to poke at."""

    engine: Engine
    meter: AccessMeter
    store: PageStore
    redo: RedoLog
    host: Host
    line_cache: LineCacheModel
    manager: Optional[CxlMemoryManager] = None
    extent: object = None
    mem: object = None
    n_blocks: int = 0

    @property
    def pool(self):
        return self.engine.buffer_pool


def make_local_engine(
    host: Host,
    capacity_pages: int = 512,
    name: str = "local",
    store: Optional[PageStore] = None,
    redo: Optional[RedoLog] = None,
    initialize: bool = True,
) -> EngineCtx:
    """A plain DRAM-buffer-pool engine; fresh and initialized by default.

    Pass an existing ``store``/``redo`` and ``initialize=False`` to
    reopen a database created by another engine.
    """
    meter = AccessMeter()
    line_cache = LineCacheModel()
    if store is None:
        store = PageStore(PAGE_SIZE, meter)
    else:
        store.attach_meter(meter)
    if redo is None:
        redo = RedoLog(meter)
    else:
        redo.attach_meter(meter)
    region = host.alloc_dram(f"{name}.bp", capacity_pages * PAGE_SIZE)
    pool = LocalBufferPool(
        host.map_dram(region, meter, line_cache), store, capacity_pages
    )
    engine = Engine(
        name, pool, store, redo, meter, CostModel(), volatile_regions=[region]
    )
    if initialize:
        engine.initialize()
    return EngineCtx(engine, meter, store, redo, host, line_cache)


def make_cxl_engine(
    cluster: Cluster,
    host: Host,
    n_blocks: int = 512,
    name: str = "cxlnode",
    lru_move_period: int = 1,
) -> EngineCtx:
    """A PolarCXLMem engine over a fabric extent, initialized and empty."""
    meter = AccessMeter()
    line_cache = LineCacheModel()
    store = PageStore(PAGE_SIZE, meter)
    redo = RedoLog(meter)
    assert cluster.fabric is not None
    manager = CxlMemoryManager(
        cluster.fabric, pool_bytes_needed(n_blocks) + (4 << 21)
    )
    engine, extent = build_cxl_engine(
        name, host, manager, n_blocks, meter, store, redo, line_cache, CostModel(),
        lru_move_period,
    )
    engine.buffer_pool.format()
    engine.initialize()
    return EngineCtx(
        engine,
        meter,
        store,
        redo,
        host,
        line_cache,
        manager=manager,
        extent=extent,
        mem=engine.buffer_pool.mem,
        n_blocks=n_blocks,
    )


def recover_cxl_ctx(ctx: EngineCtx, schema: list) -> tuple[Engine, RecoveryStats]:
    """``ctx``'s crashed engine brought back from its surviving extent
    (:func:`~repro.obs.world.recover_cxl_engine`): same name, a fresh
    meter and line cache, ``schema`` re-declared."""
    return recover_cxl_engine(
        ctx.engine.name, ctx.host, ctx.manager, ctx.extent, ctx.n_blocks, ctx.store,
        ctx.redo, LineCacheModel(), CostModel(), schema,
    )


def fill_table(
    ctx: EngineCtx,
    name: str = "t",
    rows: int = 200,
    codec: RecordCodec = SMALL_CODEC,
    shuffle_seed: Optional[int] = 11,
):
    """Create a table and insert ``rows`` rows (optionally shuffled)."""
    table = ctx.engine.create_table(name, codec)
    keys = list(range(1, rows + 1))
    if shuffle_seed is not None:
        WorkloadRng(shuffle_seed)._rng.shuffle(keys)
    for key in keys:
        mtr = ctx.engine.mtr()
        table.insert(mtr, key, row_for(key))
        mtr.commit()
    ctx.engine.redo_log.flush()
    return table


def row_for(key: int) -> dict:
    return {"id": key, "k": key % 97, "payload": bytes([key % 251]) * 52}


def swap_durable_records(redo: RedoLog, i: int, j: int) -> None:
    """Disorder ``redo``'s durable log: swap its ``i``-th and ``j``-th
    (``i < j``) whole records in place, headers and after-images alike.
    Only an unsealed log (all of it in the open tail) can be edited."""
    if redo._sealed:
        raise ValueError("the log has sealed segments; only its open tail is editable")
    log = redo._tail
    headers = list(_headers(log))
    (a, *_, a_end), (b, *_, b_end) = headers[i], headers[j]
    log[a:b_end] = log[b:b_end] + log[a_end:b] + log[a:a_end]
    headers[i], headers[j] = headers[j], headers[i]
    # Whole records moved: the log still parses, into the swapped LSNs.
    assert [lsn for _, lsn, *_ in _headers(log)] == [lsn for _, lsn, *_ in headers]


@pytest.fixture
def traced():
    """Install a tracer for the test; verify protocol invariants after.

    Yields the :class:`~repro.obs.trace.Tracer`; on teardown the whole
    trace goes through :func:`assert_trace_invariants`, so any test
    using this fixture gets stale-read / flush-on-release / LSN-order
    checking for free.
    """
    from repro.obs import Tracer, assert_trace_invariants

    with Tracer() as tracer:
        yield tracer
    assert_trace_invariants(tracer)


@pytest.fixture
def local_ctx(host: Host) -> EngineCtx:
    return make_local_engine(host)


@pytest.fixture
def cxl_ctx(cluster: Cluster, host: Host) -> EngineCtx:
    return make_cxl_engine(cluster, host)
