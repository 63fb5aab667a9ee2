"""The simulated worlds every experiment, sweep and check runs on.

Builders assemble the full stack — cluster, hosts, pipes, memory
manager, buffer pool, engine, loaded dataset — for each of the paper's
three pooled system kinds:

* ``dram`` — plain local buffer pool (DRAM-BP in Fig. 3),
* ``cxl``  — PolarCXLMem (no local buffer, everything in CXL),
* ``rdma`` — tiered LBP + remote memory over RDMA.

and for the multi-primary sharing systems (``cxl`` / ``rdma`` /
``cxl3``). They also bring a crashed instance back: the one PolarRecv
wiring is :func:`recover_cxl_engine`, the reverse of
:func:`build_cxl_engine`. Setup costs (loading, pool formatting) are
wiped from the meters so runs measure steady state only. A world has one
:class:`CostModel`: ``setup.cost`` is the one every engine it builds
charges.

The dataset is loaded once per process and distinct ``(workload,
latency, cost)``: :func:`_load_dataset` keeps the loaded store, log and
meter as a world image (:mod:`repro.obs.image`) and every later build
starts from a clone of it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from ..baselines.rdma_bufferpool import RemoteMemoryNode, TieredRdmaBufferPool
from ..baselines.rdma_sharing import RdmaDbpServer, RdmaSharedBufferPool
from ..baselines.vanilla_recovery import ReplayStats, replay_recovery
from ..core.block import pool_bytes_needed
from ..core.coherency import FLAG_BYTES_PER_ENTRY, FlagSlab
from ..core.cxl_bufferpool import CxlBufferPool
from ..core.fusion import BufferFusionServer, PageLockService
from ..core.hw_coherent import HwCoherentSharedPool
from ..core.memmgr import CxlExtent, CxlMemoryManager
from ..core.recovery import PolarRecv, RecoveryStats
from ..core.shard_router import FusionShardRouter
from ..core.sharing import MultiPrimaryNode, SharedCxlBufferPool
from ..db.bufferpool import FramePool, LocalBufferPool
from ..db.constants import PAGE_SIZE
from ..db.engine import Engine
from ..hardware.cache import CpuCache, LineCacheModel
from ..hardware.host import Cluster, Host
from ..hardware.memory import AccessMeter, MemoryRegion, WindowedMemory
from ..sim.core import Simulator
from ..sim.latency import CACHE_LINE, CostModel, LatencyConfig
from ..sim.rng import WorkloadRng
from ..sim.settle import ChargeSettler
from ..storage.pagestore import PageStore
from ..storage.wal import RedoLog
from ..workloads.base import Workload
from ..workloads.driver import InstanceCtx
from .image import materialize
from .probes import PROBES

__all__ = [
    "PoolingSetup",
    "build_pooling_setup",
    "SharingSetup",
    "build_sharing_setup",
    "add_sharing_node",
    "build_cxl_engine",
    "recover_cxl_engine",
    "recover_instance",
    "reset_meters",
    "SYSTEMS",
]

SYSTEMS = ("dram", "cxl", "rdma")

_POOL_SLACK_PAGES = 48
_LBP_MIN_PAGES = 8
# Frames of the throw-away load-time pool: room for every dataset the
# experiments load, and free until touched (regions are zero on demand).
_POOLING_LOADER_PAGES = 4096
_SHARING_LOADER_PAGES = 16384


def _load_dataset(
    host: Host,
    region_name: str,
    pool_pages: int,
    workload: Workload,
    config: LatencyConfig,
    cost: CostModel,
) -> tuple[AccessMeter, PageStore, RedoLog]:
    """A fresh meter, page store and redo log holding ``workload``'s
    loaded, checkpointed dataset, as a scratch engine with a roomy
    ``pool_pages``-frame local pool in a DRAM region of ``host`` leaves
    them.

    The load reads nothing but the workload's parameters, the latency
    configuration and the cost model (no seed: every ``load`` is
    deterministic), so those are the image key; the first build per key
    runs the load, later ones restore its image. The key takes every
    workload attribute, run-only ones (key distribution, range size)
    included: two workloads differing only there each pay one load, but
    no attribute a ``load`` starts reading can ever serve a stale
    dataset. Either way the host allocates, maps and drops the loader
    region, so its region naming does not depend on which happened, and
    nothing of the load outlives it: the region and its line cache are
    unregistered from the host afterwards, and the region is closed.

    What the load costs is written and never read: a pooling build
    wipes the returned meter (:func:`reset_meters`), and a sharing build
    keeps it only as the meter of its page store and loader log, which
    nothing drains into simulated time. So the loader's line cache holds
    one line, not a 32 MB LLC's worth of LRU entries a cold build would
    allocate only to drop; only a traced build's ``mem.dram.line_*``
    counters see the difference.

    The load runs with MemSan suspended. MemSan watches no loader
    region, so it sees nothing of a load either way, and a build under
    MemSan alone restores the image; any other installed instrument
    observes the load and so still gets a fresh one
    (:func:`~repro.obs.image.materialize`).
    """
    meter = AccessMeter()
    store = PageStore(PAGE_SIZE, meter, config=config)
    redo = RedoLog(meter, config=config)
    region = host.alloc_dram(region_name, pool_pages * PAGE_SIZE)
    line_cache = LineCacheModel(CACHE_LINE)
    mapped = host.map_dram(region, meter, line_cache)

    def load() -> None:
        loader = Engine(
            "loader", LocalBufferPool(mapped, store, pool_pages), store, redo, meter, cost=cost
        )
        loader.initialize()
        workload.load(loader)

    key = (
        "dataset",
        pool_pages,
        type(workload),
        tuple(sorted(vars(workload).items())),
        config,
        cost,
    )
    with PROBES.suspended("memsan"):
        materialize(key, {"meter": meter, "store": store, "redo": redo}, load)
    host.dram_regions.remove(region)
    host.caches.remove(line_cache)
    region.close()
    return meter, store, redo


def _preload_remote(remote: RemoteMemoryNode, store: PageStore) -> None:
    """Populate remote memory with the whole dataset (paper §4.1: the
    disaggregated memory is sized to hold the entire dataset)."""
    for page_id in sorted(store.page_ids()):
        slot = remote._claim_slot()
        remote._slot_of[page_id] = slot
        remote.region.write(slot * PAGE_SIZE, store.read_page_unmetered(page_id))


@dataclass
class PoolingSetup:
    """Everything needed to run pooling experiments on one host."""

    sim: Simulator
    cluster: Cluster
    host: Host
    instances: list[InstanceCtx]
    system: str
    workload: Workload
    config: LatencyConfig
    cost: CostModel
    manager: Optional[CxlMemoryManager] = None
    remotes: list[RemoteMemoryNode] = field(default_factory=list)


def build_pooling_setup(
    system: str,
    n_instances: int,
    workload: Workload,
    lbp_fraction: float = 0.3,
    seed: int = 7,
    cost: Optional[CostModel] = None,
    lru_move_period: int = 8,
) -> PoolingSetup:
    """Build ``n_instances`` independent database instances on one host.

    Each instance owns its dataset (as in the paper's multi-instance
    cloud host); they share the host's NIC / CXL link / WAL / client
    pipes, which is where scalability limits come from.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    config = LatencyConfig()
    cost = cost or CostModel(latency=config)
    sim = Simulator()
    cluster = Cluster(sim, config=config)
    host = cluster.add_host("host0")
    setup = PoolingSetup(sim, cluster, host, [], system, workload, config, cost)

    # Size the CXL pool for every instance up front (one mapped region).
    if system == "cxl":
        # Page count per instance: what one load produces, plus slack.
        _, probe_store, _ = _load_dataset(
            host, "probe", _POOLING_LOADER_PAGES, workload, config, cost
        )
        pages_per_instance = len(probe_store) + _POOL_SLACK_PAGES
        extent_bytes = pool_bytes_needed(pages_per_instance)
        setup.manager = CxlMemoryManager(
            cluster.fabric,
            extent_bytes * n_instances + (4 << 21),
            config=config,
        )
    else:
        pages_per_instance = 0

    for index in range(n_instances):
        setup.instances.append(
            _build_instance(
                setup, index, seed, lbp_fraction, pages_per_instance, lru_move_period
            )
        )
    reset_meters(setup.instances)
    return setup


def _build_instance(
    setup: PoolingSetup,
    index: int,
    seed: int,
    lbp_fraction: float,
    pages_per_instance: int,
    lru_move_period: int,
) -> InstanceCtx:
    host, workload = setup.host, setup.workload
    config, cost = setup.config, setup.cost
    name = f"{setup.system}{index}"
    rng = WorkloadRng(seed + index * 7919)

    # Load via a roomy local pool, checkpoint, then attach the real pool.
    meter, store, redo = _load_dataset(
        host, f"{name}.load", _POOLING_LOADER_PAGES, workload, config, cost
    )
    n_pages = len(store)
    line_cache = _instance_line_cache(store)

    if setup.system == "cxl":
        assert setup.manager is not None
        engine, _ = build_cxl_engine(
            name, host, setup.manager, pages_per_instance, meter, store, redo,
            line_cache, cost, lru_move_period,
        )
        engine.buffer_pool.format()
    else:
        if setup.system == "dram":
            pool, region = _dram_pool(host, name, store, meter, line_cache)
        else:  # rdma
            remote_region = setup.cluster.alloc_remote_memory(
                f"{name}.remote", (n_pages + _POOL_SLACK_PAGES) * PAGE_SIZE
            )
            remote = RemoteMemoryNode(remote_region, n_pages + _POOL_SLACK_PAGES, config=config)
            _preload_remote(remote, store)
            setup.remotes.append(remote)
            lbp_pages = max(_LBP_MIN_PAGES, int(n_pages * lbp_fraction))
            pool, region = _lbp_pool(host, name, lbp_pages, remote, store, meter, line_cache)
        engine = Engine(name, pool, store, redo, meter, cost=cost, volatile_regions=[region])
    engine.adopt_schema(workload.schema())
    _prewarm(engine.buffer_pool, store)
    return InstanceCtx(engine=engine, host=host, rng=rng.fork(1))


def _instance_line_cache(store: PageStore) -> LineCacheModel:
    """An instance's LLC share. It is small relative to any real working
    set (a 16 MB slice against hundreds of GB); the timing cache is
    scaled to the dataset so hot B-tree internals stay resident but the
    leaf level does not."""
    return LineCacheModel(capacity_bytes=max(1 << 15, len(store) * PAGE_SIZE // 32))


def _dram_pool(
    host: Host, name: str, store: PageStore, meter: AccessMeter, line_cache: LineCacheModel
) -> tuple[LocalBufferPool, MemoryRegion]:
    """A local pool with room for all of ``store`` plus slack, in a fresh
    DRAM region of ``host``."""
    capacity = len(store) + _POOL_SLACK_PAGES
    region = host.alloc_dram(f"{name}.bp", capacity * PAGE_SIZE)
    return LocalBufferPool(host.map_dram(region, meter, line_cache), store, capacity), region


def _lbp_pool(
    host: Host, name: str, lbp_pages: int, remote: RemoteMemoryNode, store: PageStore,
    meter: AccessMeter, line_cache: LineCacheModel,
) -> tuple[TieredRdmaBufferPool, MemoryRegion]:
    """An ``lbp_pages``-frame LBP in a fresh DRAM region of ``host``,
    tiered over ``remote``."""
    region = host.alloc_dram(f"{name}.lbp", lbp_pages * PAGE_SIZE)
    mapped = host.map_dram(region, meter, line_cache)
    return TieredRdmaBufferPool(mapped, remote, store, lbp_pages, meter), region


def build_cxl_engine(
    name: str,
    host: Host,
    manager: CxlMemoryManager,
    n_blocks: int,
    meter: AccessMeter,
    store: PageStore,
    redo: RedoLog,
    line_cache: LineCacheModel,
    cost: CostModel,
    lru_move_period: int,
) -> tuple[Engine, CxlExtent]:
    """One PolarCXLMem instance: an ``n_blocks`` extent of ``manager``'s
    pool named ``name``, mapped through ``host``'s CXL link, as a
    :class:`CxlBufferPool` run by an engine over ``store`` and ``redo``.
    Nothing is written: the pool is not formatted, the engine neither
    initialized nor given a schema. :func:`recover_cxl_engine` is the
    way back after a crash."""
    extent = manager.allocate(name, pool_bytes_needed(n_blocks), meter)
    mapped = host.map_cxl(manager.region, meter, line_cache)
    mem = WindowedMemory(mapped, extent.offset, extent.size)
    pool = CxlBufferPool(mem, store, n_blocks, lru_move_period=lru_move_period)
    return Engine(name, pool, store, redo, meter, cost=cost), extent


def recover_cxl_engine(
    name: str,
    host: Host,
    manager: CxlMemoryManager,
    extent: CxlExtent,
    n_blocks: int,
    store: PageStore,
    redo: RedoLog,
    line_cache: LineCacheModel,
    cost: CostModel,
    schema: list,
) -> tuple[Engine, RecoveryStats]:
    """The reverse of :func:`build_cxl_engine`, after a crash: the
    ``n_blocks`` ``extent`` of ``manager``'s pool that survived, mapped
    again through ``host``'s CXL link with ``line_cache``, rebuilt by
    PolarRecv from ``store`` and ``redo``, and run by an engine named
    ``name`` that re-declares ``schema``. Recovery charges a fresh meter,
    which the surviving store and log are attached to and the engine
    keeps."""
    meter = AccessMeter()
    store.attach_meter(meter)
    redo.attach_meter(meter)
    mapped = host.map_cxl(manager.region, meter, line_cache)
    mem = WindowedMemory(mapped, extent.offset, extent.size)
    pool, stats = PolarRecv(mem, store, redo, n_blocks).recover()
    engine = Engine(name, pool, store, redo, meter, cost=cost)
    engine.adopt_schema(schema)
    return engine, stats


def recover_instance(
    setup: PoolingSetup, index: int
) -> tuple[Engine, RecoveryStats | ReplayStats]:
    """Bring back instance ``index``, whose engine crashed, the way its
    system recovers (Fig. 10): ``cxl`` rebuilds the surviving extent
    (:func:`recover_cxl_engine`), ``rdma`` replays the durable log into a
    fresh LBP, taking page images from remote memory where it can, and
    ``dram`` replays it (ARIES) into a fresh local pool. Each charges a
    fresh meter, which the new engine keeps; nothing is settled."""
    crashed = setup.instances[index].engine
    host, store, redo = setup.host, crashed.page_store, crashed.redo_log
    line_cache = _instance_line_cache(store)
    schema = setup.workload.schema()
    if setup.system == "cxl":
        assert setup.manager is not None
        (extent,) = setup.manager.extents_of(crashed.name)
        return recover_cxl_engine(
            crashed.name, host, setup.manager, extent, crashed.buffer_pool.n_blocks,
            store, redo, line_cache, setup.cost, schema,
        )
    meter = AccessMeter()
    store.attach_meter(meter)
    redo.attach_meter(meter)
    if setup.system == "rdma":
        remote = setup.remotes[index]
        lbp_pages = crashed.buffer_pool.capacity_pages
        pool, region = _lbp_pool(host, "recovered", lbp_pages, remote, store, meter, line_cache)
        stats = replay_recovery(pool, store, redo, remote=remote, meter=meter)
    else:  # dram
        pool, region = _dram_pool(host, "recovered", store, meter, line_cache)
        stats = replay_recovery(pool, store, redo)
    engine = Engine(
        crashed.name, pool, store, redo, meter, cost=setup.cost, volatile_regions=[region]
    )
    engine.adopt_schema(schema)
    return engine, stats


def _prewarm(pool, store: PageStore) -> None:
    """Touch every page once so runs start from a warm pool.

    Tiered pools end up with their most-recently-touched LBP fraction
    resident, exactly the steady state a long-running instance reaches.
    Charges are wiped by :func:`reset_meters` afterwards.
    """
    for page_id in sorted(store.page_ids()):
        pool.get_page(page_id)
        pool.unpin(page_id)


def reset_meters(instances) -> None:
    """Wipe setup costs so a run measures steady state."""
    for ictx in instances:
        ictx.engine.meter.reset()


# ---------------------------------------------------------------------------
# Multi-primary sharing
# ---------------------------------------------------------------------------


@dataclass
class SharingSetup:
    """N multi-primary nodes over one shared dataset."""

    sim: Simulator
    cluster: Cluster
    nodes: list[MultiPrimaryNode]
    hosts: list[Host]
    system: str
    workload: Workload
    config: LatencyConfig
    cost: CostModel
    lock_service: PageLockService
    page_store: PageStore
    # Single server (n_shards == 1) or a FusionShardRouter over
    # fusion_shards — both duck-type the same RPC surface.
    fusion: Optional[BufferFusionServer | FusionShardRouter] = None
    fusion_shards: list = field(default_factory=list)
    n_shards: int = 1
    dbp_server: Optional[RdmaDbpServer] = None
    dbp_host: Optional[Host] = None
    manager: Optional[CxlMemoryManager] = None
    # Build parameters retained so nodes can be added after the fact
    # (fleet HA join/leave — see add_sharing_node).
    n_pages: int = 0
    n_flag_entries: int = 0
    base_lsn: int = 0
    schema: list = field(default_factory=list)

    def total_memory_bytes(self) -> int:
        """Memory footprint: DBP plus any per-node local buffers (the
        frame pools of the RDMA baseline; the CXL pools keep no local
        frames)."""
        dbp = len(self.page_store) * PAGE_SIZE
        local = 0
        for node in self.nodes:
            pool = node.engine.buffer_pool
            if isinstance(pool, FramePool):
                local += pool.capacity_pages * PAGE_SIZE
        return dbp + local


def build_sharing_setup(
    system: str,
    n_nodes: int,
    workload: Workload,
    lbp_fraction: float = 0.3,
    seed: int = 7,
    lbp_min_pages: int = _LBP_MIN_PAGES,
    n_shards: int = 1,
) -> SharingSetup:
    """Build a multi-primary cluster over one shared dataset.

    ``system`` is ``"cxl"`` (the paper's CXL 2.0 software coherency),
    ``"rdma"`` (the PolarDB-MP baseline), or ``"cxl3"`` (modeled CXL 3.0
    hardware coherency — the paper's forward-looking case, used by the
    protocol-overhead ablation).

    ``n_shards > 1`` (``"cxl"`` only) shards the DBP metadata across
    that many fusion servers by hash of page id and installs a
    :class:`~repro.core.shard_router.FusionShardRouter` as
    ``setup.fusion`` — the node stack is identical either way.

    ``seed`` is read by nothing: a sharing build is not seeded (the
    dataset load is deterministic and the drivers bring their own
    generators). It stays only because the end-to-end benchmark
    (``benchmarks/e2e/workloads.py``) still passes it, until that
    benchmark's next change drops the argument.
    """
    if system not in ("cxl", "rdma", "cxl3"):
        raise ValueError(f"unknown sharing system {system!r}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > 1 and system != "cxl":
        raise ValueError(
            "a sharded fusion tier requires the 'cxl' sharing system "
            f"(got {system!r}: rdma has its own DBP server, cxl3 assumes "
            "one hardware-coherent fusion region)"
        )
    config = LatencyConfig()
    cost = CostModel(latency=config)
    sim = Simulator()
    # Port budget: 8 memory devices + loader (+ dbp-server for rdma) +
    # one link per node, with headroom for HA joins after the build.
    # Fleets beyond ~20 nodes need a wider switch than the 32-port
    # default; capacity is unchanged (see CxlFabric.max_ports).
    cluster = Cluster(sim, config=config, switch_ports=max(32, n_nodes + 16))

    # Load the dataset once; durable storage is the common substrate.
    loader_host = cluster.add_host("loader", with_rdma=False)
    _, store, loader_log = _load_dataset(
        loader_host, "load", _SHARING_LOADER_PAGES, workload, config, cost
    )
    n_pages = len(store)

    lock_service = PageLockService(sim, config=config)
    schema = workload.schema()
    setup = SharingSetup(
        sim, cluster, [], [], system, workload, config, cost, lock_service, store
    )

    dbp_slots = n_pages + _POOL_SLACK_PAGES
    n_flag_entries = dbp_slots
    setup.n_pages = n_pages
    setup.n_flag_entries = n_flag_entries
    setup.base_lsn = loader_log.next_lsn
    setup.schema = schema
    setup.n_shards = n_shards

    if system in ("cxl", "cxl3"):
        # Per-shard slot budget: an even split of the dataset plus slack
        # per shard, since the page-id hash never balances perfectly.
        shard_slots = (
            dbp_slots if n_shards == 1 else dbp_slots // n_shards + _POOL_SLACK_PAGES
        )
        manager = CxlMemoryManager(
            cluster.fabric,
            n_shards * shard_slots * PAGE_SIZE
            + (n_nodes + 1) * ((n_flag_entries * FLAG_BYTES_PER_ENTRY) + (2 << 21)),
            config=config,
        )
        setup.manager = manager
        if n_shards == 1:
            fusion_extent = manager.allocate("fusion", shard_slots * PAGE_SIZE)
            fusion = BufferFusionServer(
                manager.region, fusion_extent.offset, shard_slots, store, config=config
            )
            setup.fusion = fusion
            setup.fusion_shards = [fusion]
        else:
            for index in range(n_shards):
                extent = manager.allocate(
                    f"fusion/{index}", shard_slots * PAGE_SIZE
                )
                setup.fusion_shards.append(
                    BufferFusionServer(
                        manager.region,
                        extent.offset,
                        shard_slots,
                        store,
                        config=config,
                        service=f"fusion/{index}",
                    )
                )
            setup.fusion = FusionShardRouter(setup.fusion_shards)
    else:
        dbp_region = cluster.alloc_remote_memory("dbp", dbp_slots * PAGE_SIZE)
        setup.dbp_server = RdmaDbpServer(dbp_region, dbp_slots, store, config=config)
        # The memory node's own NIC carries every node's page traffic —
        # a shared bottleneck the CXL fabric does not have.
        dbp_host = cluster.add_host("dbp-server")
        setup.dbp_host = dbp_host

    def cxl3_pool(node_id: str, host: Host, meter: AccessMeter):
        hw_line_cache = LineCacheModel(
            capacity_bytes=max(1 << 16, n_pages * PAGE_SIZE // 10)
        )
        host.register_cache(hw_line_cache)
        return HwCoherentSharedPool(
            node_id,
            setup.fusion,
            setup.manager.region,
            meter,
            config=config,
            line_cache=hw_line_cache,
        )

    def rdma_pool(node_id: str, host: Host, meter: AccessMeter):
        # Paper §4.4: the LBP is sized as a fraction of each node's
        # *accessed* dataset — the workload knows how much of the
        # database one node touches.
        accessed_pages = max(1, int(n_pages * workload.accessed_fraction(n_nodes)))
        lbp_pages = max(lbp_min_pages, int(accessed_pages * lbp_fraction))
        region = host.alloc_dram(f"{node_id}.lbp", lbp_pages * PAGE_SIZE)
        # RDMA to the DBP traverses the node NIC *and* the memory
        # node's NIC; the latter is shared by every node.
        dbp_nic = setup.dbp_host.nic
        assert dbp_nic is not None and host.nic is not None
        host.pipes["rdma"] = [host.nic.data_pipe, dbp_nic.data_pipe]
        host.pipes["rdma_ops"] = [host.nic.ops_pipe, dbp_nic.ops_pipe]
        return RdmaSharedBufferPool(
            node_id,
            setup.dbp_server,
            host.map_dram(region, meter, LineCacheModel()),
            lbp_pages,
            meter,
        )

    for i in range(n_nodes):
        if system == "cxl":
            add_sharing_node(setup, f"node{i}")
        else:
            _attach_node(
                setup, f"node{i}", cxl3_pool if system == "cxl3" else rdma_pool
            )
    ms = PROBES.memsan
    if ms is not None:
        # A race detector installed before the build (``python -m
        # repro.bench memsan``, or a test's MemSan) watches the shared
        # CXL region automatically; rdma/cxl3 need no region watch.
        ms.watch_setup(setup)
    return setup


def _attach_node(setup: SharingSetup, node_id: str, make_pool) -> MultiPrimaryNode:
    """Wire one primary into ``setup``, whatever the sharing system.

    Host, meter, redo log, a page store over the shared durable pages,
    engine and settler are the same for every system; only the buffer
    pool differs, so ``make_pool(node_id, host, meter)`` builds it.
    """
    host = setup.cluster.add_host(node_id)
    meter = AccessMeter()
    redo = RedoLog(meter, config=setup.config)
    # Page LSNs in the loaded dataset come from the loader's log;
    # node LSNs must sort after them or LSN-guarded redo (failover
    # page rebuild) would skip the node's own durable records.
    redo.align_lsn(setup.base_lsn)
    node_store = PageStore(PAGE_SIZE, meter, config=setup.config)
    node_store._pages = setup.page_store._pages  # shared durable storage
    pool = make_pool(node_id, host, meter)
    engine = Engine(node_id, pool, node_store, redo, meter, cost=setup.cost)
    engine.adopt_schema(setup.schema)
    settler = ChargeSettler(setup.sim, meter, host.pipes)
    node = MultiPrimaryNode(node_id, engine, setup.lock_service, settler)
    setup.nodes.append(node)
    setup.hosts.append(host)
    return node


def add_sharing_node(
    setup: SharingSetup,
    node_id: Optional[str] = None,
    reuse_slab: Optional[FlagSlab] = None,
) -> MultiPrimaryNode:
    """Attach one primary to a ``"cxl"`` sharing fleet.

    ``build_sharing_setup`` uses this for its initial nodes; the fleet
    HA scenarios (:mod:`repro.ha.scenarios`) call it *after* the build
    to model node join — a fresh primary attaching to the surviving CXL
    pool. The joiner inherits the warm DBP by construction: its first
    page access gets a CXL address from the fusion server, no storage
    reload, which is the PolarRecv warm-attach the join/leave scenario
    times against the ARIES/RDMA baselines.

    ``reuse_slab`` hands the new node a dead node's flag-slab extent
    (scrubbed via :meth:`~repro.core.coherency.FlagSlab.clear_all` and
    recharged to the new owner's meter) instead of allocating a fresh
    one — the rejoin path of rolling-crash scenarios, which must not
    leak CXL memory on every crash/rejoin cycle.
    """
    if setup.system != "cxl":
        raise ValueError("add_sharing_node requires a 'cxl' sharing setup")
    assert setup.manager is not None and setup.fusion is not None
    config = setup.config

    def cxl_pool(node_id: str, host: Host, meter: AccessMeter):
        if reuse_slab is not None:
            slab = reuse_slab
            slab.meter = meter
            slab.clear_all()
        else:
            slab_extent = setup.manager.allocate(
                f"{node_id}.flags",
                setup.n_flag_entries * FLAG_BYTES_PER_ENTRY,
                meter,
            )
            # The constructor zeroes the slab with one bulk region
            # write; under an installed MemSan that bookkeeping store
            # must not register as an actor's data write.
            ms = PROBES.memsan
            with ms.internal() if ms is not None else nullcontext():
                slab = FlagSlab(
                    setup.manager.region,
                    slab_extent.offset,
                    setup.n_flag_entries,
                    meter,
                    config=config,
                )
        cpu_cache = CpuCache(
            f"{node_id}.cache",
            capacity_lines=max(1 << 10, setup.n_pages * PAGE_SIZE // 10 // 64),
            meter=meter,
            miss_ns=config.cxl_switch_local_ns,
            hit_ns=18.0,
            pipe_key="cxl",
        )
        # The functional cache is host SRAM: a node crash must drop
        # its dirty lines, never write them back.
        host.register_cache(cpu_cache)
        return SharedCxlBufferPool(
            node_id,
            setup.fusion,
            setup.manager.region,
            cpu_cache,
            slab,
            meter,
            config=config,
        )

    if node_id is None:
        node_id = f"node{len(setup.nodes)}"
    return _attach_node(setup, node_id, cxl_pool)
