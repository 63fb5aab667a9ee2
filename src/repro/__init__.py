"""PolarCXLMem reproduction.

A full-system reproduction of "Unlocking the Potential of CXL for
Disaggregated Memory in Cloud-Native Databases" (SIGMOD-Companion 2025):
a simulated CXL-switch / RDMA hardware substrate, a functional mini
database engine (B+tree, redo WAL, buffer pools), PolarCXLMem, the
PolarRecv instant-recovery scheme, the CXL data-sharing coherency
protocol, the paper's RDMA baselines, the world builders that wire
them into the paper's systems (:mod:`repro.obs.world`), and a benchmark
harness that regenerates every table and figure of the evaluation.

Quick start::

    from repro import SysbenchWorkload, PoolingDriver
    from repro.obs.world import build_pooling_setup

    workload = SysbenchWorkload(rows=3000)
    setup = build_pooling_setup("cxl", n_instances=2, workload=workload)
    driver = PoolingDriver(setup.sim, setup.instances,
                           workload.txn_fn("point_select"))
    result = driver.run()
    print(f"{result.qps / 1e3:.0f} K-QPS")
"""

from .baselines import (
    RdmaDbpServer,
    RdmaSharedBufferPool,
    RemoteMemoryNode,
    TieredRdmaBufferPool,
    replay_recovery,
)
from .bench import run_recovery_experiment
from .core import (
    BufferFusionServer,
    CxlBufferPool,
    CxlMemoryManager,
    FlagSlab,
    MultiPrimaryNode,
    PageLockService,
    PolarRecv,
    SharedCxlBufferPool,
)
from .db import (
    BTree,
    Engine,
    Field,
    LocalBufferPool,
    MiniTransaction,
    PAGE_SIZE,
    RecordCodec,
    Table,
    Transaction,
)
from .hardware import (
    Cluster,
    CpuCache,
    CxlFabric,
    Host,
    LineCacheModel,
    MemoryRegion,
    RdmaNic,
)
from .obs.world import build_pooling_setup, build_sharing_setup
from .sim import CostModel, LatencyConfig, Simulator, WorkloadRng
from .storage import PageStore, RedoLog
from .workloads import (
    PoolingDriver,
    SharingDriver,
    SysbenchWorkload,
    TatpWorkload,
    TpccWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "RdmaDbpServer",
    "RdmaSharedBufferPool",
    "RemoteMemoryNode",
    "TieredRdmaBufferPool",
    "replay_recovery",
    "build_pooling_setup",
    "build_sharing_setup",
    "run_recovery_experiment",
    "BufferFusionServer",
    "CxlBufferPool",
    "CxlMemoryManager",
    "FlagSlab",
    "MultiPrimaryNode",
    "PageLockService",
    "PolarRecv",
    "SharedCxlBufferPool",
    "BTree",
    "Engine",
    "Field",
    "LocalBufferPool",
    "MiniTransaction",
    "PAGE_SIZE",
    "RecordCodec",
    "Table",
    "Transaction",
    "Cluster",
    "CpuCache",
    "CxlFabric",
    "Host",
    "LineCacheModel",
    "MemoryRegion",
    "RdmaNic",
    "CostModel",
    "LatencyConfig",
    "Simulator",
    "WorkloadRng",
    "PageStore",
    "RedoLog",
    "PoolingDriver",
    "SharingDriver",
    "SysbenchWorkload",
    "TatpWorkload",
    "TpccWorkload",
    "__version__",
]
