"""Baselines from the paper's evaluation: RDMA-tiered memory, RDMA
sharing, and vanilla / RDMA-assisted recovery."""

from .rdma_bufferpool import RemoteMemoryNode, TieredRdmaBufferPool
from .rdma_sharing import RdmaDbpServer, RdmaSharedBufferPool
from .vanilla_recovery import ReplayStats, replay_recovery

__all__ = [
    "RemoteMemoryNode",
    "TieredRdmaBufferPool",
    "RdmaDbpServer",
    "RdmaSharedBufferPool",
    "ReplayStats",
    "replay_recovery",
]
