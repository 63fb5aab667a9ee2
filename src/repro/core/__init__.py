"""PolarCXLMem: the paper's contribution — CXL buffer pool, PolarRecv,
and the CXL data-sharing protocol."""

from .block import (
    BLOCK_META_SIZE,
    BLOCK_NIL,
    BLOCK_NO_PAGE,
    BLOCK_SIZE,
    BlockMeta,
    PoolHeader,
    block_data_offset,
    block_offset,
    pool_bytes_needed,
)
from .coherency import FLAG_BYTES_PER_ENTRY, FlagSlab, set_remote_flag
from .cxl_bufferpool import CxlBufferPool
from .fusion import BufferFusionServer, FusionEntry, PageLockService
from .hw_coherent import HwCoherentSharedPool
from .memmgr import (
    CxlExtent,
    CxlMemoryManager,
    OutOfCxlMemoryError,
)
from .recovery import PolarRecv, RecoveryStats, apply_redo_to_image
from .sharing import MultiPrimaryNode, SharedCxlBufferPool

__all__ = [
    "BLOCK_META_SIZE",
    "BLOCK_NIL",
    "BLOCK_NO_PAGE",
    "BLOCK_SIZE",
    "BlockMeta",
    "PoolHeader",
    "block_data_offset",
    "block_offset",
    "pool_bytes_needed",
    "FLAG_BYTES_PER_ENTRY",
    "FlagSlab",
    "set_remote_flag",
    "CxlBufferPool",
    "BufferFusionServer",
    "FusionEntry",
    "PageLockService",
    "HwCoherentSharedPool",
    "CxlExtent",
    "CxlMemoryManager",
    "OutOfCxlMemoryError",
    "PolarRecv",
    "RecoveryStats",
    "apply_redo_to_image",
    "MultiPrimaryNode",
    "SharedCxlBufferPool",
]
