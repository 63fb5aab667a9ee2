"""Simulated hardware: memory, CPU caches, CXL fabric, RDMA NICs, hosts."""

from .cache import CacheWindow, CpuCache, LineCacheModel
from .cxl import CxlFabric, CxlMemoryDevice, CxlSwitch
from .host import Cluster, Host, cxl_timing, dram_timing
from .memory import (
    AccessMeter,
    ClosedRegionError,
    MappedMemory,
    MemoryRegion,
    MemoryTiming,
    PoisonedMemoryError,
    TransferCharge,
    WindowedMemory,
)
from .rdma import RdmaNic

__all__ = [
    "CacheWindow",
    "CpuCache",
    "LineCacheModel",
    "CxlFabric",
    "CxlMemoryDevice",
    "CxlSwitch",
    "Cluster",
    "Host",
    "cxl_timing",
    "dram_timing",
    "AccessMeter",
    "ClosedRegionError",
    "MappedMemory",
    "MemoryRegion",
    "MemoryTiming",
    "PoisonedMemoryError",
    "TransferCharge",
    "WindowedMemory",
    "RdmaNic",
]
