"""The RDMA-based tiered disaggregated memory baseline (§2.2).

LegoBase / PolarDB Serverless architecture: a *local buffer pool* (LBP)
of host DRAM in front of *remote memory* on a dedicated memory node,
reached over RDMA at page (16 KB) granularity. Every LBP miss transfers
a whole page even if the query needs a few hundred bytes — the
read/write amplification the paper measures — and every dirty eviction
pushes a whole page back.

The remote memory node survives compute-host crashes, which is what the
RDMA-assisted recovery baseline exploits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..db.bufferpool import BufferPoolFullError, LocalBufferPool
from ..db.constants import PAGE_SIZE
from ..hardware.memory import AccessMeter, MappedMemory, MemoryRegion
from ..obs.probes import PROBES
from ..sim.latency import LatencyConfig
from ..storage.pagestore import PageStore

__all__ = ["RemoteMemoryNode", "TieredRdmaBufferPool"]


class RemoteMemoryNode:
    """Disaggregated memory on a dedicated node, addressed over RDMA.

    Functionally a slotted page cache in a non-volatile (with respect to
    compute-host crashes) region. Every read/write by a compute host
    charges that host's RDMA NIC with a full-page transfer plus the
    Table 2 fixed latency.
    """

    def __init__(
        self,
        region: MemoryRegion,
        capacity_pages: int,
        config: Optional[LatencyConfig] = None,
    ) -> None:
        if region.size < capacity_pages * PAGE_SIZE:
            raise ValueError("remote region smaller than its page slots")
        self.region = region
        self.capacity_pages = capacity_pages
        self.config = config or LatencyConfig()
        self._slot_of: OrderedDict[int, int] = OrderedDict()  # LRU order
        self._free = list(range(capacity_pages - 1, -1, -1))
        self._dirty: set[int] = set()  # newer than storage
        self.reads = 0
        self.writes = 0

    def has(self, page_id: int) -> bool:
        return page_id in self._slot_of

    def read_page(self, page_id: int, meter: AccessMeter) -> bytes:
        """RDMA READ of one page into the caller's local memory."""
        slot = self._slot_of[page_id]
        self._slot_of.move_to_end(page_id)
        self.reads += 1
        meter.charge_transfer(
            "rdma", PAGE_SIZE, base_ns=self.config.rdma_read_ns(PAGE_SIZE)
        )
        meter.charge_transfer("rdma_ops", 1)
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("rdma.page_reads")
            tracer.count("rdma.read_bytes", PAGE_SIZE)
        return self.region.read(slot * PAGE_SIZE, PAGE_SIZE)

    def write_page(
        self, page_id: int, image: bytes, meter: AccessMeter, dirty: bool
    ) -> None:
        """RDMA WRITE of one page from the caller's local memory."""
        if len(image) != PAGE_SIZE:
            raise ValueError("remote write must be page sized")
        slot = self._slot_of.get(page_id)
        if slot is None:
            slot = self._claim_slot()
            self._slot_of[page_id] = slot
        self._slot_of.move_to_end(page_id)
        self.region.write(slot * PAGE_SIZE, image)
        if dirty:
            self._dirty.add(page_id)
        self.writes += 1
        meter.charge_transfer(
            "rdma", PAGE_SIZE, base_ns=self.config.rdma_write_ns(PAGE_SIZE)
        )
        meter.charge_transfer("rdma_ops", 1)
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("rdma.page_writes")
            tracer.count("rdma.write_bytes", PAGE_SIZE)

    def _claim_slot(self) -> int:
        if self._free:
            return self._free.pop()
        # Evict the least-recently-used *clean* remote page.
        for victim, slot in self._slot_of.items():
            if victim not in self._dirty:
                del self._slot_of[victim]
                return slot
        raise BufferPoolFullError(
            "remote memory full of dirty pages; checkpoint first"
        )

    def flush_to_storage(self, page_store: PageStore) -> int:
        """The memory node's own flusher: dirty remote pages → storage."""
        flushed = 0
        for page_id in sorted(self._dirty):
            slot = self._slot_of[page_id]
            page_store.write_page(page_id, self.region.read(slot * PAGE_SIZE, PAGE_SIZE))
            flushed += 1
        self._dirty.clear()
        return flushed

    @property
    def resident_count(self) -> int:
        return len(self._slot_of)


class TieredRdmaBufferPool(LocalBufferPool):
    """LBP in host DRAM + remote memory over RDMA, page-granular.

    The LBP is :class:`~repro.db.bufferpool.LocalBufferPool`'s frame
    table; what differs is the tier behind it: a miss is served from
    remote memory when the page is there, and an evicted page goes to
    remote memory, never straight to storage.
    """

    _counters = "pool.rdma"
    _miss_span = "lbp_miss"

    def __init__(
        self,
        mapped: MappedMemory,
        remote: RemoteMemoryNode,
        page_store: PageStore,
        local_capacity_pages: int,
        meter: AccessMeter,
    ) -> None:
        super().__init__(mapped, page_store, local_capacity_pages)
        self.remote = remote
        self.meter = meter
        self.remote_fetches = 0
        self.storage_fetches = 0

    def flush_dirty_pages(self) -> int:
        """Checkpoint path: local dirty → storage, then the remote tier's."""
        return super().flush_dirty_pages() + self.remote.flush_to_storage(
            self.page_store
        )

    def _read_missing(self, page_id: int) -> bytes:
        tracer = PROBES.tracer
        if self.remote.has(page_id):
            image = self.remote.read_page(page_id, self.meter)
            self.remote_fetches += 1
            if tracer is not None:
                tracer.count("pool.rdma.remote_fetches")
        else:
            image = self.page_store.read_page(page_id)
            self.storage_fetches += 1
            if tracer is not None:
                tracer.count("pool.rdma.storage_fetches")
        return image

    def _write_back(self, victim: int) -> None:
        dirty = victim in self._dirty
        if dirty or not self.remote.has(victim):
            # Push the page to remote memory — a full 16 KB RDMA WRITE
            # even when one field changed (write amplification).
            image = self.mapped.read(self._frame_of[victim] * PAGE_SIZE, PAGE_SIZE)
            self.remote.write_page(victim, image, self.meter, dirty=dirty)
        self._dirty.discard(victim)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
