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

from ..hardware.memory import AccessMeter, MappedMemory, MemoryRegion, WindowedMemory
from ..db.bufferpool import BufferPool, BufferPoolFullError
from ..db.constants import PAGE_SIZE
from ..db.page import PageView, format_empty_page
from ..obs.spans import active as spans_active
from ..obs.trace import active as obs_active
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
        tracer = obs_active()
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
        tracer = obs_active()
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


class TieredRdmaBufferPool(BufferPool):
    """LBP in host DRAM + remote memory over RDMA, page-granular."""

    def __init__(
        self,
        mapped: MappedMemory,
        remote: RemoteMemoryNode,
        page_store: PageStore,
        local_capacity_pages: int,
        meter: AccessMeter,
    ) -> None:
        if local_capacity_pages <= 0:
            raise ValueError("LBP needs at least one frame")
        if mapped.region.size < local_capacity_pages * PAGE_SIZE:
            raise ValueError("backing region smaller than the LBP")
        self.mapped = mapped
        self.remote = remote
        self.page_store = page_store
        self.local_capacity_pages = local_capacity_pages
        self.meter = meter
        self._frame_of: dict[int, int] = {}
        self._free_frames = list(range(local_capacity_pages - 1, -1, -1))
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._dirty: set[int] = set()
        self._pins: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.remote_fetches = 0
        self.storage_fetches = 0
        self.evictions = 0

    # -- BufferPool interface -----------------------------------------------------------

    def get_page(self, page_id: int) -> PageView:
        tracer = obs_active()
        frame = self._frame_of.get(page_id)
        if frame is None:
            self.misses += 1
            if tracer is not None:
                tracer.count("pool.rdma.misses")
            spans = spans_active()
            span = (
                spans.begin("page_fix", "lbp_miss", meter=self.meter, page=page_id)
                if spans is not None
                else None
            )
            frame = self._claim_frame()
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
            self.mapped.write(frame * PAGE_SIZE, image)
            self._frame_of[page_id] = frame
            if span is not None:
                spans.end(span)
        else:
            self.hits += 1
            if tracer is not None:
                tracer.count("pool.rdma.hits")
        self._touch(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        return self._view(page_id, frame)

    def new_page(self, page_id: int, page_type: int, level: int = 0) -> PageView:
        if page_id in self._frame_of:
            raise ValueError(f"page {page_id} already resident")
        frame = self._claim_frame()
        self.mapped.write(
            frame * PAGE_SIZE, format_empty_page(page_id, page_type, level)
        )
        self._frame_of[page_id] = frame
        self._dirty.add(page_id)
        self._touch(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        return self._view(page_id, frame)

    def install_page(self, page_id: int, image: bytes, dirty: bool = True) -> None:
        """Recovery: place a rebuilt image into the LBP (no transfer)."""
        frame = self._frame_of.get(page_id)
        if frame is None:
            frame = self._claim_frame()
            self._frame_of[page_id] = frame
        self.mapped.write(frame * PAGE_SIZE, image)
        if dirty:
            self._dirty.add(page_id)
        self._touch(page_id)

    def contains(self, page_id: int) -> bool:
        return page_id in self._frame_of

    def mark_dirty(self, page_id: int) -> None:
        if page_id not in self._frame_of:
            raise KeyError(f"page {page_id} not resident")
        self._dirty.add(page_id)

    def flush_page(self, page_id: int) -> None:
        frame = self._frame_of[page_id]
        image = self.mapped.read(frame * PAGE_SIZE, PAGE_SIZE)
        self.page_store.write_page(page_id, image)
        self._dirty.discard(page_id)

    def flush_dirty_pages(self) -> int:
        """Checkpoint path: local dirty → storage, then the remote tier's."""
        dirty = sorted(self._dirty)
        for page_id in dirty:
            self.flush_page(page_id)
        remote_flushed = self.remote.flush_to_storage(self.page_store)
        return len(dirty) + remote_flushed

    def resident_page_ids(self) -> list[int]:
        return list(self._frame_of)

    # -- internals ----------------------------------------------------------------------

    def _view(self, page_id: int, frame: int) -> PageView:
        return PageView(
            page_id, WindowedMemory(self.mapped, frame * PAGE_SIZE, PAGE_SIZE), self
        )

    def _touch(self, page_id: int) -> None:
        self._lru[page_id] = None
        self._lru.move_to_end(page_id)

    def _claim_frame(self) -> int:
        if self._free_frames:
            return self._free_frames.pop()
        return self._evict_one()

    def _evict_one(self) -> int:
        for victim in self._lru:
            if self._pins.get(victim, 0) == 0:
                break
        else:
            raise BufferPoolFullError("every LBP page is pinned")
        frame = self._frame_of[victim]
        dirty = victim in self._dirty
        if dirty or not self.remote.has(victim):
            # Push the page to remote memory — a full 16 KB RDMA WRITE
            # even when one field changed (write amplification).
            image = self.mapped.read(frame * PAGE_SIZE, PAGE_SIZE)
            self.remote.write_page(victim, image, self.meter, dirty=dirty)
        self._dirty.discard(victim)
        del self._frame_of[victim]
        del self._lru[victim]
        self.evictions += 1
        tracer = obs_active()
        if tracer is not None:
            tracer.count("pool.rdma.evictions")
        return frame

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def resident_count(self) -> int:
        return len(self._frame_of)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
