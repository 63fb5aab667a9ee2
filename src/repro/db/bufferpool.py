"""Buffer pool interface and the plain local-DRAM implementation.

Three buffer pools implement this interface across the repository:

* :class:`LocalBufferPool` (here) — all frames in host DRAM; the
  DRAM-BP baseline of Figure 3 and the substrate of the vanilla engine.
* :class:`repro.baselines.rdma_bufferpool.TieredRdmaBufferPool` — a
  DRAM local buffer pool backed by remote memory over RDMA (the paper's
  main baseline): a :class:`LocalBufferPool` with a remote tier behind
  it, on the same :class:`FramePool` frame table.
* :class:`repro.core.cxl_bufferpool.CxlBufferPool` — PolarCXLMem: every
  frame and its metadata live directly in switch-attached CXL memory.

The transaction engine (B-tree, tables, transactions) sees only this
interface; swapping pools requires no engine changes — the property the
paper highlights as key for a commercially deployable design (§3.1).
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from collections import OrderedDict

from ..hardware.memory import MappedMemory, WindowedMemory
from ..obs.probes import PROBES
from ..storage.pagestore import PageStore
from .constants import OFF_LSN, PAGE_SIZE
from .page import PageView, format_empty_page

__all__ = ["BufferPool", "FramePool", "LocalBufferPool", "BufferPoolFullError"]


class BufferPoolFullError(RuntimeError):
    """All frames are pinned; nothing can be evicted."""


class BufferPool(ABC):
    """What the transaction engine requires of any buffer pool."""

    page_size: int = PAGE_SIZE
    redo_log = None  # set via attach_redo_log; enforces the WAL rule

    def attach_redo_log(self, redo_log) -> None:
        """Bind the log whose durability gates page flushes (WAL rule)."""
        self.redo_log = redo_log

    def _wal_guard(self, page_lsn: int) -> None:
        """Force the log before a page image newer than it hits storage.

        Write-ahead logging's one invariant: storage must never hold a
        page whose LSN exceeds the durable log, or a crash leaves
        changes on disk that replay knows nothing about.
        """
        if self.redo_log is not None and page_lsn > self.redo_log.durable_max_lsn:
            self.redo_log.flush()

    @abstractmethod
    def get_page(self, page_id: int) -> PageView:
        """Pin and return a page, loading it on a miss."""

    @abstractmethod
    def new_page(self, page_id: int, page_type: int, level: int = 0) -> PageView:
        """Pin and return a freshly formatted page (no storage read)."""

    def unpin(self, page_id: int) -> None:
        """Release one pin; unpinned pages become eviction candidates.

        Every pool counts pins the same way, in ``self._pins``.
        """
        count = self._pins.get(page_id, 0)
        if count <= 0:
            raise RuntimeError(f"unpin of unpinned page {page_id}")
        if count == 1:
            del self._pins[page_id]
        else:
            self._pins[page_id] = count - 1

    @abstractmethod
    def contains(self, page_id: int) -> bool:
        """Whether the page is currently resident."""

    @abstractmethod
    def mark_dirty(self, page_id: int) -> None:
        """Note that the resident copy is newer than storage."""

    @abstractmethod
    def flush_page(self, page_id: int) -> None:
        """Write the resident copy to storage and clear its dirty bit."""

    @abstractmethod
    def flush_dirty_pages(self) -> int:
        """Flush everything dirty; returns the number of pages written."""

    @abstractmethod
    def resident_page_ids(self) -> list[int]:
        """Pages currently resident (diagnostics and recovery)."""

    def note_write_latch(self, page_id: int, held: bool) -> None:
        """Hook: a write latch was taken/released on a resident page.

        The CXL pool persists this in block metadata so PolarRecv can
        spot pages that were mid-update at crash time. Default: no-op.
        """

    def note_lru_touch(self, page_id: int) -> None:
        """Hook: the page was used (LRU maintenance). Default: no-op."""


class FramePool(BufferPool):
    """The frame table every page-granular pool keeps.

    Page-sized frames of one mapped DRAM region, a free list, LRU order
    and pins. :class:`LocalBufferPool`, the RDMA tier's LBP and the
    RDMA-sharing node's LBP differ only in where a missing page comes
    from and where an evicted one goes (``_evict_one``).
    """

    def __init__(self, mapped: MappedMemory, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        if mapped.region.size < capacity_pages * PAGE_SIZE:
            raise ValueError("backing region smaller than the frame array")
        self.mapped = mapped
        self.capacity_pages = capacity_pages
        self._frame_of: dict[int, int] = {}
        self._free_frames = list(range(capacity_pages - 1, -1, -1))
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._pins: dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def contains(self, page_id: int) -> bool:
        return page_id in self._frame_of

    def resident_page_ids(self) -> list[int]:
        return list(self._frame_of)

    @property
    def resident_count(self) -> int:
        return len(self._frame_of)

    def _pinned_view(self, page_id: int, frame: int) -> PageView:
        """Touch, pin and wrap a resident page: how every fix ends."""
        self._touch(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
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

    def _lru_victim(self) -> int:
        """The least recently used unpinned page."""
        for victim in self._lru:
            if self._pins.get(victim, 0) == 0:
                return victim
        raise BufferPoolFullError("every resident page is pinned")

    @abstractmethod
    def _evict_one(self) -> int:
        """Evict :meth:`_lru_victim` and return its frame."""


class LocalBufferPool(FramePool):
    """All frames in a volatile DRAM region; evicts dirty pages to storage."""

    #: Tracer-counter prefix and miss-span name (the RDMA tier's differ).
    _counters = "pool.dram"
    _miss_span = "dram_miss"

    def __init__(
        self,
        mapped: MappedMemory,
        page_store: PageStore,
        capacity_pages: int,
    ) -> None:
        super().__init__(mapped, capacity_pages)
        self.meter = mapped.meter
        self.page_store = page_store
        self._dirty: set[int] = set()
        self.evictions = 0

    # -- interface ------------------------------------------------------------------

    def get_page(self, page_id: int) -> PageView:
        tracer = PROBES.tracer
        frame = self._frame_of.get(page_id)
        if frame is None:
            self.misses += 1
            if tracer is not None:
                tracer.count(self._counters + ".misses")
            spans = PROBES.spans
            span = (
                spans.begin(
                    "page_fix", self._miss_span, meter=self.meter, page=page_id
                )
                if spans is not None
                else None
            )
            frame = self._claim_frame()
            self.mapped.write(frame * PAGE_SIZE, self._read_missing(page_id))
            self._frame_of[page_id] = frame
            if span is not None:
                spans.end(span)
        else:
            self.hits += 1
            if tracer is not None:
                tracer.count(self._counters + ".hits")
        return self._pinned_view(page_id, frame)

    def new_page(self, page_id: int, page_type: int, level: int = 0) -> PageView:
        if page_id in self._frame_of:
            raise ValueError(f"page {page_id} already resident")
        frame = self._claim_frame()
        self.mapped.write(frame * PAGE_SIZE, format_empty_page(page_id, page_type, level))
        self._frame_of[page_id] = frame
        self._dirty.add(page_id)
        return self._pinned_view(page_id, frame)

    def install_page(self, page_id: int, image: bytes, dirty: bool = True) -> None:
        """Recovery: place a rebuilt page image directly into a frame."""
        frame = self._frame_of.get(page_id)
        if frame is None:
            frame = self._claim_frame()
            self._frame_of[page_id] = frame
        self.mapped.write(frame * PAGE_SIZE, image)
        if dirty:
            self._dirty.add(page_id)
        self._touch(page_id)

    def mark_dirty(self, page_id: int) -> None:
        if page_id not in self._frame_of:
            raise KeyError(f"page {page_id} not resident")
        self._dirty.add(page_id)

    def flush_page(self, page_id: int) -> None:
        frame = self._frame_of[page_id]
        image = self.mapped.read(frame * PAGE_SIZE, PAGE_SIZE)
        self._wal_guard(struct.unpack_from("<Q", image, OFF_LSN)[0])
        self.page_store.write_page(page_id, image)
        self._dirty.discard(page_id)

    def flush_dirty_pages(self) -> int:
        dirty = sorted(self._dirty)
        for page_id in dirty:
            self.flush_page(page_id)
        return len(dirty)

    # -- internals --------------------------------------------------------------------

    def _read_missing(self, page_id: int) -> bytes:
        """Where a miss is read from: storage."""
        return self.page_store.read_page(page_id)

    def _write_back(self, victim: int) -> None:
        """Where an evicted page goes: storage, if it is dirty."""
        if victim in self._dirty:
            self.flush_page(victim)

    def _evict_one(self) -> int:
        victim = self._lru_victim()
        self._write_back(victim)
        frame = self._frame_of.pop(victim)
        del self._lru[victim]
        self.evictions += 1
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count(self._counters + ".evictions")
        return frame

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)
