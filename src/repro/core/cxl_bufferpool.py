"""PolarCXLMem: the buffer pool that lives entirely in CXL memory (§3.1).

There is no tiered structure and no local copy of any page: the
transaction engine's loads and stores go straight to switch-attached CXL
memory through the block layout of :mod:`repro.core.block`. Both the
page data *and* the pool's structural metadata — page ids, lock states,
the LRU double-linked list, the free list — are persisted in the CXL
extent, which survives host crashes; that is what PolarRecv
(:mod:`repro.core.recovery`) rebuilds from.

Volatile (DRAM) runtime state is limited to what a restart can cheaply
reconstruct by scanning block metadata: the page table (page_id → block
index), pin counts, and the dirty set (also persisted per block as
``dirty_hint``).
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, Optional

from ..db.bufferpool import BufferPool, BufferPoolFullError
from ..db.constants import OFF_LSN, PAGE_SIZE
from ..db.page import PageView, format_empty_page
from ..faults.injector import crash_point
from ..hardware.memory import WindowedMemory
from ..obs.probes import PROBES
from ..storage.pagestore import PageStore
from .block import (
    BLOCK_NIL,
    BLOCK_NO_PAGE,
    BlockMeta,
    POOL_MAGIC,
    PoolHeader,
    block_data_offset,
    pool_bytes_needed,
)

__all__ = ["CxlBufferPool"]


class CxlBufferPool(BufferPool):
    """A buffer pool whose frames and metadata live in a CXL extent."""

    def __init__(
        self,
        mem,
        page_store: PageStore,
        n_blocks: int,
        lru_move_period: int = 1,
    ) -> None:
        """``mem`` is a (windowed) metered memory covering the extent.

        Construction touches no memory: :meth:`format` lays out a fresh
        extent, :meth:`attach` checks an existing pool image — the
        recovery path, which leaves all volatile maps empty for
        :class:`~repro.core.recovery.PolarRecv` to fill — and a world
        image restores both the extent and the maps.
        """
        if n_blocks <= 0:
            raise ValueError("pool needs at least one block")
        if mem.size < pool_bytes_needed(n_blocks):
            raise ValueError(
                f"extent of {mem.size} bytes cannot hold {n_blocks} blocks"
            )
        self.mem = mem
        self.page_store = page_store
        self.n_blocks = n_blocks
        self.header = PoolHeader(mem)
        self.lru_move_period = max(1, lru_move_period)
        self._block_of: dict[int, int] = {}
        self._pins: dict[int, int] = {}
        self._dirty: set[int] = set()
        self._touch_clock = 0
        # A BlockMeta is a stateless window over (mem, index); memoize them
        # instead of building one per metadata access — meta() is on every
        # pool hot path (get/evict/LRU rewire).
        self._meta_cache: list[Optional[BlockMeta]] = [None] * n_blocks
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Test hook: called with a tag at crash-vulnerable points.
        self.crash_hook: Optional[Callable[[str], None]] = None

    def attach(self) -> None:
        """Check that the extent holds a pool of this many blocks."""
        if self.header.magic != POOL_MAGIC:
            raise ValueError("attach to an unformatted pool")
        if self.header.n_blocks != self.n_blocks:
            raise ValueError(
                f"pool holds {self.header.n_blocks} blocks, caller "
                f"expected {self.n_blocks}"
            )

    def format(self) -> None:
        """Lay out a fresh extent: the header, and every block free."""
        self.header.set_magic(POOL_MAGIC)
        self.header.set_n_blocks(self.n_blocks)
        self.header.set_lru_head(BLOCK_NIL)
        self.header.set_lru_tail(BLOCK_NIL)
        self.header.set_lru_mutation_flag(False)
        self.header.set_free_head(0)
        for index in range(self.n_blocks):
            meta = self.meta(index)
            meta.set_page_id(BLOCK_NO_PAGE)
            meta.set_lock_state(0)
            meta.set_in_use(False)
            meta.set_dirty_hint(False)
            meta.set_prev(BLOCK_NIL)
            meta.set_next(index + 1 if index + 1 < self.n_blocks else BLOCK_NIL)

    # -- block access -----------------------------------------------------------------

    def meta(self, index: int) -> BlockMeta:
        if not 0 <= index < self.n_blocks:
            raise IndexError(f"block {index} out of range")
        meta = self._meta_cache[index]
        if meta is None:
            meta = self._meta_cache[index] = BlockMeta(self.mem, index)
        return meta

    def iter_metas(self) -> Iterator[BlockMeta]:
        for index in range(self.n_blocks):
            yield self.meta(index)

    def _view(self, page_id: int, index: int) -> PageView:
        return PageView(
            page_id, WindowedMemory(self.mem, block_data_offset(index), PAGE_SIZE), self
        )

    # -- BufferPool interface ------------------------------------------------------------

    def get_page(self, page_id: int) -> PageView:
        tracer = PROBES.tracer
        index = self._block_of.get(page_id)
        if index is None:
            self.misses += 1
            if tracer is not None:
                tracer.count("pool.cxl.misses")
            index = self._claim_block()
            image = self.page_store.read_page(page_id)
            self.mem.write(block_data_offset(index), image)
            # Crash here: page bytes in the block, metadata still free —
            # the block is reclaimed, the load simply never happened.
            crash_point("pool.get.loaded")
            meta = self.meta(index)
            meta.set_page_id(page_id)
            meta.set_in_use(True)
            meta.set_dirty_hint(False)
            meta.set_lock_state(0)
            # Crash here: block metadata live but not yet LRU-linked —
            # PolarRecv's LRU validation must spot the orphan and relink.
            crash_point("pool.get.meta_set")
            self._lru_push_head(index)
            self._block_of[page_id] = index
        else:
            self.hits += 1
            if tracer is not None:
                tracer.count("pool.cxl.hits")
            self.note_lru_touch(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        return self._view(page_id, index)

    def new_page(self, page_id: int, page_type: int, level: int = 0) -> PageView:
        if page_id in self._block_of:
            raise ValueError(f"page {page_id} already resident")
        index = self._claim_block()
        self.mem.write(
            block_data_offset(index), format_empty_page(page_id, page_type, level)
        )
        # Crash here: formatted frame, free metadata — same as a lost load.
        crash_point("pool.new.formatted")
        meta = self.meta(index)
        meta.set_page_id(page_id)
        meta.set_in_use(True)
        meta.set_dirty_hint(True)
        meta.set_lock_state(0)
        self._lru_push_head(index)
        self._block_of[page_id] = index
        self._dirty.add(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        return self._view(page_id, index)

    def contains(self, page_id: int) -> bool:
        return page_id in self._block_of

    def mark_dirty(self, page_id: int) -> None:
        index = self._block_of.get(page_id)
        if index is None:
            raise KeyError(f"page {page_id} not resident")
        if page_id not in self._dirty:
            self._dirty.add(page_id)
            self.meta(index).set_dirty_hint(True)

    def flush_page(self, page_id: int) -> None:
        index = self._block_of[page_id]
        image = self.mem.read(block_data_offset(index), PAGE_SIZE)
        # WAL rule: the log must be durable up to the page's LSN before
        # the page image may reach storage, or a crash could leave
        # storage holding changes the durable log knows nothing about.
        self._wal_guard(struct.unpack_from("<Q", image, OFF_LSN)[0])
        crash_point("pool.flush.read")
        self.page_store.write_page(page_id, image)
        # Crash here: storage updated but the dirty hint still set — the
        # page is simply re-flushed after recovery, never lost.
        crash_point("pool.flush.clean")
        self._dirty.discard(page_id)
        self.meta(index).set_dirty_hint(False)

    def flush_dirty_pages(self) -> int:
        dirty = sorted(self._dirty)
        for page_id in dirty:
            self.flush_page(page_id)
        return len(dirty)

    def resident_page_ids(self) -> list[int]:
        return list(self._block_of)

    def note_write_latch(self, page_id: int, held: bool) -> None:
        """Persist the latch state in CXL block metadata (§3.2)."""
        index = self._block_of.get(page_id)
        if index is not None:
            self.meta(index).set_lock_state(1 if held else 0)

    def note_lru_touch(self, page_id: int) -> None:
        index = self._block_of.get(page_id)
        if index is None:
            return
        self._touch_clock += 1
        if self._touch_clock % self.lru_move_period:
            return
        if self.header.lru_head != index:
            self._lru_move_head(index)

    # -- free list / eviction --------------------------------------------------------------

    def _claim_block(self) -> int:
        free_head = self.header.free_head
        if free_head != BLOCK_NIL:
            meta = self.meta(free_head)
            self.header.set_free_head(meta.next)
            meta.set_next(BLOCK_NIL)
            # Crash here: block popped off the free list but not yet in
            # use — recovery re-chains it into a fresh free list.
            crash_point("pool.claim.free")
            return free_head
        return self._evict_one()

    def _evict_one(self) -> int:
        index = self.header.lru_tail
        while index != BLOCK_NIL:
            meta = self.meta(index)
            page_id = meta.page_id
            if self._pins.get(page_id, 0) == 0:
                break
            index = meta.prev
        else:
            raise BufferPoolFullError("every resident page is pinned")
        if index == BLOCK_NIL:
            raise BufferPoolFullError("every resident page is pinned")
        meta = self.meta(index)
        page_id = meta.page_id
        if page_id in self._dirty:
            self.flush_page(page_id)
        if self.crash_hook is not None:
            self.crash_hook("evict")
        # Crash here: victim flushed but still linked and in use — it
        # survives recovery as a clean resident page.
        crash_point("pool.evict.victim")
        self._lru_remove(index)
        # Crash here: unlinked from the LRU but metadata still claims a
        # page — the LRU walk no longer covers every in-use block.
        crash_point("pool.evict.unlinked")
        meta.set_in_use(False)
        meta.set_page_id(BLOCK_NO_PAGE)
        meta.set_lock_state(0)
        del self._block_of[page_id]
        self.evictions += 1
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("pool.cxl.evictions")
        return index

    # -- the CXL-resident LRU list ------------------------------------------------------------

    def _lru_push_head(self, index: int) -> None:
        header = self.header
        header.set_lru_mutation_flag(True)
        if self.crash_hook is not None:
            self.crash_hook("lru")
        # Crash here: mutation flag set, links half-rewired — recovery
        # must discard the persisted LRU and relink from block metadata.
        crash_point("pool.lru.push")
        meta = self.meta(index)
        old_head = header.lru_head
        meta.set_prev(BLOCK_NIL)
        meta.set_next(old_head)
        if old_head != BLOCK_NIL:
            self.meta(old_head).set_prev(index)
        header.set_lru_head(index)
        if header.lru_tail == BLOCK_NIL:
            header.set_lru_tail(index)
        header.set_lru_mutation_flag(False)

    def _lru_remove(self, index: int) -> None:
        header = self.header
        header.set_lru_mutation_flag(True)
        if self.crash_hook is not None:
            self.crash_hook("lru")
        crash_point("pool.lru.remove")
        meta = self.meta(index)
        prev, nxt = meta.prev, meta.next
        if prev != BLOCK_NIL:
            self.meta(prev).set_next(nxt)
        else:
            header.set_lru_head(nxt)
        if nxt != BLOCK_NIL:
            self.meta(nxt).set_prev(prev)
        else:
            header.set_lru_tail(prev)
        meta.set_prev(BLOCK_NIL)
        meta.set_next(BLOCK_NIL)
        header.set_lru_mutation_flag(False)

    def _lru_move_head(self, index: int) -> None:
        self._lru_remove(index)
        self._lru_push_head(index)

    def lru_order(self) -> list[int]:
        """Block indexes head→tail (tests and recovery verification)."""
        order = []
        index = self.header.lru_head
        while index != BLOCK_NIL:
            order.append(index)
            if len(order) > self.n_blocks:
                raise RuntimeError("LRU list contains a cycle")
            index = self.meta(index).next
        return order

    # -- recovery support -------------------------------------------------------------------

    def adopt_runtime_entry(
        self, page_id: int, index: int, dirty: bool
    ) -> None:
        """Recovery: register a surviving block in the volatile page table."""
        self._block_of[page_id] = index
        if dirty:
            self._dirty.add(page_id)

    def rebuild_free_list(self, free_indexes: list[int]) -> None:
        """Recovery: chain the given blocks into a fresh free list."""
        previous = BLOCK_NIL
        for index in reversed(free_indexes):
            meta = self.meta(index)
            meta.set_in_use(False)
            meta.set_page_id(BLOCK_NO_PAGE)
            meta.set_lock_state(0)
            meta.set_dirty_hint(False)
            meta.set_prev(BLOCK_NIL)
            meta.set_next(previous)
            previous = index
        self.header.set_free_head(previous)

    def rebuild_lru(self, in_use_indexes: list[int]) -> None:
        """Recovery: relink the LRU list over the surviving blocks."""
        header = self.header
        header.set_lru_mutation_flag(True)
        previous = BLOCK_NIL
        for index in in_use_indexes:
            meta = self.meta(index)
            meta.set_prev(previous)
            meta.set_next(BLOCK_NIL)
            if previous != BLOCK_NIL:
                self.meta(previous).set_next(index)
            previous = index
        header.set_lru_head(in_use_indexes[0] if in_use_indexes else BLOCK_NIL)
        header.set_lru_tail(previous)
        header.set_lru_mutation_flag(False)

    def snapshot(self) -> tuple:
        """The host-side (volatile) runtime state; frames, block metadata
        and the LRU list live in the extent and travel with its region."""
        return (
            dict(self._block_of),
            dict(self._pins),
            frozenset(self._dirty),
            self._touch_clock,
            self.hits,
            self.misses,
            self.evictions,
        )

    def restore(self, state: tuple) -> None:
        (
            block_of,
            pins,
            dirty,
            self._touch_clock,
            self.hits,
            self.misses,
            self.evictions,
        ) = state
        self._block_of = dict(block_of)
        self._pins = dict(pins)
        self._dirty = set(dirty)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def resident_count(self) -> int:
        return len(self._block_of)
