"""RDMA-based data sharing baseline (PolarDB-MP style, §3.3 / §4.4).

The distributed buffer pool (DBP) lives in remote memory on a memory
node; every database node keeps a *local buffer pool* of page copies.
The contrast with the CXL design is page granularity everywhere:

* a read miss (or an invalidated copy) costs a full 16 KB RDMA READ,
* releasing a write lock flushes the whole modified page to the DBP
  with a 16 KB RDMA WRITE — even for a one-column update — and then
  sends invalidation *messages* over RDMA to every other node holding
  the page,
* all of it competes for the same NIC bandwidth as ordinary misses.

Functionally, the DBP region is the authority; local frames are copies
that can go stale, and only the invalidation messages keep readers
correct — tests verify the protocol by looking for stale reads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..db.bufferpool import BufferPoolFullError, FramePool
from ..db.constants import PAGE_SIZE
from ..db.page import PageView
from ..hardware.memory import AccessMeter, MappedMemory, MemoryRegion
from ..obs.probes import PROBES
from ..sim.latency import LatencyConfig
from ..storage.pagestore import PageStore

__all__ = ["RdmaDbpServer", "RdmaSharedBufferPool"]


class RdmaDbpServer:
    """Metadata server + remote-memory authority for the shared DBP."""

    def __init__(
        self,
        region: MemoryRegion,
        n_slots: int,
        page_store: PageStore,
        config: Optional[LatencyConfig] = None,
    ) -> None:
        if region.size < n_slots * PAGE_SIZE:
            raise ValueError("DBP region smaller than its slots")
        self.region = region
        self.n_slots = n_slots
        self.page_store = page_store
        self.config = config or LatencyConfig()
        self._slot_of: OrderedDict[int, int] = OrderedDict()
        self._free = list(range(n_slots - 1, -1, -1))
        self._dirty: set[int] = set()
        self._active: dict[int, dict[str, "RdmaSharedBufferPool"]] = {}
        self.rpcs = 0
        self.invalidation_messages = 0

    # -- node RPCs ------------------------------------------------------------------------

    def register(
        self,
        page_id: int,
        node_id: str,
        pool: "RdmaSharedBufferPool",
        meter: AccessMeter,
    ) -> None:
        """RPC: note that a node holds a copy; load the page on demand."""
        self.rpcs += 1
        meter.charge_ns(self.config.rpc_base_ns)
        meter.count("dbp_rpcs")
        if page_id not in self._slot_of:
            slot = self._claim_slot()
            image = self.page_store.read_page_unmetered(page_id)
            meter.charge_transfer(
                "storage", PAGE_SIZE, base_ns=self.config.storage_read_base_ns
            )
            self.region.write(slot * PAGE_SIZE, image)
            self._slot_of[page_id] = slot
        self._slot_of.move_to_end(page_id)
        self._active.setdefault(page_id, {})[node_id] = pool

    def read_page(self, page_id: int, meter: AccessMeter) -> bytes:
        """RDMA READ of the authoritative copy."""
        slot = self._slot_of[page_id]
        self._slot_of.move_to_end(page_id)
        meter.charge_transfer(
            "rdma", PAGE_SIZE, base_ns=self.config.rdma_read_ns(PAGE_SIZE)
        )
        meter.charge_transfer("rdma_ops", 1)
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("rdma.page_reads")
            tracer.count("rdma.read_bytes", PAGE_SIZE)
        return self.region.read(slot * PAGE_SIZE, PAGE_SIZE)

    def write_page_on_release(
        self, page_id: int, image: bytes, writer_node: str, meter: AccessMeter
    ) -> int:
        """Write-lock release: full-page RDMA WRITE + invalidation fan-out.

        Returns the number of invalidation messages sent.
        """
        slot = self._slot_of[page_id]
        self.region.write(slot * PAGE_SIZE, image)
        self._dirty.add(page_id)
        meter.charge_transfer(
            "rdma", PAGE_SIZE, base_ns=self.config.rdma_write_ns(PAGE_SIZE)
        )
        meter.charge_transfer("rdma_ops", 1)
        sent = 0
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("rdma.page_writes")
            tracer.count("rdma.write_bytes", PAGE_SIZE)
            tracer.emit("rdma", "flush_page", node=writer_node, page=page_id)
        for node_id, pool in self._active.get(page_id, {}).items():
            if node_id == writer_node:
                continue
            pool.invalidate_local(page_id)
            meter.charge_ns(self.config.rdma_message_ns)
            meter.charge_transfer("rdma_ops", 1)
            sent += 1
            if tracer is not None:
                tracer.emit(
                    "rdma",
                    "invalidate_msg",
                    page=page_id,
                    writer=writer_node,
                    target=node_id,
                )
        self.invalidation_messages += sent
        if tracer is not None and sent:
            tracer.count("rdma.invalidation_messages", sent)
        return sent

    # -- maintenance ------------------------------------------------------------------------

    def recycle(self, count: int) -> list[int]:
        """Free cold DBP slots; nodes holding copies are told to drop them."""
        recycled: list[int] = []
        for page_id in list(self._slot_of):
            if len(recycled) >= count:
                break
            slot = self._slot_of.pop(page_id)
            if page_id in self._dirty:
                self.page_store.write_page(
                    page_id, self.region.read(slot * PAGE_SIZE, PAGE_SIZE)
                )
                self._dirty.discard(page_id)
            for pool in self._active.pop(page_id, {}).values():
                pool.drop_local(page_id)
            self._free.append(slot)
            recycled.append(page_id)
        return recycled

    def flush_to_storage(self) -> int:
        flushed = 0
        for page_id in sorted(self._dirty):
            slot = self._slot_of[page_id]
            self.page_store.write_page(
                page_id, self.region.read(slot * PAGE_SIZE, PAGE_SIZE)
            )
            flushed += 1
        self._dirty.clear()
        return flushed

    def has_page(self, page_id: int) -> bool:
        return page_id in self._slot_of

    def _claim_slot(self) -> int:
        if self._free:
            return self._free.pop()
        if not self.recycle(max(1, self.n_slots // 64)):
            raise BufferPoolFullError("DBP out of slots")
        return self._free.pop()


class RdmaSharedBufferPool(FramePool):
    """A node's LBP over the RDMA-shared DBP."""

    def __init__(
        self,
        node_id: str,
        server: RdmaDbpServer,
        mapped: MappedMemory,
        local_capacity_pages: int,
        meter: AccessMeter,
    ) -> None:
        super().__init__(mapped, local_capacity_pages)
        self.node_id = node_id
        self.server = server
        self.meter = meter
        self._invalid: set[int] = set()
        self._registered: set[int] = set()
        self.refetches = 0

    # -- BufferPool interface ----------------------------------------------------------------

    def get_page(self, page_id: int) -> PageView:
        tracer = PROBES.tracer
        spans = PROBES.spans
        frame = self._frame_of.get(page_id)
        if frame is not None and page_id not in self._invalid:
            self.hits += 1
            if tracer is not None:
                tracer.count("rdma.lbp_hits")
            ms = PROBES.memsan
            if ms is not None:
                ms.page_cached_read(self.node_id, page_id)
        else:
            fix = (
                spans.begin("page_fix", "lbp_fetch", meter=self.meter, page=page_id)
                if spans is not None
                else None
            )
            if page_id not in self._registered:
                rpc = (
                    spans.begin("rpc", "register", meter=self.meter, page=page_id)
                    if spans is not None
                    else None
                )
                self.server.register(page_id, self.node_id, self, self.meter)
                if rpc is not None:
                    spans.end(rpc)
                self._registered.add(page_id)
            image = self.server.read_page(page_id, self.meter)
            if frame is None:
                self.misses += 1
                if tracer is not None:
                    tracer.count("rdma.lbp_misses")
                frame = self._claim_frame()
                self._frame_of[page_id] = frame
            else:
                self.refetches += 1
                if tracer is not None:
                    tracer.count("rdma.lbp_refetches")
            self.mapped.write(frame * PAGE_SIZE, image)
            self._invalid.discard(page_id)
            ms = PROBES.memsan
            if ms is not None:
                ms.page_fetch(self.node_id, page_id)
            if fix is not None:
                spans.end(fix)
        return self._pinned_view(page_id, frame)

    def new_page(self, page_id: int, page_type: int, level: int = 0) -> PageView:
        raise NotImplementedError(
            "multi-primary nodes operate on preloaded data (see DESIGN.md §6)"
        )

    def mark_dirty(self, page_id: int) -> None:
        # Durability is handled by the whole-page flush at lock release.
        pass

    def flush_page(self, page_id: int) -> None:
        raise NotImplementedError("shared pages flush through the DBP server")

    def flush_dirty_pages(self) -> int:
        return 0

    # -- sharing protocol hooks -----------------------------------------------------------------

    def flush_page_writes(self, page_id: int) -> int:
        """Write-lock release: push the whole page to the DBP.

        Returns the number of invalidation messages fanned out.
        """
        frame = self._frame_of[page_id]
        image = self.mapped.read(frame * PAGE_SIZE, PAGE_SIZE)
        ms = PROBES.memsan
        if ms is not None:
            ms.page_publish(self.node_id, page_id)
        spans = PROBES.spans
        if spans is None:
            return self.server.write_page_on_release(
                page_id, image, self.node_id, self.meter
            )
        span = spans.begin(
            "cache_flush",
            "page_flush",
            meter=self.meter,
            node=self.node_id,
            page=page_id,
        )
        sent = self.server.write_page_on_release(
            page_id, image, self.node_id, self.meter
        )
        if sent:
            # Carve the invalidation fan-out (small two-sided messages)
            # out of the page flush: it is messaging, not data movement.
            spans.record(
                "rpc",
                "invalidate_fanout",
                parent=span,
                ns=sent * self.server.config.rdma_message_ns,
                page=page_id,
                messages=sent,
            )
        spans.end(span, nbytes=PAGE_SIZE, invalidations=sent)
        return sent

    def invalidate_local(self, page_id: int) -> None:
        """Invalidation message handler: our copy is stale."""
        if page_id in self._frame_of:
            self._invalid.add(page_id)

    def drop_local(self, page_id: int) -> None:
        """DBP recycled the page: forget it entirely."""
        frame = self._frame_of.pop(page_id, None)
        if frame is not None:
            del self._lru[page_id]
            self._free_frames.append(frame)
        self._invalid.discard(page_id)
        self._registered.discard(page_id)
        ms = PROBES.memsan
        if ms is not None:
            ms.page_dropped(self.node_id, page_id)

    # -- internals ----------------------------------------------------------------------------------

    def _evict_one(self) -> int:
        victim = self._lru_victim()
        # Copies are clean at eviction (writes flush at lock release).
        frame = self._frame_of.pop(victim)
        del self._lru[victim]
        self._invalid.discard(victim)
        ms = PROBES.memsan
        if ms is not None:
            ms.page_dropped(self.node_id, victim)
        return frame

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses + self.refetches
        return self.hits / total if total else 0.0
