"""CXL 3.0 hardware-coherent sharing (the paper's forward-looking case).

The paper designs its software coherency protocol *because* CXL 2.0
switches lack cross-host hardware coherency, and repeatedly notes that
CXL 3.0 "natively implements cache coherency, removing this overhead
from the application layer" (§2.2, §3.3). This module models that
future: a shared buffer pool in which

* reads and writes go straight to CXL memory with hardware-maintained
  coherence (no functional CPU-cache staleness is possible),
* write-lock release performs **no** clflush and pushes **no**
  invalidation flags,
* the invalid/removal flag checks on every access disappear.

Timing still pays CXL load/store latencies (hardware coherency does
not make the switch faster; back-invalidations are modeled as a small
per-line surcharge on writes). Comparing this pool against
:class:`~repro.core.sharing.SharedCxlBufferPool` isolates exactly what
the software protocol costs — the ablation the paper implies but
cannot run on 2.0 hardware.
"""

from __future__ import annotations

from typing import Optional

from ..db.bufferpool import BufferPool
from ..db.page import PageView
from ..hardware.cache import LineCacheModel
from ..hardware.memory import AccessMeter, MemoryRegion
from ..sim.latency import CACHE_LINE, LatencyConfig
from .fusion import BufferFusionServer

__all__ = ["HwCoherentSharedPool"]

# Extra cost per written line: the switch's back-invalidation of other
# hosts' cached copies (CXL 3.0 BI flow) — small, hardware-speed.
_BACK_INVALIDATE_NS = 60.0


class _CoherentAccessor:
    """Loads/stores on hardware-coherent CXL memory.

    Functionally direct (every host always sees the latest bytes, which
    is precisely what hardware coherency guarantees); timing charged
    per line through the node's local line-cache model.
    """

    __slots__ = ("pool", "base")

    def __init__(self, pool: "HwCoherentSharedPool", base: int) -> None:
        self.pool = pool
        self.base = base

    def read(self, offset: int, nbytes: int) -> bytes:
        self.pool._charge(self.base + offset, nbytes, write=False)
        return self.pool.region.read(self.base + offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        self.pool._charge(self.base + offset, len(data), write=True)
        self.pool.region.write(self.base + offset, data)

    def unpack(self, fmt, offset: int) -> tuple:
        return fmt.unpack(self.read(offset, fmt.size))

    def read_run(self, fmt, offset: int, stride: int, count: int) -> list:
        return [self.unpack(fmt, offset + i * stride) for i in range(count)]


class HwCoherentSharedPool(BufferPool):
    """A multi-primary shared pool under modeled CXL 3.0 coherency."""

    def __init__(
        self,
        node_id: str,
        fusion: BufferFusionServer,
        region: MemoryRegion,
        meter: AccessMeter,
        config: Optional[LatencyConfig] = None,
        line_cache: Optional[LineCacheModel] = None,
    ) -> None:
        self.node_id = node_id
        self.fusion = fusion
        self.region = region
        self.meter = meter
        self.config = config or LatencyConfig()
        self.line_cache = line_cache or LineCacheModel(capacity_bytes=4 << 20)
        self._data_offset: dict[int, int] = {}
        self._pins: dict[int, int] = {}

    # -- BufferPool interface ----------------------------------------------------------

    def get_page(self, page_id: int) -> PageView:
        offset = self._data_offset.get(page_id)
        if offset is None:
            # Address lookup still needs the fusion server (it owns slot
            # placement), but no flag addresses are registered.
            offset = self.fusion.request_page(page_id, self.node_id, 0, 0, self.meter)
            self._data_offset[page_id] = offset
        self.fusion.note_touch(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        return PageView(page_id, _CoherentAccessor(self, offset), self)

    def new_page(self, page_id: int, page_type: int, level: int = 0) -> PageView:
        raise NotImplementedError(
            "multi-primary nodes operate on preloaded data (see DESIGN.md §6)"
        )

    def contains(self, page_id: int) -> bool:
        return page_id in self._data_offset

    def mark_dirty(self, page_id: int) -> None:
        entry = self.fusion._entries.get(page_id)
        if entry is not None:
            entry.dirty = True

    def flush_page(self, page_id: int) -> None:
        raise NotImplementedError("shared pages are flushed by the fusion server")

    def flush_dirty_pages(self) -> int:
        return 0

    def resident_page_ids(self) -> list[int]:
        return list(self._data_offset)

    # -- sharing protocol hooks --------------------------------------------------------

    def flush_page_writes(self, page_id: int) -> int:
        """Hardware coherency: nothing to flush, nothing to invalidate."""
        self.mark_dirty(page_id)
        return 0

    # -- timing ---------------------------------------------------------------------------

    def _charge(self, offset: int, nbytes: int, write: bool) -> None:
        first = offset // CACHE_LINE
        last = (offset + max(nbytes, 1) - 1) // CACHE_LINE
        _, misses = self.line_cache.touch_range(self.region.name, first, last)
        lines = last - first + 1
        hit_cost = (lines - misses) * 18.0
        miss_cost = misses * self.config.cxl_switch_local_ns
        self.meter.charge_ns(hit_cost + miss_cost)
        if write:
            self.meter.charge_ns(lines * _BACK_INVALIDATE_NS)
        if misses:
            self.meter.charge_transfer("cxl", misses * CACHE_LINE)
