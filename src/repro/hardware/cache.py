"""CPU cache models.

Two distinct models, for two distinct jobs:

* :class:`LineCacheModel` — a *timing-only* LRU cache of 64 B lines. It
  never stores data; it just answers "would this access have hit the CPU
  cache hierarchy?" so that :class:`~repro.hardware.memory.MappedMemory`
  can charge hit vs. miss latency. This is what lets a CXL-resident
  buffer pool perform within a few percent of DRAM (paper Fig. 3): hot
  B-tree internals stay cached.

* :class:`CpuCache` — a *functional* write-back cache used in the
  multi-primary data-sharing scenario, where correctness depends on it.
  CXL 2.0 provides no cross-host hardware coherency, so a store by node A
  can sit dirty in A's cache, and node B can keep reading a stale clean
  copy, until software intervenes. This class reproduces those hazards:
  dirty lines really do hide updates from the backing region until
  ``clflush``, and stale clean lines really do serve old data until
  invalidated. The coherency protocol in :mod:`repro.core.coherency` is
  correct iff the tests built on this model observe no stale reads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..analysis.memsan import active as memsan_active
from ..faults.injector import crash_point
from ..obs.spans import active as spans_active
from ..obs.trace import active as obs_active
from ..sim.latency import CACHE_LINE
from .memory import AccessMeter, MemoryRegion

__all__ = ["LineCacheModel", "CpuCache"]


class LineCacheModel:
    """Timing-only LRU cache over (region, line) keys.

    ``lines`` is the LRU itself, oldest first. It is public because
    :class:`~repro.hardware.memory.MappedMemory` probes it inline for
    single-line accesses (the simulator's hottest operation); such a
    probe must do exactly what :meth:`touch` does, and nothing ever
    rebinds the dict.

    >>> cache = LineCacheModel(capacity_bytes=1024)
    >>> cache.touch("dram", 0)        # cold: miss, line inserted
    False
    >>> cache.touch("dram", 0)        # warm: hit
    True
    >>> cache.touch_range("dram", 0, 3)   # 1 warm line + 3 cold ones
    (1, 3)
    """

    def __init__(self, capacity_bytes: int = 32 << 20) -> None:
        if capacity_bytes < CACHE_LINE:
            raise ValueError("cache smaller than one line")
        self.capacity_lines = capacity_bytes // CACHE_LINE
        self.lines: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, region_name: str, line: int) -> bool:
        """Access a line; returns True on hit. Inserts on miss."""
        key = (region_name, line)
        lines = self.lines
        if key in lines:
            lines.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        lines[key] = None
        if len(lines) > self.capacity_lines:
            lines.popitem(last=False)
        return False

    def touch_range(
        self, region_name: str, first_line: int, last_line: int
    ) -> tuple[int, int]:
        """Coalesced probe of ``first_line..last_line`` inclusive.

        Exactly equivalent to calling :meth:`touch` per line (same LRU
        moves, same insertion and eviction order), but with the dict,
        bound methods and capacity hoisted out of the loop — the hottest
        call of every metered small access made under an instrument.
        """
        lines = self.lines
        if first_line == last_line:  # the common single-line access
            key = (region_name, first_line)
            if key in lines:
                lines.move_to_end(key)
                self.hits += 1
                return 1, 0
            lines[key] = None
            if len(lines) > self.capacity_lines:
                lines.popitem(last=False)
            self.misses += 1
            return 0, 1
        move_to_end = lines.move_to_end
        popitem = lines.popitem
        capacity = self.capacity_lines
        hits = 0
        misses = 0
        for line in range(first_line, last_line + 1):
            key = (region_name, line)
            if key in lines:
                move_to_end(key)
                hits += 1
            else:
                misses += 1
                lines[key] = None
                if len(lines) > capacity:
                    popitem(last=False)
        self.hits += hits
        self.misses += misses
        return hits, misses

    def drop_region(self, region_name: str) -> None:
        for key in [key for key in self.lines if key[0] == region_name]:
            del self.lines[key]

    def drop_lines(self, region_name: str, first_line: int, last_line: int) -> None:
        for line in range(first_line, last_line + 1):
            self.lines.pop((region_name, line), None)

    def clear(self) -> None:
        self.lines.clear()

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CpuCache:
    """Functional write-back line cache over shared memory regions.

    Reads pull whole lines from the backing region into the cache and are
    served from cached copies thereafter — including *stale* copies if
    another host changed the region. Writes dirty the cached lines and
    are **not** visible in the backing region until the lines are flushed
    (explicit ``clflush`` or capacity eviction).

    Latency accounting (into ``meter``, when provided): line fills and
    write-backs charge ``miss_ns`` per line; cached accesses charge
    ``hit_ns``. Bytes written back are charged to ``pipe_key``.
    """

    def __init__(
        self,
        name: str,
        capacity_lines: int = 1 << 16,
        meter: Optional[AccessMeter] = None,
        miss_ns: float = 0.0,
        hit_ns: float = 0.0,
        pipe_key: Optional[str] = None,
    ) -> None:
        self.name = name
        self.capacity_lines = capacity_lines
        self.meter = meter
        self.miss_ns = miss_ns
        self.hit_ns = hit_ns
        self.pipe_key = pipe_key
        # (region, line) -> [bytes, dirty]
        self._lines: OrderedDict[tuple[str, int], list] = OrderedDict()
        self._regions: dict[str, MemoryRegion] = {}
        self.fills = 0
        self.write_backs = 0
        self.stale_serves = 0  # diagnostic: cached reads (may be stale)

    # -- data path --------------------------------------------------------------

    def read(self, region: MemoryRegion, offset: int, nbytes: int) -> bytes:
        """Read through the cache; cached lines win over backing memory."""
        self._regions[region.name] = region
        if nbytes <= 0:
            return b""
        line = offset // CACHE_LINE
        if offset + nbytes <= (line + 1) * CACHE_LINE:
            # Single-line access (flags, lock words, LRU links): skip the
            # span generator and the bytearray assembly.
            line_off = offset - line * CACHE_LINE
            return self._load_entry(region, line)[0][line_off : line_off + nbytes]
        out = bytearray()
        for line, line_off, span in _line_spans(offset, nbytes):
            data = self._load_line(region, line)
            out += data[line_off : line_off + span]
        return bytes(out)

    def write(self, region: MemoryRegion, offset: int, data: bytes) -> None:
        """Write into the cache only; backing memory unchanged until flush."""
        self._regions[region.name] = region
        nbytes = len(data)
        if nbytes <= 0:
            return
        line = offset // CACHE_LINE
        if offset + nbytes <= (line + 1) * CACHE_LINE:
            entry = self._load_entry(region, line)
            line_off = offset - line * CACHE_LINE
            buf = bytearray(entry[0])
            buf[line_off : line_off + nbytes] = data
            entry[0] = bytes(buf)
            entry[1] = True
            ms = memsan_active()
            if ms is not None:
                ms.cache_store(self.name, region.name, line)
            return
        pos = 0
        ms = memsan_active()
        for line, line_off, span in _line_spans(offset, nbytes):
            entry = self._load_entry(region, line)
            buf = bytearray(entry[0])
            buf[line_off : line_off + span] = data[pos : pos + span]
            entry[0] = bytes(buf)
            entry[1] = True
            if ms is not None:
                ms.cache_store(self.name, region.name, line)
            pos += span

    def clflush(self, region: MemoryRegion, offset: int, nbytes: int) -> int:
        """Flush-and-invalidate the lines covering [offset, offset+nbytes).

        Dirty lines are written to the backing region; all covered lines
        are dropped from the cache (as x86 ``clflush`` does). Returns the
        number of dirty lines written back.
        """
        written = 0
        ms = memsan_active()
        for line in _line_range(offset, nbytes):
            # Crash between line flushes: lines already flushed are in
            # the backing region, the rest die dirty in this cache — a
            # torn line-set flush, the hazard the per-line write-release
            # protocol (§3.3) must tolerate.
            crash_point("cache.clflush.line")
            entry = self._lines.pop((region.name, line), None)
            if entry is None:
                continue
            if entry[1]:
                if ms is None:
                    region.write(line * CACHE_LINE, entry[0])
                else:
                    with ms.internal():
                        region.write(line * CACHE_LINE, entry[0])
                    ms.cache_flush_line(self.name, region.name, line, dirty=True)
                written += 1
            elif ms is not None:
                ms.cache_flush_line(self.name, region.name, line, dirty=False)
        self.write_backs += written
        if self.meter is not None and written:
            self._charge_writeback(written)
        tracer = obs_active()
        if tracer is not None and written:
            tracer.count("cache.lines_flushed", written)
            tracer.count("cache.flush_bytes", written * CACHE_LINE)
        return written

    def invalidate(self, region: MemoryRegion, offset: int, nbytes: int) -> int:
        """Drop lines without write-back (only safe when they are clean).

        Returns the number of lines dropped so callers can charge the
        per-line invalidation cost.
        """
        dropped = 0
        ms = memsan_active()
        for line in _line_range(offset, nbytes):
            if self._lines.pop((region.name, line), None) is not None:
                dropped += 1
                if ms is not None:
                    ms.cache_invalidate_line(self.name, region.name, line)
        tracer = obs_active()
        if tracer is not None and dropped:
            tracer.count("cache.lines_invalidated", dropped)
        return dropped

    def drop_all(self) -> None:
        """Crash semantics: every cached line, dirty or not, is gone."""
        self._lines.clear()
        ms = memsan_active()
        if ms is not None:
            ms.cache_dropped(self.name)

    def dirty_lines(self, region: MemoryRegion, offset: int, nbytes: int) -> int:
        """How many lines in the range are dirty (diagnostics/tests)."""
        count = 0
        for line in _line_range(offset, nbytes):
            entry = self._lines.get((region.name, line))
            if entry is not None and entry[1]:
                count += 1
        return count

    # -- internals ---------------------------------------------------------------

    def _load_entry(self, region: MemoryRegion, line: int) -> list:
        key = (region.name, line)
        entry = self._lines.get(key)
        ms = memsan_active()
        if entry is None:
            if ms is None:
                data = region.read(line * CACHE_LINE, CACHE_LINE)
            else:
                with ms.internal():
                    data = region.read(line * CACHE_LINE, CACHE_LINE)
                ms.cache_load(self.name, region.name, line, fetched=True)
            entry = [data, False]
            self._lines[key] = entry
            self.fills += 1
            tracer = obs_active()
            if tracer is not None:
                tracer.count("cache.lines_filled")
            if self.meter is not None:
                self.meter.charge_ns(self.miss_ns)
                if self.pipe_key is not None:
                    self.meter.charge_transfer(self.pipe_key, CACHE_LINE)
                spans = spans_active()
                if spans is not None:
                    spans.add_ns("cxl_access", self.miss_ns)
            self._evict_if_needed()
        else:
            self._lines.move_to_end(key)
            self.stale_serves += 1
            if ms is not None:
                ms.cache_load(self.name, region.name, line, fetched=False)
            if self.meter is not None:
                self.meter.charge_ns(self.hit_ns)
                spans = spans_active()
                if spans is not None:
                    spans.add_ns("cxl_access", self.hit_ns)
        return entry

    def _load_line(self, region: MemoryRegion, line: int) -> bytes:
        return self._load_entry(region, line)[0]

    def _evict_if_needed(self) -> None:
        while len(self._lines) > self.capacity_lines:
            (region_name, line), entry = self._lines.popitem(last=False)
            ms = memsan_active()
            if entry[1]:
                # Background write-back of a dirty line on capacity eviction
                # — this is the "flushed to CXL memory in the background"
                # hazard from §3.3.
                region = self._regions[region_name]
                if ms is None:
                    region.write(line * CACHE_LINE, entry[0])
                else:
                    with ms.internal():
                        region.write(line * CACHE_LINE, entry[0])
                    ms.cache_flush_line(self.name, region_name, line, dirty=True)
                self.write_backs += 1
                if self.meter is not None:
                    self._charge_writeback(1)
                tracer = obs_active()
                if tracer is not None:
                    tracer.count("cache.evict_writebacks")
                    tracer.emit(
                        "cache",
                        "evict_writeback",
                        cache=self.name,
                        region=region_name,
                        line=line,
                    )
            elif ms is not None:
                ms.cache_invalidate_line(self.name, region_name, line)

    def _charge_writeback(self, lines: int) -> None:
        assert self.meter is not None
        self.meter.charge_ns(lines * self.miss_ns)
        if self.pipe_key is not None:
            self.meter.charge_transfer(self.pipe_key, lines * CACHE_LINE)


def _line_range(offset: int, nbytes: int) -> range:
    """Line indices covering [offset, offset+nbytes); empty when nbytes<=0."""
    if nbytes <= 0:
        return range(0)
    return range(offset // CACHE_LINE, (offset + nbytes - 1) // CACHE_LINE + 1)


def _line_spans(offset: int, nbytes: int):
    """Yield (line_index, offset_within_line, span) covering a range."""
    if nbytes <= 0:
        return
    pos = offset
    end = offset + nbytes
    while pos < end:
        line = pos // CACHE_LINE
        line_off = pos - line * CACHE_LINE
        span = min(CACHE_LINE - line_off, end - pos)
        yield line, line_off, span
        pos += span
