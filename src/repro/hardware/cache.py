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
  A :class:`CacheWindow` is one page's view of it — the page accessor
  of the sharing pools.
"""

from __future__ import annotations

from collections import OrderedDict
from struct import Struct
from typing import Optional

from ..faults.injector import crash_point
from ..obs.probes import PROBES
from ..sim.latency import CACHE_LINE
from .memory import AccessMeter, MemoryRegion, TransferCharge

__all__ = ["LineCacheModel", "CpuCache", "CacheWindow"]


class LineCacheModel:
    """Timing-only LRU cache over (region, line) keys.

    ``lines`` is the LRU itself, oldest first. It is public because
    :class:`~repro.hardware.memory.MappedMemory` probes it inline for
    single-line accesses (the pooled workloads' hottest operation); such a
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
        return self.touch_range(region_name, line, line) == (1, 0)

    def touch_range(
        self, region_name: str, first_line: int, last_line: int
    ) -> tuple[int, int]:
        """Coalesced probe of ``first_line..last_line`` inclusive.

        Exactly equivalent to calling :meth:`touch` per line (same LRU
        moves, same insertion and eviction order), but with the dict,
        bound methods and capacity hoisted out of the loop. Single-line
        accesses are probed inline by the fused frames, instrumented or
        not; what arrives here spans lines.
        """
        lines = self.lines
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

    def clear(self) -> None:
        self.lines.clear()

    def snapshot(self) -> tuple:
        return tuple(self.lines), self.hits, self.misses

    def restore(self, state: tuple) -> None:
        lines, self.hits, self.misses = state
        self.lines.clear()  # in place: the fused frames hold this dict
        self.lines.update(dict.fromkeys(lines))

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# Lines per group of the resident-line index: a 16 KB page, when aligned.
_GROUP_SHIFT = 8


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

    Beside the global per-line LRU the cache keeps which lines of each
    aligned group of 256 are resident, so a range operation (``clflush``
    / ``invalidate`` / ``dirty_lines`` of a page) visits the handful of
    lines that are cached, in ascending order, instead of probing every
    line of the range.
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
        # (region, line) -> [bytes, dirty, MemoryRegion], least recent first.
        self._lines: OrderedDict[tuple[str, int], list] = OrderedDict()
        # (region, line >> _GROUP_SHIFT) -> the group's resident lines;
        # kept in step with _lines by _fill, _drop and drop_all only.
        self._resident: dict[tuple[str, int], set[int]] = {}
        # Every fill moves the same (pipe, 64 B): one shared immutable
        # charge and two interned counter names instead of one per miss.
        self._line_charge = (
            TransferCharge(pipe_key, CACHE_LINE) if pipe_key is not None else None
        )
        self._pipe_bytes_key = f"{pipe_key}_bytes"
        self._pipe_ops_key = f"{pipe_key}_ops"
        self.fills = 0
        self.write_backs = 0
        self.stale_serves = 0  # diagnostic: cached reads (may be stale)

    # -- data path --------------------------------------------------------------

    def read(self, region: MemoryRegion, offset: int, nbytes: int) -> bytes:
        """Read through the cache; cached lines win over backing memory."""
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
            out += self._load_entry(region, line)[0][line_off : line_off + span]
        return bytes(out)

    def write(self, region: MemoryRegion, offset: int, data: bytes) -> None:
        """Write into the cache only; backing memory unchanged until flush."""
        nbytes = len(data)
        if nbytes <= 0:
            return
        ms = PROBES.memsan
        line = offset // CACHE_LINE
        if offset + nbytes <= (line + 1) * CACHE_LINE:
            spans = ((line, offset - line * CACHE_LINE, nbytes),)
        else:
            spans = _line_spans(offset, nbytes)
        pos = 0
        for line, line_off, span in spans:
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
        ms = PROBES.memsan
        name = region.name
        first, last = _line_bounds(offset, nbytes)
        hit = first - 1  # the last line whose crash-point hit is recorded
        for line in self._resident_lines(name, first, last):
            # Crash between line flushes: lines already flushed are in
            # the backing region, the rest die dirty in this cache — a
            # torn line-set flush, the hazard the per-line write-release
            # protocol (§3.3) must tolerate. One hit per line of the
            # range, resident or not: the absent lines below this one
            # change no state, so their hits are recorded with it.
            crash_point("cache.clflush.line", hits=line - hit)
            hit = line
            entry = self._drop(name, line)
            if entry[1]:
                _write_back(region, line, entry[0])
                written += 1
            if ms is not None:
                ms.cache_flush_line(self.name, name, line, dirty=entry[1])
        crash_point("cache.clflush.line", hits=last - hit)
        self.write_backs += written
        if self.meter is not None and written:
            self._charge_writeback(written)
        tracer = PROBES.tracer
        if tracer is not None and written:
            tracer.count("cache.lines_flushed", written)
            tracer.count("cache.flush_bytes", written * CACHE_LINE)
        return written

    def invalidate(self, region: MemoryRegion, offset: int, nbytes: int) -> int:
        """Drop lines without write-back (only safe when they are clean).

        Returns the number of lines dropped so callers can charge the
        per-line invalidation cost.
        """
        ms = PROBES.memsan
        name = region.name
        resident = self._resident_lines(name, *_line_bounds(offset, nbytes))
        for line in resident:
            self._drop(name, line)
            if ms is not None:
                ms.cache_invalidate_line(self.name, name, line)
        tracer = PROBES.tracer
        if tracer is not None and resident:
            tracer.count("cache.lines_invalidated", len(resident))
        return len(resident)

    def drop_all(self) -> None:
        """Crash semantics: every cached line, dirty or not, is gone."""
        self._lines.clear()
        self._resident.clear()
        ms = PROBES.memsan
        if ms is not None:
            ms.cache_dropped(self.name)

    def dirty_lines(self, region: MemoryRegion, offset: int, nbytes: int) -> int:
        """How many lines in the range are dirty (diagnostics/tests)."""
        name = region.name
        return sum(
            self._lines[name, line][1]
            for line in self._resident_lines(name, *_line_bounds(offset, nbytes))
        )

    # -- internals ---------------------------------------------------------------

    def _load_entry(self, region: MemoryRegion, line: int) -> list:
        """One line through the cache: the general access
        (:meth:`CacheWindow.unpack` is its single-field form)."""
        key = (region.name, line)
        entry = self._lines.get(key)
        if entry is None:
            return self._fill(region, key)
        self._lines.move_to_end(key)
        self.stale_serves += 1
        ms = PROBES.memsan
        if ms is not None:
            ms.cache_load(self.name, key[0], line, fetched=False)
        meter = self.meter
        if meter is not None:
            meter.ns += self.hit_ns
            spans = PROBES.spans
            if spans is not None:
                spans.add_ns("cxl_access", self.hit_ns)
        return entry

    def _fill(self, region: MemoryRegion, key: tuple[str, int]) -> list:
        """A miss: fetch the line from the region (bounds and poison are
        its checks), make it resident, charge it, evict over capacity."""
        name, line = key
        at = line * CACHE_LINE
        if region._poisoned or at < 0 or at + CACHE_LINE > region.size:
            region._refuse(at, CACHE_LINE)
        # The model's own traffic, not an actor's raw load: MemSan hears
        # of the fill, and the bytes come straight from the buffer.
        ms = PROBES.memsan
        if ms is not None:
            ms.cache_load(self.name, name, line, fetched=True)
        entry = [region._data[at : at + CACHE_LINE], False, region]
        self._lines[key] = entry
        group = self._resident.get((name, line >> _GROUP_SHIFT))
        if group is None:
            self._resident[name, line >> _GROUP_SHIFT] = {line}
        else:
            group.add(line)
        self.fills += 1
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("cache.lines_filled")
        meter = self.meter
        if meter is not None:
            meter.ns += self.miss_ns
            charge = self._line_charge
            if charge is not None:
                # AccessMeter.charge_transfer, minus the allocation.
                meter.transfers.append(charge)
                counters = meter.counters
                counter = self._pipe_bytes_key
                counters[counter] = counters.get(counter, 0.0) + CACHE_LINE
                counter = self._pipe_ops_key
                counters[counter] = counters.get(counter, 0.0) + 1
            spans = PROBES.spans
            if spans is not None:
                spans.add_ns("cxl_access", self.miss_ns)
        if len(self._lines) > self.capacity_lines:
            self._evict()
        return entry

    def _resident_lines(self, name: str, first: int, last: int) -> list[int]:
        """The resident lines of ``first..last`` inclusive, ascending."""
        found: list[int] = []
        resident = self._resident
        for group in range(first >> _GROUP_SHIFT, (last >> _GROUP_SHIFT) + 1):
            lines = resident.get((name, group))
            if lines is not None:
                lines = sorted(lines)
                if lines[0] < first or lines[-1] > last:  # the range clips this group
                    lines = [line for line in lines if first <= line <= last]
                found += lines
        return found

    def _drop(self, name: str, line: int) -> list:
        """Take one resident line out of the LRU and the index."""
        group_key = (name, line >> _GROUP_SHIFT)
        group = self._resident[group_key]
        group.remove(line)
        if not group:
            del self._resident[group_key]
        return self._lines.pop((name, line))

    def _evict(self) -> None:
        lines = self._lines
        while len(lines) > self.capacity_lines:
            name, line = next(iter(lines))  # the least recently used
            entry = self._drop(name, line)
            ms = PROBES.memsan
            if entry[1]:
                # Background write-back of a dirty line on capacity eviction
                # — this is the "flushed to CXL memory in the background"
                # hazard from §3.3.
                _write_back(entry[2], line, entry[0])
                if ms is not None:
                    ms.cache_flush_line(self.name, name, line, dirty=True)
                self.write_backs += 1
                if self.meter is not None:
                    self._charge_writeback(1)
                tracer = PROBES.tracer
                if tracer is not None:
                    tracer.count("cache.evict_writebacks")
                    tracer.emit(
                        "cache",
                        "evict_writeback",
                        cache=self.name,
                        region=name,
                        line=line,
                    )
            elif ms is not None:
                ms.cache_invalidate_line(self.name, name, line)

    def _charge_writeback(self, lines: int) -> None:
        assert self.meter is not None
        self.meter.charge_ns(lines * self.miss_ns)
        if self.pipe_key is not None:
            self.meter.charge_transfer(self.pipe_key, lines * CACHE_LINE)


class CacheWindow:
    """A span of a region seen through a :class:`CpuCache`, addressed from
    zero: the page accessor every sharing pool hands the engine.

    ``unpack`` is **the** frame of a cached typed read. A field that
    lies inside one line is looked up, charged and decoded right here,
    and a hit then tells the installed instruments
    (:data:`repro.obs.probes.PROBES`) itself; a miss adds
    :meth:`CpuCache._fill`. A field that straddles lines goes through
    :meth:`CpuCache.read`; the fused frame must leave the cache, the
    meter, the transfer list and every instrument exactly as that would,
    and both are checked against the executable spec ``SpecCpuCache``
    (``tests/hardware/reference_models.py``).

    >>> from struct import Struct
    >>> region = MemoryRegion("shared", 4096, volatile=False)
    >>> region.write(1024 + 6, b"ab")
    >>> cache = CpuCache("node0.cache")
    >>> page = CacheWindow(cache, region, 1024)
    >>> page.unpack(Struct("2s"), 6)      # cold: fills line 16
    (b'ab',)
    >>> page.write(6, b"AB")              # dirty in the cache only
    >>> page.unpack(Struct("2s"), 6), region.read(1024 + 6, 2)
    ((b'AB',), b'ab')
    >>> (cache.fills, cache.stale_serves, cache.dirty_lines(region, 1024, 64))
    (1, 2, 1)
    """

    __slots__ = ("cache", "region", "base")

    def __init__(self, cache: CpuCache, region: MemoryRegion, base: int) -> None:
        self.cache = cache
        self.region = region
        self.base = base

    def read(self, offset: int, nbytes: int) -> bytes:
        return self.cache.read(self.region, self.base + offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        self.cache.write(self.region, self.base + offset, data)

    def unpack(self, fmt: Struct, offset: int) -> tuple:
        """``fmt.unpack(self.read(offset, fmt.size))`` without the copy."""
        cache = self.cache
        at = self.base + offset
        line_off = at % CACHE_LINE
        if not 0 < fmt.size <= CACHE_LINE - line_off:
            return fmt.unpack(cache.read(self.region, at, fmt.size))
        region = self.region
        lines = cache._lines
        key = (region.name, at // CACHE_LINE)
        entry = lines.get(key)
        if entry is None:
            entry = cache._fill(region, key)  # reports itself
        else:
            lines.move_to_end(key)
            cache.stale_serves += 1
            meter = cache.meter
            if meter is not None:
                meter.ns += cache.hit_ns
            if PROBES.any:
                ms, spans = PROBES.memsan, PROBES.spans
                if ms is not None:
                    ms.cache_load(cache.name, key[0], key[1], fetched=False)
                if spans is not None and meter is not None:
                    spans.add_ns("cxl_access", cache.hit_ns)
        return fmt.unpack_from(entry[0], line_off)

    def read_run(self, fmt: Struct, offset: int, stride: int, count: int) -> list:
        """In order, field by field: sharing traffic stays byte for byte
        what separate reads produce (no line touch is reordered)."""
        unpack = self.unpack
        return [unpack(fmt, offset + i * stride) for i in range(count)]


def _write_back(region: MemoryRegion, line: int, data: bytes) -> None:
    """Store one line in its region — the model's own traffic, so the
    region's refusals and then its buffer, not the sanitized ``write``."""
    at = line * CACHE_LINE
    if region._poisoned or at + CACHE_LINE > region.size:
        region._refuse(at, CACHE_LINE)
    region._data[at : at + CACHE_LINE] = data
    region._written[at >> 16] = 1  # the line's 64 KB extent


def _line_bounds(offset: int, nbytes: int) -> tuple[int, int]:
    """First and last line covering [offset, offset+nbytes); when the
    range is empty, ``last == first - 1``."""
    first = offset // CACHE_LINE
    if nbytes <= 0:
        return first, first - 1
    return first, (offset + nbytes - 1) // CACHE_LINE


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
