"""Frozen reference models of the two access paths, and their replay streams.

The oracles ``tests/hardware/test_access_equivalence.py`` and
``test_cache_equivalence.py`` compare against. ``_RefMeter`` /
``_RefLineCache`` / ``_RefMappedMemory`` are the pooled access path as
it was before the fused frames: per-access latency arithmetic, one
``touch`` per line, a counter key built per access. ``_RefCpuCache`` is
the sharing path's cache before the resident-line index: every range
operation probes every line of its range. The replay functions drive one
access list through the model under test (typed primitives, behind
windows) and through the reference (the plain ``read`` / ``write`` calls
the primitives stand for) and compare everything either may change.

Do not "improve" the reference classes: their value is that they do not
change when the model does. The two equivalence modules pin the sha256
of the reference side's final state on the built-in streams, so an edit
here fails a test even when the model was edited to match.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

from repro.faults.injector import crash_point
from repro.hardware.cache import CacheWindow, CpuCache, LineCacheModel
from repro.hardware.memory import (
    AccessMeter,
    MappedMemory,
    MemoryRegion,
    MemoryTiming,
    WindowedMemory,
)
from repro.obs.probes import PROBES
from repro.sim.latency import CACHE_LINE, LatencyConfig

PAGE = 16384


@dataclass(frozen=True)
class _RefCharge:
    pipe_key: str
    nbytes: int
    base_ns: float = 0.0


class _RefMeter:
    def __init__(self) -> None:
        self.ns = 0.0
        self.transfers = []
        self.counters = {}

    def charge_ns(self, ns):
        self.ns += ns

    def count(self, key, amount=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def charge_transfer(self, pipe_key, nbytes, base_ns=0.0):
        self.transfers.append(_RefCharge(pipe_key, nbytes, base_ns))
        self.count(pipe_key + "_bytes", nbytes)
        self.count(pipe_key + "_ops", 1)

    def take(self):
        ns, self.ns = self.ns, 0.0
        transfers, self.transfers = self.transfers, []
        return ns, transfers


class _RefLineCache:
    def __init__(self, capacity_bytes=32 << 20) -> None:
        from collections import OrderedDict

        self.capacity_lines = capacity_bytes // CACHE_LINE
        self._lines = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, region_name, line):
        key = (region_name, line)
        lines = self._lines
        if key in lines:
            lines.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        lines[key] = None
        if len(lines) > self.capacity_lines:
            lines.popitem(last=False)
        return False


class _RefMappedMemory:
    """Pre-PR ``MappedMemory._charge``: per-access latency arithmetic,
    per-line ``touch`` calls, per-access counter-key string building."""

    def __init__(self, region, timing, meter, line_cache, counter_key) -> None:
        self.region = region
        self.timing = timing
        self.meter = meter
        self.line_cache = line_cache
        self.counter_key = counter_key

    def read(self, offset, nbytes):
        self._charge(offset, nbytes, write=False)
        return self.region.read(offset, nbytes)

    def write(self, offset, data):
        self._charge(offset, len(data), write=True)
        self.region.write(offset, data)

    def _charge(self, offset, nbytes, write):
        timing = self.timing
        meter = self.meter
        if nbytes >= timing.burst_threshold:
            if write:
                meter.charge_ns(
                    timing.write_burst_base_ns + nbytes * timing.write_burst_ns_per_byte
                )
            else:
                meter.charge_ns(
                    timing.read_burst_base_ns + nbytes * timing.read_burst_ns_per_byte
                )
            device_bytes = nbytes
        else:
            first_line = offset // CACHE_LINE
            last_line = (offset + max(nbytes, 1) - 1) // CACHE_LINE
            hits = 0
            misses = 0
            for line in range(first_line, last_line + 1):
                if self.line_cache.touch(self.region.name, line):
                    hits += 1
                else:
                    misses += 1
            meter.charge_ns(misses * timing.miss_ns + hits * timing.hit_ns)
            device_bytes = misses * CACHE_LINE
        meter.count(self.counter_key + "_touched_bytes", nbytes)
        if timing.pipe_key is not None and device_bytes:
            meter.charge_transfer(timing.pipe_key, device_bytes, timing.pipe_base_ns)


# The functional cache as it was before the resident-line index, the
# bulk crash-point hits and the fused CacheWindow frame: every range
# operation probes every line of the range, every access reads each
# instrument's probe slot.
class _RefCpuCache:
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
        for line, line_off, span in _ref_line_spans(offset, nbytes):
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
            ms = PROBES.memsan
            if ms is not None:
                ms.cache_store(self.name, region.name, line)
            return
        pos = 0
        ms = PROBES.memsan
        for line, line_off, span in _ref_line_spans(offset, nbytes):
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
        for line in _ref_line_range(offset, nbytes):
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
        dropped = 0
        ms = PROBES.memsan
        for line in _ref_line_range(offset, nbytes):
            if self._lines.pop((region.name, line), None) is not None:
                dropped += 1
                if ms is not None:
                    ms.cache_invalidate_line(self.name, region.name, line)
        tracer = PROBES.tracer
        if tracer is not None and dropped:
            tracer.count("cache.lines_invalidated", dropped)
        return dropped

    def drop_all(self) -> None:
        """Crash semantics: every cached line, dirty or not, is gone."""
        self._lines.clear()
        ms = PROBES.memsan
        if ms is not None:
            ms.cache_dropped(self.name)

    def dirty_lines(self, region: MemoryRegion, offset: int, nbytes: int) -> int:
        """How many lines in the range are dirty (diagnostics/tests)."""
        count = 0
        for line in _ref_line_range(offset, nbytes):
            entry = self._lines.get((region.name, line))
            if entry is not None and entry[1]:
                count += 1
        return count

    # -- internals ---------------------------------------------------------------

    def _load_entry(self, region: MemoryRegion, line: int) -> list:
        key = (region.name, line)
        entry = self._lines.get(key)
        ms = PROBES.memsan
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
            tracer = PROBES.tracer
            if tracer is not None:
                tracer.count("cache.lines_filled")
            if self.meter is not None:
                self.meter.charge_ns(self.miss_ns)
                if self.pipe_key is not None:
                    self.meter.charge_transfer(self.pipe_key, CACHE_LINE)
                spans = PROBES.spans
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
                spans = PROBES.spans
                if spans is not None:
                    spans.add_ns("cxl_access", self.hit_ns)
        return entry

    def _load_line(self, region: MemoryRegion, line: int) -> bytes:
        return self._load_entry(region, line)[0]

    def _evict_if_needed(self) -> None:
        while len(self._lines) > self.capacity_lines:
            (region_name, line), entry = self._lines.popitem(last=False)
            ms = PROBES.memsan
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
                tracer = PROBES.tracer
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


def _ref_line_range(offset: int, nbytes: int) -> range:
    """Line indices covering [offset, offset+nbytes); empty when nbytes<=0."""
    if nbytes <= 0:
        return range(0)
    return range(offset // CACHE_LINE, (offset + nbytes - 1) // CACHE_LINE + 1)


def _ref_line_spans(offset: int, nbytes: int):
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


def _cxl_timing(config: LatencyConfig) -> MemoryTiming:
    return MemoryTiming(
        miss_ns=config.cxl_switch_local_ns,
        hit_ns=18.0,
        read_burst_base_ns=config.cxl_read_base_ns,
        read_burst_ns_per_byte=config.cxl_read_ns_per_byte,
        write_burst_base_ns=config.cxl_write_base_ns,
        write_burst_ns_per_byte=config.cxl_write_ns_per_byte,
        pipe_key="cxl",
    )


def _build_mapped(
    optimized: bool, region_bytes: int, cache_bytes: int = 1 << 20, hit_ns: float = 18.0
):
    region = MemoryRegion("perf", region_bytes, volatile=False)
    timing = replace(_cxl_timing(LatencyConfig()), hit_ns=hit_ns)
    if optimized:
        meter = AccessMeter()
        mapped = MappedMemory(region, timing, meter, LineCacheModel(cache_bytes), "cxl")
    else:
        meter = _RefMeter()
        mapped = _RefMappedMemory(region, timing, meter, _RefLineCache(cache_bytes), "cxl")
    return mapped, meter


def replay_accesses(target, ops, typed: bool, base: int = 0) -> list:
    """Apply an access list to ``target``; returns everything it read.

    An op is ``("read", offset, nbytes)``, ``("write", offset, data)``,
    ``("unpack", fmt, offset)`` or ``("run", fmt, offset, stride, count)``.
    ``typed`` sends the last two through ``unpack`` / ``read_run``;
    otherwise they are spelled out as the per-field sequence of ``read``
    calls they stand for — the reference every differential compares
    against. ``base`` shifts every offset (a window's absolute base,
    when ``target`` is the mapping underneath it).
    """
    out: list = []
    for kind, *args in ops:
        if kind == "write":
            target.write(base + args[0], args[1])
        elif kind == "read":
            out.append(target.read(base + args[0], args[1]))
        elif kind == "unpack":
            fmt, offset = args
            if typed:
                out.append(target.unpack(fmt, base + offset))
            else:
                out.append(fmt.unpack(target.read(base + offset, fmt.size)))
        else:
            fmt, offset, stride, count = args
            if typed:
                out.append(target.read_run(fmt, base + offset, stride, count))
            else:
                out.append(
                    [
                        fmt.unpack(target.read(base + offset + i * stride, fmt.size))
                        for i in range(count)
                    ]
                )
    return out


def metering_state(mapped) -> dict:
    """Everything a metered access may change, in comparable form:
    ``meter.ns`` bit for bit, counters and transfers in order, and the
    line cache's LRU order and hit/miss counts."""
    meter, cache = mapped.meter, mapped.line_cache
    lines = cache._lines if isinstance(cache, _RefLineCache) else cache.lines
    return {
        "ns": float(meter.ns).hex(),
        "counters": list(meter.counters.items()),
        "transfers": [(c.pipe_key, c.nbytes, c.base_ns) for c in meter.transfers],
        "lru": list(lines),
        "hits_misses": (cache.hits, cache.misses),
    }


EQUIVALENCE_SPAN = (1 << 20) - 8192  # bytes the differential's window covers
_EQ_FORMATS = tuple(struct.Struct(f) for f in ("<H", "<Q", "<QQ", "<B"))
_EQ_CACHE_BYTES = 1 << 13  # 128 lines: evicts in the middle of runs
# Not a dyadic rational, unlike the model's 18 ns: k hits summed as
# k * hit_ns would differ from k separate additions in the last bits.
_EQ_HIT_NS = 18.3


def _equivalence_ops(n_accesses: int):
    """A fixed mix of every access shape: line-cached reads and writes
    (several sizes and alignments, some straddling lines), bursts, typed
    fields, and runs with both stride signs that cross lines, aligned
    (the batched path) and not (the per-element path)."""
    lcg = 2463534242
    for i in range(n_accesses):
        lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
        # Half the accesses land in a hot 4 KB (half the line cache), so
        # hits, LRU moves and evictions all happen, interleaved.
        offset = (lcg >> 8) % ((EQUIVALENCE_SPAN - 2 * PAGE) if lcg & 64 else 4096) + PAGE
        shape = i % 12
        if not i % 97:
            yield ("read", offset, PAGE)
        elif not i % 101:
            yield ("write", offset, bytes([i & 0xFF]) * PAGE)
        elif shape < 3:
            yield ("read", offset, (8, 69, 130, 200, 0, 1)[i % 6])
        elif shape < 5:
            yield ("write", offset, bytes([i & 0xFF]) * (1, 2, 8, 61, 130)[i % 5])
        elif shape < 8:
            fmt = _EQ_FORMATS[i % 4]
            yield ("unpack", fmt, offset if i % 5 else offset - offset % fmt.size)
        else:
            fmt = _EQ_FORMATS[i % 4]
            if i % 7:  # naturally aligned (window base 24 keeps 8, breaks 16)
                offset -= offset % fmt.size
            stride = fmt.size * (1, -1, 3, -2)[(i // 4) % 4]
            yield ("run", fmt, offset, stride, (1, 7, 40, 90)[(i // 16) % 4])


def check_equivalence(
    n_accesses: int = 20_000, *, ops=None, cache_bytes: int = _EQ_CACHE_BYTES
) -> None:
    """Assert the fused access frames charge what the frozen references do.

    The same access list (``ops``, or the built-in mix) goes through the
    optimized memory — typed primitives, behind a window nested in a
    window — and through the frozen per-access reference as the plain
    ``read`` / ``write`` sequence it stands for. Everything read, and
    after every drain the whole metering state (``meter.ns`` bit for
    bit, counters, transfer list, line-cache LRU order, hits and
    misses), must be equal. Offsets in ``ops`` are relative to the
    window, whose size is ``EQUIVALENCE_SPAN``. With the built-in mix
    the sharing path's lock cycles are checked too
    (:func:`check_cache_equivalence`).
    """
    region_bytes = EQUIVALENCE_SPAN + 8192
    opt, opt_meter = _build_mapped(True, region_bytes, cache_bytes, _EQ_HIT_NS)
    ref, ref_meter = _build_mapped(False, region_bytes, cache_bytes, _EQ_HIT_NS)
    window = WindowedMemory(WindowedMemory(opt, 4096, region_bytes - 4096), 24, EQUIVALENCE_SPAN)
    if ops is None:
        check_cache_equivalence()
        ops = list(_equivalence_ops(n_accesses))
    for start in range(0, len(ops), 512):
        chunk = ops[start : start + 512]
        if replay_accesses(window, chunk, typed=True) != replay_accesses(
            ref, chunk, typed=False, base=window.base
        ):
            raise AssertionError(f"optimized reads diverged in ops {start}..{start + 512}")
        _assert_same_state(metering_state(opt), metering_state(ref), f"ops {start}..{start + 512}")
        opt_meter.take()
        ref_meter.take()


def _assert_same_state(opt_state: dict, ref_state: dict, where: str) -> None:
    for key in opt_state:
        if opt_state[key] != ref_state[key]:
            raise AssertionError(
                f"optimized state diverged in {where}: "
                f"{key} {opt_state[key]!r:.200} != {ref_state[key]!r:.200}"
            )


# -- the sharing path: CpuCache + CacheWindow against _RefCpuCache -----------

CACHE_EQ_REGION = 1 << 18  # bytes in each of the differential's two regions
# Where each region's window starts: a page boundary, and an address that
# is neither line- nor group-aligned (fields straddle, ranges clip groups).
CACHE_EQ_BASES = (PAGE, 3 * PAGE + 1000)
_CACHE_EQ_MISS_NS = 549.3  # non-dyadic, like _EQ_HIT_NS


def build_cache_world(optimized: bool, capacity_lines: int):
    """A metered cache over two patterned regions: ``(cache, regions)``."""
    cls = CpuCache if optimized else _RefCpuCache
    cache = cls(
        "eq.cache",
        capacity_lines=capacity_lines,
        meter=AccessMeter(),
        miss_ns=_CACHE_EQ_MISS_NS,
        hit_ns=_EQ_HIT_NS,
        pipe_key="cxl",
    )
    regions = [MemoryRegion(f"eq{i}", CACHE_EQ_REGION, volatile=False) for i in (0, 1)]
    for i, region in enumerate(regions):
        region.write(0, bytes((j * 7 + i) & 0xFF for j in range(251)) * (CACHE_EQ_REGION // 251))
    return cache, regions


def replay_cache_ops(cache, regions, ops, typed: bool) -> list:
    """Apply a lock-cycle op list to ``cache``; returns everything it returned.

    Ops name a region by index ``r``. Through the region's window
    (offsets relative to ``CACHE_EQ_BASES[r]``): ``("unpack", r, fmt,
    offset)``, ``("run", r, fmt, offset, stride, count)``, ``("read", r,
    offset, nbytes)``, ``("write", r, offset, data)`` — ``typed`` sends
    them through a :class:`CacheWindow`, otherwise they are the
    ``cache.read`` / ``cache.write`` calls they stand for. On the cache
    itself (absolute offsets): ``("clflush" | "invalidate" | "dirty", r,
    offset, nbytes)``, ``("drop_all",)``, ``("capacity", lines)``; and
    ``("remote", r, offset, data)`` is another host's store straight
    into the region.
    """
    out: list = []
    for kind, *args in ops:
        if kind == "drop_all":
            cache.drop_all()
            continue
        if kind == "capacity":
            cache.capacity_lines = args[0]
            continue
        region = regions[args[0]]
        base = CACHE_EQ_BASES[args[0]]
        window = CacheWindow(cache, region, base) if typed else None
        if kind == "unpack":
            fmt, offset = args[1:]
            if typed:
                out.append(window.unpack(fmt, offset))
            else:
                out.append(fmt.unpack(cache.read(region, base + offset, fmt.size)))
        elif kind == "run":
            fmt, offset, stride, count = args[1:]
            if typed:
                out.append(window.read_run(fmt, offset, stride, count))
            else:
                out.append(
                    [
                        fmt.unpack(cache.read(region, base + offset + i * stride, fmt.size))
                        for i in range(count)
                    ]
                )
        elif kind == "read":
            if typed:
                out.append(window.read(args[1], args[2]))
            else:
                out.append(cache.read(region, base + args[1], args[2]))
        elif kind == "write":
            if typed:
                window.write(args[1], args[2])
            else:
                cache.write(region, base + args[1], args[2])
        elif kind == "remote":
            region.write(args[1], args[2])
        else:
            range_op = cache.dirty_lines if kind == "dirty" else getattr(cache, kind)
            out.append(range_op(region, args[1], args[2]))
    return out


def cache_state(cache, regions) -> dict:
    """Everything a cache operation may change, in comparable form: the
    LRU order with each line's bytes and dirty bit, the cache's own
    counts, the meter bit for bit, and the backing regions. The indexed
    cache's resident-line index must name exactly the LRU's lines."""
    meter = cache.meter
    if isinstance(cache, CpuCache):
        indexed = {
            (name, line) for (name, _), group in cache._resident.items() for line in group
        }
        if indexed != set(cache._lines) or not all(cache._resident.values()):
            raise AssertionError("resident-line index out of step with the LRU")
    return {
        "lru": [(key, entry[0], entry[1]) for key, entry in cache._lines.items()],
        "counts": (cache.fills, cache.write_backs, cache.stale_serves),
        "ns": float(meter.ns).hex(),
        "counters": [(key, repr(value)) for key, value in meter.counters.items()],
        "transfers": [(c.pipe_key, c.nbytes, c.base_ns) for c in meter.transfers],
        "backing": [bytes(region._data) for region in regions],
    }


def _lock_cycle_ops(n_cycles: int):
    """What a sharing node does to its cache, cycle after cycle: fix a
    page (typed header and directory reads, a record read), sometimes
    update it (writes, ``dirty_lines``, the page-sized ``clflush`` of a
    write-lock release) or see it invalidated — with remote stores,
    unaligned, group-straddling and empty ranges, ``drop_all`` and
    capacity changes (down to where every fill evicts) mixed in."""
    lcg = 2463534242
    pages = (CACHE_EQ_REGION - CACHE_EQ_BASES[1]) // PAGE - 1
    for cycle in range(n_cycles):
        lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
        r = (lcg >> 4) & 1
        # Half the cycles revisit three hot pages, so lines are re-used,
        # re-filled after a flush, and evicted by the cold ones.
        page = ((lcg >> 8) % (3 if lcg & 32 else pages)) * PAGE
        at = CACHE_EQ_BASES[r] + page  # the page's absolute offset
        for field in (0, 8, 24, 26, 56):
            yield ("unpack", r, _EQ_FORMATS[field % 3], page + field)
        slot = (lcg >> 12) % 2000
        for probe in range(6):
            yield ("unpack", r, _EQ_FORMATS[0], page + PAGE - 2 * (slot >> probe) - 2)
        yield ("run", r, _EQ_FORMATS[0], page + PAGE - 2 * slot - 2, -2, 1 + cycle % 9)
        record = 128 + (lcg >> 10) % 9000
        yield ("unpack", r, _EQ_FORMATS[2], page + record)  # may straddle a line
        yield ("read", r, page + record, (0, 1, 48, 64, 190, 700)[cycle % 6])
        if cycle % 3 == 0:
            yield ("remote", r, at + record, bytes([cycle & 0xFF]) * 24)
        if cycle % 2:
            yield ("write", r, page + record, bytes([cycle & 0xFF]) * (2, 8, 61, 130, 190)[cycle % 5])
            yield ("write", r, page + 24, struct.pack("<H", cycle & 0xFFFF))
            yield ("dirty", r, at, PAGE)
            if cycle % 8 != 7:  # one in four updaters keeps its dirty lines to be evicted
                yield ("clflush", r, at, PAGE)
                yield ("dirty", r, at, PAGE)
        elif cycle % 4 == 0:
            yield ("invalidate", r, at, PAGE)
        if cycle % 11 == 0:
            yield ("clflush", r, at + 100, (0, 1, 63, 64, 65, 5000)[(cycle // 11) % 6])
            yield ("invalidate", r, at + 16000, (0, 1, 500, 2 * PAGE)[(cycle // 11) % 4])
            yield ("dirty", r, 0, CACHE_EQ_REGION)
        if cycle % 97 == 96:
            yield ("drop_all",)
        if cycle % 150 == 149:
            yield ("capacity", (24, 200, 3, 96)[(cycle // 150) % 4])


def check_cache_equivalence(
    n_cycles: int = 1_500, *, ops=None, capacity_lines: int = 96
) -> None:
    """Assert the sharing access path behaves as the frozen ``_RefCpuCache``.

    The same lock-cycle op list (``ops``, or the built-in stream) goes
    through :class:`CpuCache` behind :class:`CacheWindow` and through the
    frozen per-line reference as plain ``read`` / ``write`` calls; both
    run under whatever instruments and fault injector the caller has
    installed. Everything returned, and after every drain the whole
    :func:`cache_state`, must be equal.
    """
    opt, opt_regions = build_cache_world(True, capacity_lines)
    ref, ref_regions = build_cache_world(False, capacity_lines)
    if ops is None:
        ops = list(_lock_cycle_ops(n_cycles))
    for start in range(0, len(ops), 256):
        chunk = ops[start : start + 256]
        where = f"cache ops {start}..{start + 256}"
        if replay_cache_ops(opt, opt_regions, chunk, typed=True) != replay_cache_ops(
            ref, ref_regions, chunk, typed=False
        ):
            raise AssertionError(f"optimized cache results diverged in {where}")
        _assert_same_state(cache_state(opt, opt_regions), cache_state(ref, ref_regions), where)
        opt.meter.take()
        ref.meter.take()
