"""Executable specs of the two access paths, and their replay streams.

``SpecMappedMemory`` (the pooled access path) and ``SpecCpuCache`` (the
sharing path's functional cache) are the model written the plain way:
one ``OrderedDict`` LRU, a per-line loop over every range, no index, no
fused frame, no hoisted probe, and no model class or private helper of
``repro.hardware`` named. Each bit-identity rule of PERFORMANCE.md
"Equivalence guarantees" is a ``Rule:`` comment where it is enforced.
The replay functions drive one access list through the model (typed
primitives, behind windows) and through the spec (the plain ``read`` /
``write`` calls they stand for) and compare everything either may change.

The spec is the contract; the pinned hashes guard it: the equivalence
modules pin the sha256 of the spec side's state on the built-in streams,
so an edit here fails a test even when the model was edited to match.
"""

from __future__ import annotations

import functools
import struct
import weakref
from collections import OrderedDict, namedtuple
from contextlib import nullcontext
from dataclasses import replace

from repro.faults.injector import crash_point
# The models under test (the cache classes, AccessMeter, MappedMemory,
# WindowedMemory): only the differential's builders below the specs name them.
from repro.hardware.cache import CacheWindow, CpuCache, LineCacheModel
from repro.hardware.host import cxl_timing
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

# -- the pooled access path ------------------------------------------------------

Transfer = namedtuple("Transfer", "pipe_key nbytes base_ns")


class SpecMeter:
    """``ns``, the counters and the pending transfers; ``take`` drains two."""

    def __init__(self) -> None:
        self.ns, self.counters, self.transfers = 0.0, {}, []

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def transfer(self, pipe_key, nbytes, base_ns=0.0):
        # Rule: transfers stay in order, each counted under its pipe as it is made.
        self.transfers.append(Transfer(pipe_key, nbytes, base_ns))
        self.count(pipe_key + "_bytes", nbytes)
        self.count(pipe_key + "_ops", 1)

    def take(self):
        taken, self.ns, self.transfers = (self.ns, self.transfers), 0.0, []
        return taken


class SpecLineLru:
    """The timing-only line cache: ``(region, line)`` keys, oldest first."""

    def __init__(self, capacity_bytes) -> None:
        self.capacity_lines, self.lines = capacity_bytes // CACHE_LINE, OrderedDict()
        self.hits = self.misses = 0

    def touch(self, name, line):
        # Rule: one global per-line LRU, whatever the region.
        if (name, line) in self.lines:
            self.lines.move_to_end((name, line))
            self.hits += 1
            return True
        self.misses += 1
        self.lines[name, line] = None
        if len(self.lines) > self.capacity_lines:
            self.lines.popitem(last=False)
        return False


class SpecMappedMemory:
    """A metered mapping: the region's own ``read`` / ``write`` (which
    refuse a bad access before anything is charged), then one ``_charge``."""

    def __init__(self, region, timing: MemoryTiming, meter, line_cache, counter_key) -> None:
        self.region, self.timing, self.meter = region, timing, meter
        self.line_cache, self.counter_key = line_cache, counter_key

    def read(self, offset, nbytes):
        data = self.region.read(offset, nbytes)
        self._charge(offset, nbytes, write=False)
        return data

    def write(self, offset, data):
        self.region.write(offset, data)
        self._charge(offset, len(data), write=True)

    def _charge(self, offset, nbytes, write):
        timing, meter = self.timing, self.meter
        if nbytes >= timing.burst_threshold:  # priced by its size, every byte streamed
            if write:
                meter.ns += timing.write_burst_base_ns + nbytes * timing.write_burst_ns_per_byte
            else:
                meter.ns += timing.read_burst_base_ns + nbytes * timing.read_burst_ns_per_byte
            device_bytes = nbytes
        else:  # line by line through the LRU (an empty access touches its line)
            lines = range(offset // CACHE_LINE, (offset + max(nbytes, 1) - 1) // CACHE_LINE + 1)
            hit = [self.line_cache.touch(self.region.name, line) for line in lines]
            hits, misses = hit.count(True), hit.count(False)
            # Rule: one addition into meter.ns per access, never one per line.
            meter.ns += misses * timing.miss_ns + hits * timing.hit_ns
            device_bytes = misses * CACHE_LINE  # only misses cross the link
        meter.count(self.counter_key + "_touched_bytes", nbytes)
        if timing.pipe_key is not None and device_bytes:
            meter.transfer(timing.pipe_key, device_bytes, timing.pipe_base_ns)


# -- the sharing path ------------------------------------------------------------


def _covering(offset, nbytes):
    """``range(first, last + 1)``: the lines [offset, offset + nbytes) covers."""
    first = offset // CACHE_LINE
    return range(first, (offset + nbytes - 1) // CACHE_LINE + 1 if nbytes > 0 else first)


def _own_traffic():
    """The cache's own region traffic: MemSan hears the line event instead."""
    ms = PROBES.memsan
    return nullcontext() if ms is None else ms.internal()


class SpecCpuCache:
    """A sharing node's functional write-back cache, line by line.

    Reads fill missed lines, then serve cached copies, stale or not. Writes
    dirty cached lines; the region sees them at ``clflush`` or eviction, as
    CXL 2.0 keeps no cache coherent across hosts (PAPER.md §3). Each line
    event reaches the instruments read from ``PROBES`` there and then:
    what they hear is part of the contract.
    """

    def __init__(
        self, name, capacity_lines=1 << 16, meter=None, miss_ns=0.0, hit_ns=0.0, pipe_key=None
    ) -> None:
        self.name, self.capacity_lines, self.meter = name, capacity_lines, meter
        self.miss_ns, self.hit_ns, self.pipe_key = miss_ns, hit_ns, pipe_key
        # Rule: one global per-line LRU over every region; eviction takes the oldest.
        self._lines: OrderedDict = OrderedDict()  # (region name, line) -> [bytes, dirty]
        self._regions: dict = {}  # region name -> the region its evicted lines go to
        self.fills = self.write_backs = self.stale_serves = 0

    def read(self, region: MemoryRegion, offset, nbytes):
        out = b""
        for line in _covering(offset, nbytes):
            at = line * CACHE_LINE
            out += self._access(region, line)[0][max(offset - at, 0) : offset + nbytes - at]
        return out

    def write(self, region: MemoryRegion, offset, data):
        for line in _covering(offset, len(data)):
            at = line * CACHE_LINE
            low, high = max(offset - at, 0), min(offset + len(data) - at, CACHE_LINE)
            entry = self._access(region, line)
            new = data[at + low - offset : at + high - offset]
            entry[0], entry[1] = entry[0][:low] + new + entry[0][high:], True
            self._tell("cache_store", region.name, line)

    def clflush(self, region: MemoryRegion, offset, nbytes):
        """Write back the range's dirty lines, drop all; returns the write-backs."""
        written = 0
        for line in _covering(offset, nbytes):
            # Rule: one crash-point hit per line of the range, cached or not; a
            # crash between lines tears the flush, as write-release (§3.3) allows.
            crash_point("cache.clflush.line")
            entry = self._lines.pop((region.name, line), None)
            if entry is None:
                continue
            if entry[1]:
                with _own_traffic():
                    region.write(line * CACHE_LINE, entry[0])
                written += 1
            self._tell("cache_flush_line", region.name, line, dirty=entry[1])
        self.write_backs += written
        if written:
            # Rule: a flush's write-back is one ``lines * miss_ns`` charge per call.
            self._charge(written * self.miss_ns, written * CACHE_LINE, span=False)
            self._count("cache.lines_flushed", written)
            self._count("cache.flush_bytes", written * CACHE_LINE)
        return written

    def invalidate(self, region: MemoryRegion, offset, nbytes):
        """Drop the range's lines unwritten; returns how many were cached."""
        dropped = 0
        for line in _covering(offset, nbytes):
            if self._lines.pop((region.name, line), None) is not None:
                dropped += 1
                self._tell("cache_invalidate_line", region.name, line)
        self._count("cache.lines_invalidated", dropped)
        return dropped

    def drop_all(self):
        """A crash: every cached line, dirty or not, is gone."""
        self._lines.clear()
        self._tell("cache_dropped")

    def dirty_lines(self, region: MemoryRegion, offset, nbytes):
        entries = [self._lines.get((region.name, line)) for line in _covering(offset, nbytes)]
        return sum(1 for entry in entries if entry is not None and entry[1])

    def _access(self, region, line):
        """One line through the cache: a hit, or a fill that may evict."""
        self._regions[region.name] = region
        entry = self._lines.get((region.name, line))
        if entry is not None:
            self._lines.move_to_end((region.name, line))
            self.stale_serves += 1
            self._tell("cache_load", region.name, line, fetched=False)
            self._charge(self.hit_ns, 0)
            return entry
        with _own_traffic():
            data = region.read(line * CACHE_LINE, CACHE_LINE)
        entry = self._lines[region.name, line] = [data, False]
        self._tell("cache_load", region.name, line, fetched=True)
        self.fills += 1
        self._count("cache.lines_filled", 1)
        self._charge(self.miss_ns, CACHE_LINE)
        while len(self._lines) > self.capacity_lines:
            self._evict_oldest()
        return entry

    def _evict_oldest(self):
        (name, line), (data, dirty) = self._lines.popitem(last=False)
        if not dirty:
            self._tell("cache_invalidate_line", name, line)
            return
        # A dirty line reaches the region in the background (the §3.3 hazard).
        with _own_traffic():
            self._regions[name].write(line * CACHE_LINE, data)
        self._tell("cache_flush_line", name, line, dirty=True)
        self.write_backs += 1
        self._charge(self.miss_ns, CACHE_LINE, span=False)
        self._count("cache.evict_writebacks", 1)
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.emit("cache", "evict_writeback", cache=self.name, region=name, line=line)

    def _charge(self, ns, nbytes, span=True):
        meter = self.meter
        if meter is None:
            return
        # Rule: one addition into meter.ns per line access, in access order.
        meter.ns += ns
        if nbytes and self.pipe_key is not None:
            meter.transfer(self.pipe_key, nbytes)
        spans = PROBES.spans
        if span and spans is not None:
            # Rule: span costs get the same additions as meter.ns, in the same order.
            spans.add_ns("cxl_access", ns)

    def _tell(self, hook, *line, **how):
        # Rule: the MemSan call sequence is fixed: one hook per line event, as it happens.
        ms = PROBES.memsan
        if ms is not None:
            getattr(ms, hook)(self.name, *line, **how)

    def _count(self, key, amount):
        tracer = PROBES.tracer
        if tracer is not None and amount:
            tracer.count(key, amount)


def _build_mapped(
    optimized: bool, region_bytes: int, cache_bytes: int = 1 << 20, hit_ns: float = 18.0
):
    region = MemoryRegion("perf", region_bytes, volatile=False)
    timing = replace(cxl_timing(LatencyConfig()), hit_ns=hit_ns)
    if optimized:
        meter = AccessMeter()
        mapped = MappedMemory(region, timing, meter, LineCacheModel(cache_bytes), "cxl")
    else:
        meter = SpecMeter()
        mapped = SpecMappedMemory(region, timing, meter, SpecLineLru(cache_bytes), "cxl")
    return mapped, meter


def replay_accesses(target, ops, typed: bool, base: int = 0) -> list:
    """Apply an access list to ``target``; returns everything it read.

    An op is ``("read", offset, nbytes)``, ``("write", offset, data)``,
    ``("unpack", fmt, offset)`` or ``("run", fmt, offset, stride, count)``.
    ``typed`` sends the last two through ``unpack`` / ``read_run``;
    otherwise they are spelled out as the per-field sequence of ``read``
    calls they stand for — what the spec side of every differential
    replays. ``base`` shifts every offset (a window's absolute base,
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
                at = [base + offset + i * stride for i in range(count)]
                out.append([fmt.unpack(target.read(field, fmt.size)) for field in at])
    return out


def metering_state(mapped) -> dict:
    """Everything a metered access may change, in comparable form:
    ``meter.ns`` bit for bit, counters and transfers in order, and the
    line cache's LRU order and hit/miss counts."""
    meter, cache = mapped.meter, mapped.line_cache
    return {
        "ns": float(meter.ns).hex(),
        "counters": list(meter.counters.items()),
        "transfers": [(c.pipe_key, c.nbytes, c.base_ns) for c in meter.transfers],
        "lru": list(cache.lines),
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
    """Assert the fused access frames charge what the spec does.

    The same access list (``ops``, or the built-in mix) goes through the
    optimized memory — typed primitives, behind a window nested in a
    window — and through :class:`SpecMappedMemory` as the plain
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


# -- the sharing path's differential: CpuCache + CacheWindow against SpecCpuCache

CACHE_EQ_REGION = 1 << 18  # bytes in each of the differential's two regions
# Where each region's window starts: a page boundary, and an address that
# is neither line- nor group-aligned (fields straddle, ranges clip groups).
CACHE_EQ_BASES = (PAGE, 3 * PAGE + 1000)
_CACHE_EQ_MISS_NS = 549.3  # non-dyadic, like _EQ_HIT_NS


@functools.cache
def _cache_eq_images() -> tuple[bytes, ...]:
    """Each region's whole initial contents, built once per process: a
    251-byte pattern, so no two lines match, zero-padded to the end."""
    return tuple(
        (bytes((j * 7 + i) & 0xFF for j in range(251)) * (CACHE_EQ_REGION // 251)).ljust(
            CACHE_EQ_REGION, b"\0"
        )
        for i in (0, 1)
    )


#: Per side (``optimized``): the regions its last world got, and that
#: world's cache, weakly. A fresh anonymous map faults in every page it
#: is written, so the regions are rewritten in place once their world is
#: gone, and fresh ones are made only while it is alive.
_KEPT_REGIONS: dict[bool, tuple[list, weakref.ref]] = {}


def build_cache_world(optimized: bool, capacity_lines: int):
    """A metered cache over two patterned regions: ``(cache, regions)``."""
    cls = CpuCache if optimized else SpecCpuCache
    cache = cls(
        "eq.cache",
        capacity_lines=capacity_lines,
        meter=AccessMeter() if optimized else SpecMeter(),
        miss_ns=_CACHE_EQ_MISS_NS,
        hit_ns=_EQ_HIT_NS,
        pipe_key="cxl",
    )
    kept = _KEPT_REGIONS.get(optimized)
    if kept is not None and kept[1]() is None:
        regions = kept[0]
    else:
        regions = [MemoryRegion(f"eq{i}", CACHE_EQ_REGION, volatile=False) for i in (0, 1)]
    with PROBES.suspended("memsan"):  # filling the regions is no node's store
        for region, image in zip(regions, _cache_eq_images()):
            region.write(0, image)
    _KEPT_REGIONS[optimized] = (regions, weakref.ref(cache))
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
    if typed:
        windows = [CacheWindow(cache, region, base) for region, base in zip(regions, CACHE_EQ_BASES)]
    out: list = []
    for kind, *args in ops:
        if kind == "drop_all":
            cache.drop_all()
        elif kind == "capacity":
            cache.capacity_lines = args[0]
        elif kind == "remote":
            regions[args[0]].write(args[1], args[2])
        elif kind in ("clflush", "invalidate", "dirty"):
            range_op = cache.dirty_lines if kind == "dirty" else getattr(cache, kind)
            out.append(range_op(regions[args[0]], args[1], args[2]))
        elif typed:
            window = windows[args[0]]
            if kind == "write":
                window.write(*args[1:])
            else:
                out.append(getattr(window, "read_run" if kind == "run" else kind)(*args[1:]))
        else:
            region, base = regions[args[0]], CACHE_EQ_BASES[args[0]]
            if kind == "write":
                cache.write(region, base + args[1], args[2])
            elif kind == "read":
                out.append(cache.read(region, base + args[1], args[2]))
            elif kind == "unpack":
                fmt, offset = args[1:]
                out.append(fmt.unpack(cache.read(region, base + offset, fmt.size)))
            else:
                fmt, offset, stride, count = args[1:]
                at = [base + offset + i * stride for i in range(count)]
                out.append([fmt.unpack(cache.read(region, field, fmt.size)) for field in at])
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
    """Assert the sharing access path behaves as :class:`SpecCpuCache`.

    The same lock-cycle op list (``ops``, or the built-in stream) goes
    through :class:`CpuCache` behind :class:`CacheWindow` and through the
    per-line spec as plain ``read`` / ``write`` calls; both
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
