"""Byte-addressable memory regions and access metering.

A :class:`MemoryRegion` is the *functional* substance of the simulation:
a byte buffer with explicit volatility semantics. Host DRAM regions lose
their contents on a crash (``power_fail`` poisons them); CXL-box regions
survive, because the switch and memory devices have independent power
supply units (paper §3.2). The buffer is an anonymous mapping, zero on
demand, and every store into it marks its 64 KB extent in a one-byte-per-
extent map: a region costs what it has been written, not what it could
hold, and so does its snapshot.

A :class:`MappedMemory` is a host's window onto a region through a
particular interconnect. Every read/write is metered: latency is charged
to an :class:`AccessMeter` (using a per-line timing cache to model the
CPU cache absorbing repeat accesses) and bytes are recorded as pending
transfers against named bandwidth pipes, which the workload driver
settles inside the discrete-event simulation. A :class:`WindowedMemory`
is a sub-range of one, addressed from zero: a CXL extent, one block's
metadata, one page frame.

A metered access is **one frame**: ``write`` / ``unpack`` / ``read_run``
validate, probe the line cache, charge and touch the region buffer
themselves, and ``write`` / ``unpack`` then tell the instruments that
are installed (:data:`repro.obs.probes.PROBES`) what the frame already
knows: hit or miss, the latency just added. Bursts and accesses that
straddle lines take the general :meth:`MappedMemory._charge`; the fused
frames must leave the meter, the line cache, the transfer list and every
instrument exactly as it would, and the pair is checked against the
executable spec ``SpecMappedMemory`` (``tests/hardware/reference_models.py``).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from struct import Struct
from typing import TYPE_CHECKING, Optional

from ..obs.probes import PROBES
from ..sim.latency import CACHE_LINE, LatencyTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cache import LineCacheModel

__all__ = [
    "MemoryRegion",
    "AccessMeter",
    "TransferCharge",
    "MemoryTiming",
    "MappedMemory",
    "WindowedMemory",
    "PoisonedMemoryError",
]

class PoisonedMemoryError(RuntimeError):
    """Raised when reading a volatile region after a power failure."""


# Granule of a region snapshot and of its written-extent map: an all-zero
# extent is not stored. The stores outside this module index the map
# with the literal ``>> 16``.
_EXTENT_SHIFT = 16
_EXTENT = 1 << _EXTENT_SHIFT
_ZERO_EXTENT = bytes(_EXTENT)


def _zero_pages(size: int) -> mmap.mmap:
    """A fresh all-zero backing. Private, not the shared mapping
    ``mmap(-1, size)`` defaults to: like the ``bytearray`` it replaced,
    a forked child's writes must never reach the parent's regions."""
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)


class MemoryRegion:
    """A contiguous span of simulated physical memory.

    ``_data`` is an anonymous ``mmap``: the OS hands out zero pages on
    first touch, so an oversized region (a loader pool, a CXL extent
    sized for growth) costs nothing until it is written, and
    ``power_restore`` is a fresh mapping rather than a refill. The fused
    frames index ``_data`` directly; it supports exactly the buffer
    operations they use (``unpack_from``, slice read, same-length slice
    assignment, byte index).

    ``_written`` holds one byte per 64 KB extent, set by every store into
    ``_data`` — this class's ``write``, the fused ``MappedMemory.write``,
    a ``CpuCache`` write-back and a coherency-flag store, each one byte
    store in its own frame (lint rule REPRO007 holds new ones to it). An
    unmarked extent is all zero, so ``snapshot`` reads only the marked
    ones.

    >>> region = MemoryRegion("demo", 1 << 20, volatile=False)
    >>> region.write(70_000, b"hello")
    >>> [(at, len(chunk)) for at, chunk in region.snapshot()[1]]
    [(65536, 65536)]
    >>> clone = MemoryRegion("demo", 1 << 20, volatile=False)
    >>> clone.restore(region.snapshot())
    >>> clone.read(70_000, 5), clone.read(0, 4) == bytes(4)
    (b'hello', True)
    """

    def __init__(self, name: str, size: int, volatile: bool) -> None:
        if size <= 0:
            raise ValueError("region size must be positive")
        self.name = name
        self.size = size
        self.volatile = volatile
        self._data = _zero_pages(size)
        self._written = bytearray((size + _EXTENT - 1) >> _EXTENT_SHIFT)
        self._poisoned = False

    def read(self, offset: int, nbytes: int) -> bytes:
        if self._poisoned or offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            self._refuse(offset, nbytes)
        ms = PROBES.memsan
        if ms is not None:
            ms.raw_load(self.name, offset, nbytes)
        return self._data[offset : offset + nbytes]

    def write(self, offset: int, data: bytes) -> None:
        nbytes = len(data)
        if self._poisoned or offset < 0 or offset + nbytes > self.size:
            self._refuse(offset, nbytes)
        ms = PROBES.memsan
        if ms is not None:
            ms.raw_store(self.name, offset, nbytes)
        self._data[offset : offset + nbytes] = data
        first, last = offset >> _EXTENT_SHIFT, (offset + nbytes - 1) >> _EXTENT_SHIFT
        self._written[first : last + 1] = b"\x01" * (last + 1 - first)

    def power_fail(self) -> None:
        """Simulate power loss. Volatile regions are poisoned until restored.

        Idempotent: failing an already-failed region (cascading faults in
        a sweep) is a no-op, as is failing a non-volatile region — CXL
        boxes have their own PSUs (§3.2), so host power events never
        touch them.
        """
        if self.volatile:
            self._poisoned = True

    def power_restore(self) -> None:
        """Bring a failed region back: fresh, zeroed, contents gone.

        Idempotent: restoring a healthy region keeps its contents —
        only a poisoned region is re-zeroed.
        """
        if self._poisoned:
            self._data.close()
            self._data = _zero_pages(self.size)
            self._written = bytearray(len(self._written))
            self._poisoned = False

    def snapshot(self) -> tuple:
        """``(poisoned, extents)``: the non-zero 64 KB extents as
        ``(offset, bytes)`` — what a clone needs and nothing it does not.
        Only written extents are read."""
        data = self._data
        extents = []
        for index, mark in enumerate(self._written):
            if mark:
                at = index << _EXTENT_SHIFT
                chunk = data[at : at + _EXTENT]
                if not _ZERO_EXTENT.startswith(chunk):  # not all zero
                    extents.append((at, chunk))
        return self._poisoned, tuple(extents)

    def restore(self, state: tuple) -> None:
        """Become the region ``state`` was taken from (same size): the
        stored extents copied into a zero mapping — this one if nothing
        was ever written to it, else a fresh one — so the image and its
        other clones share nothing with this region afterwards. Exactly
        the restored extents are marked written."""
        self._poisoned, extents = state
        written = self._written
        if 1 in written:
            self._data.close()
            self._data = _zero_pages(self.size)
            written = self._written = bytearray(len(written))
        data = self._data
        for at, chunk in extents:
            data[at : at + len(chunk)] = chunk
            written[at >> _EXTENT_SHIFT] = 1

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def _refuse(self, offset: int, nbytes: int) -> None:
        """Raise for an access that is out of range or hits lost contents."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise IndexError(
                f"access [{offset}, {offset + nbytes}) outside region "
                f"{self.name!r} of size {self.size}"
            )
        raise PoisonedMemoryError(
            f"region {self.name!r} lost its contents in a power failure; "
            "call power_restore() before reuse"
        )


class TransferCharge:
    """A pending bandwidth charge to settle against a named pipe.

    A plain slotted record rather than a frozen dataclass: one of these
    is allocated per metered device transfer, and ``object.__setattr__``
    (what frozen dataclasses pay per field) showed up in the hot-path
    profile. Treat instances as immutable all the same.

    >>> TransferCharge("cxl", 64) == TransferCharge("cxl", 64, 0.0)
    True
    """

    __slots__ = ("pipe_key", "nbytes", "base_ns")

    def __init__(self, pipe_key: str, nbytes: int, base_ns: float = 0.0) -> None:
        self.pipe_key = pipe_key
        self.nbytes = nbytes
        self.base_ns = base_ns

    def __repr__(self) -> str:
        return (
            f"TransferCharge(pipe_key={self.pipe_key!r}, "
            f"nbytes={self.nbytes!r}, base_ns={self.base_ns!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferCharge):
            return NotImplemented
        return (
            self.pipe_key == other.pipe_key
            and self.nbytes == other.nbytes
            and self.base_ns == other.base_ns
        )

    def __hash__(self) -> int:
        return hash((self.pipe_key, self.nbytes, self.base_ns))


# Memoized "<pipe_key>_bytes" / "<pipe_key>_ops" counter names: the same
# handful of pipe keys recur millions of times, and building the strings
# per charge was measurable.
_PIPE_COUNTER_KEYS: dict[str, tuple[str, str]] = {}


class AccessMeter:
    """Accumulates the cost of functional work for one engine instance.

    ``ns`` is CPU-visible latency (memory stalls, compute). ``transfers``
    are bytes that must additionally flow through shared pipes (RDMA NIC,
    CXL link, storage, WAL device, client network); the driver turns them
    into simulated pipe occupancy, which is where saturation comes from.
    ``counters`` holds free-form byte/op counts for reporting (e.g. read
    amplification).
    """

    def __init__(self) -> None:
        self.ns: float = 0.0
        self.transfers: list[TransferCharge] = []
        self.counters: dict[str, float] = {}
        # Monotone total of everything take() has drained, so span
        # tracing can snapshot (ns + taken_ns) and difference it later
        # without caring whether a settle happened in between.
        self.taken_ns: float = 0.0

    def charge_ns(self, ns: float) -> None:
        self.ns += ns

    def charge_transfer(
        self, pipe_key: str, nbytes: int, base_ns: float = 0.0
    ) -> None:
        self.transfers.append(TransferCharge(pipe_key, nbytes, base_ns))
        keys = _PIPE_COUNTER_KEYS.get(pipe_key)
        if keys is None:
            keys = _PIPE_COUNTER_KEYS[pipe_key] = (
                pipe_key + "_bytes",
                pipe_key + "_ops",
            )
        counters = self.counters
        bytes_key, ops_key = keys
        counters[bytes_key] = counters.get(bytes_key, 0.0) + nbytes
        counters[ops_key] = counters.get(ops_key, 0.0) + 1

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def take(self) -> tuple[float, list[TransferCharge]]:
        """Return and clear the per-operation charges (counters persist)."""
        ns, self.ns = self.ns, 0.0
        self.taken_ns += ns
        transfers, self.transfers = self.transfers, []
        return ns, transfers

    def reset(self) -> None:
        self.ns = 0.0
        self.transfers = []
        self.counters = {}
        self.taken_ns = 0.0

    def snapshot(self) -> tuple:
        # Charges are immutable records: the tuple shares them.
        return self.ns, tuple(self.transfers), dict(self.counters), self.taken_ns

    def restore(self, state: tuple) -> None:
        self.ns, transfers, counters, self.taken_ns = state
        self.transfers = list(transfers)
        self.counters = dict(counters)


@dataclass(frozen=True)
class MemoryTiming:
    """Latency parameters for one interconnect path to a region."""

    miss_ns: float  # one cache line fetched from the device
    hit_ns: float  # line already in the CPU cache hierarchy
    read_burst_base_ns: float  # fixed cost of a bulk (streamed) read
    read_burst_ns_per_byte: float
    write_burst_base_ns: float  # fixed cost of a bulk (streamed) write
    write_burst_ns_per_byte: float
    pipe_key: Optional[str] = None  # bandwidth pipe charged per byte moved
    pipe_base_ns: float = 0.0

    # Bulk accesses at or above this size use the burst model and bypass
    # the line cache (non-temporal/streaming semantics).
    burst_threshold: int = 256


class MappedMemory:
    """A metered, cache-modelled window onto a :class:`MemoryRegion`.

    Small accesses go through the per-line timing cache (hits are nearly
    free, misses fetch whole lines over the interconnect); accesses at or
    above ``timing.burst_threshold`` use the streamed burst model and
    move every byte. All derived timing constants are precomputed here:
    the burst-latency lines become :class:`~repro.sim.latency.LatencyTable`
    lookups and the per-region counter names become interned strings, so
    the per-access cost is dict probes, not arithmetic and string
    building.

    ``unpack(fmt, offset)`` and ``read_run(fmt, offset, stride, count)``
    decode one field, or ``count`` fields ``stride`` bytes apart, straight
    from the region buffer, charged exactly as the ``read`` calls they
    stand for, in order. A rejected access (out of range, negative
    length, poisoned region) raises before anything is charged.

    >>> from repro.hardware.cache import LineCacheModel
    >>> region = MemoryRegion("demo", 4096, volatile=False)
    >>> meter = AccessMeter()
    >>> timing = MemoryTiming(
    ...     miss_ns=100.0, hit_ns=1.0,
    ...     read_burst_base_ns=50.0, read_burst_ns_per_byte=0.1,
    ...     write_burst_base_ns=50.0, write_burst_ns_per_byte=0.1,
    ...     pipe_key="cxl")
    >>> mem = MappedMemory(region, timing, meter, LineCacheModel(1024), "cxl")
    >>> mem.write(0, b"hello")           # cold line: one miss, one line moved
    >>> mem.read(0, 5)                   # warm line: a hit, no link traffic
    b'hello'
    >>> meter.ns                         # miss (100) + hit (1)
    101.0
    >>> (meter.counters["cxl_bytes"], meter.counters["cxl_ops"])
    (64.0, 1.0)
    >>> import struct
    >>> mem.read_run(struct.Struct("<H"), 0, 2, 3)   # three more hits
    [(25960,), (27756,), (111,)]
    >>> meter.ns
    104.0
    """

    def __init__(
        self,
        region: MemoryRegion,
        timing: MemoryTiming,
        meter: AccessMeter,
        line_cache: "LineCacheModel",
        counter_key: str,
    ) -> None:
        self.region = region
        self.timing = timing
        self.meter = meter
        self.line_cache = line_cache
        self.counter_key = counter_key
        # Hot-path constants (MemoryTiming is frozen; region names, sizes
        # and counter keys never change after construction).
        self.size = region.size
        self._region_name = region.name
        self._burst_threshold = timing.burst_threshold
        # An access is fused when ``offset % CACHE_LINE + nbytes`` (> 0 for
        # any length, zero included) fits in this: one line-cached line.
        # A burst threshold within a line leaves nothing to fuse.
        self._line_room = CACHE_LINE if timing.burst_threshold > CACHE_LINE else -1
        self._miss_ns = timing.miss_ns
        self._hit_ns = timing.hit_ns
        self._pipe_key = timing.pipe_key
        self._pipe_base_ns = timing.pipe_base_ns
        self._read_table = LatencyTable(
            timing.read_burst_base_ns, timing.read_burst_ns_per_byte
        )
        self._write_table = LatencyTable(
            timing.write_burst_base_ns, timing.write_burst_ns_per_byte
        )
        self._touched_key = counter_key + "_touched_bytes"
        self._span_kind = counter_key + "_access"
        self._trace_burst_key = f"mem.{counter_key}.burst_bytes"
        self._trace_hits_key = f"mem.{counter_key}.line_hits"
        self._trace_misses_key = f"mem.{counter_key}.line_misses"
        self._trace_device_key = f"mem.{counter_key}.device_bytes"
        if timing.pipe_key is not None:
            self._pipe_bytes_key = timing.pipe_key + "_bytes"
            self._pipe_ops_key = timing.pipe_key + "_ops"
            # Single-line misses dominate the charge stream; they are all
            # the same immutable (pipe, 64 B, base) value, so one shared
            # instance replaces an allocation per miss.
            self._line_charge = TransferCharge(
                timing.pipe_key, CACHE_LINE, timing.pipe_base_ns
            )
        else:
            self._pipe_bytes_key = self._pipe_ops_key = None
            self._line_charge = None

    # -- metered access --------------------------------------------------------
    #
    # Every frame validates first. ``read`` is the general path: bytes are
    # read in bursts and multi-line spans (typed fields go through
    # ``unpack``). ``write`` / ``unpack`` / ``read_run`` are fused: one
    # line-cached line is counted, probed in the line cache and touched in
    # the buffer right here; one ``PROBES.any`` load stands between that and
    # the per-instrument reports, and only an installed MemSan sends the
    # data touch through the region's own (sanitized) accessors.

    def read(self, offset: int, nbytes: int) -> bytes:
        region = self.region
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size or region._poisoned:
            region._refuse(offset, nbytes)
        self._charge(offset, nbytes, write=False)
        return region.read(offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        region = self.region
        nbytes = len(data)
        if offset < 0 or offset + nbytes > self.size or region._poisoned:
            region._refuse(offset, nbytes)
        if offset % CACHE_LINE + nbytes > self._line_room:
            self._charge(offset, nbytes, write=True)
            region.write(offset, data)
            return
        meter, cache = self.meter, self.line_cache
        counters, lines = meter.counters, cache.lines
        key = self._touched_key
        counters[key] = counters.get(key, 0.0) + nbytes
        key = (self._region_name, offset // CACHE_LINE)
        hit = key in lines
        if hit:
            lines.move_to_end(key)
            cache.hits += 1
            meter.ns += self._hit_ns
        else:
            self._line_miss(key)
        if PROBES.any:
            tracer, spans = PROBES.tracer, PROBES.spans
            if tracer is not None:
                if hit:
                    tracer.count(self._trace_hits_key, 1)
                else:
                    tracer.count(self._trace_misses_key, 1)
                    tracer.count(self._trace_device_key, CACHE_LINE)
            if spans is not None:
                spans.add_ns(self._span_kind, self._hit_ns if hit else self._miss_ns)
            if PROBES.memsan is not None:
                return region.write(offset, data)  # the sanitized store
        region._data[offset : offset + nbytes] = data
        region._written[offset >> 16] = 1  # a line lies in one extent

    def unpack(self, fmt: Struct, offset: int) -> tuple:
        """``fmt.unpack(self.read(offset, fmt.size))`` without the copy."""
        region = self.region
        nbytes = fmt.size
        if offset < 0 or offset + nbytes > self.size or region._poisoned:
            region._refuse(offset, nbytes)
        if offset % CACHE_LINE + nbytes > self._line_room:
            return fmt.unpack(self.read(offset, nbytes))
        meter, cache = self.meter, self.line_cache
        counters, lines = meter.counters, cache.lines
        key = self._touched_key
        counters[key] = counters.get(key, 0.0) + nbytes
        key = (self._region_name, offset // CACHE_LINE)
        hit = key in lines
        if hit:
            lines.move_to_end(key)
            cache.hits += 1
            meter.ns += self._hit_ns
        else:
            self._line_miss(key)
        if PROBES.any:
            tracer, spans = PROBES.tracer, PROBES.spans
            if tracer is not None:
                if hit:
                    tracer.count(self._trace_hits_key, 1)
                else:
                    tracer.count(self._trace_misses_key, 1)
                    tracer.count(self._trace_device_key, CACHE_LINE)
            if spans is not None:
                spans.add_ns(self._span_kind, self._hit_ns if hit else self._miss_ns)
            if PROBES.memsan is not None:
                return fmt.unpack(region.read(offset, nbytes))  # the sanitized load
        return fmt.unpack_from(region._data, offset)

    def read_run(self, fmt: Struct, offset: int, stride: int, count: int) -> list:
        """``[self.unpack(fmt, offset + i * stride) for i in range(count)]``,
        validated as a whole before any of it is charged.

        Charged as exactly that sequence: per line the first touch probes
        the line cache, the rest are hits, and each is its own addition
        into ``meter.ns`` (latencies need not be dyadic, so ``k * hit_ns``
        would differ from k additions in the last bits).
        """
        offsets = range(offset, offset + count * stride, stride)  # stride 0 raises
        if not offsets:
            return []
        region = self.region
        nbytes = fmt.size
        low, end = min(offset, offsets[-1]), max(offset, offsets[-1]) + nbytes
        if low < 0 or end > self.size or region._poisoned:
            region._refuse(low, end - low)
        # Naturally aligned elements never straddle a line; others, and (so
        # that each reports itself) all under an instrument, go one by one.
        aligned = 0 < nbytes <= self._line_room and not CACHE_LINE % nbytes
        if PROBES.any or not aligned or offset % nbytes or stride % nbytes:
            unpack = self.unpack
            return [unpack(fmt, at) for at in offsets]
        meter, cache = self.meter, self.line_cache
        counters, lines = meter.counters, cache.lines
        key = self._touched_key
        counters[key] = counters.get(key, 0.0) + nbytes * count
        name, hit_ns = self._region_name, self._hit_ns
        ns = meter.ns
        hits = 0
        line = -1
        for at in offsets:
            if at // CACHE_LINE != line:
                line = at // CACHE_LINE
                key = (name, line)
                if key not in lines:
                    meter.ns = ns
                    self._line_miss(key)
                    ns = meter.ns
                    continue
                lines.move_to_end(key)
            hits += 1
            ns += hit_ns
        meter.ns = ns
        cache.hits += hits
        unpack_from, data = fmt.unpack_from, region._data
        return [unpack_from(data, at) for at in offsets]

    # -- cost model -------------------------------------------------------------

    def _line_miss(self, key: tuple[str, int]) -> None:
        """A single-line access missed: insert, evict, fetch one line."""
        cache = self.line_cache
        lines = cache.lines
        lines[key] = None
        if len(lines) > cache.capacity_lines:
            lines.popitem(last=False)
        cache.misses += 1
        meter = self.meter
        meter.ns += self._miss_ns
        charge = self._line_charge
        if charge is not None:
            meter.transfers.append(charge)
            counters = meter.counters
            key = self._pipe_bytes_key
            counters[key] = counters.get(key, 0.0) + CACHE_LINE
            key = self._pipe_ops_key
            counters[key] = counters.get(key, 0.0) + 1

    def _charge(self, offset: int, nbytes: int, write: bool) -> None:
        """The general cost model: bursts, accesses that straddle lines,
        and byte reads of any length."""
        meter = self.meter
        tracer = PROBES.tracer
        if nbytes >= self._burst_threshold:
            ns = (self._write_table if write else self._read_table).ns(nbytes)
            meter.ns += ns
            device_bytes = nbytes  # streamed: every byte crosses the link
            if tracer is not None:
                tracer.count(self._trace_burst_key, nbytes)
        else:
            first_line = offset // CACHE_LINE
            last_line = (offset + nbytes - 1) // CACHE_LINE if nbytes > 1 else first_line
            hits, misses = self.line_cache.touch_range(
                self._region_name, first_line, last_line
            )
            ns = misses * self._miss_ns + hits * self._hit_ns
            meter.ns += ns
            # Only cache misses generate device/link traffic, at line
            # granularity — a hot B-tree root costs the CXL link nothing.
            device_bytes = misses * CACHE_LINE
            if tracer is not None:
                if hits:
                    tracer.count(self._trace_hits_key, hits)
                if misses:
                    tracer.count(self._trace_misses_key, misses)
        spans = PROBES.spans
        if spans is not None:
            spans.add_ns(self._span_kind, ns)
        counters = meter.counters
        key = self._touched_key
        counters[key] = counters.get(key, 0.0) + nbytes
        if device_bytes:
            if tracer is not None:
                tracer.count(self._trace_device_key, device_bytes)
            if self._pipe_key is not None:
                meter.charge_transfer(self._pipe_key, device_bytes, self._pipe_base_ns)


class WindowedMemory:
    """A sub-range of a mapped memory, addressed from zero.

    The one way to say "this mapping, from this base": a CXL extent the
    memory manager handed a tenant (what ``mmap`` of the dax device at an
    offset gives), one block inside it (:class:`repro.core.block.BlockMeta`
    is a window with named fields), and the page accessor every DRAM /
    CXL / RDMA pool hands the engine. Base and limit are resolved at
    construction — a window of a window points straight at the
    :class:`MappedMemory` — so an access is one bounds check and one call
    into the fused frame.
    """

    __slots__ = ("mapped", "base", "size")

    def __init__(self, mapped: "MappedMemory | WindowedMemory", base: int, size: int) -> None:
        if base < 0 or size < 0 or base + size > mapped.size:
            raise IndexError("window outside the mapped region")
        if isinstance(mapped, WindowedMemory):
            base += mapped.base
            mapped = mapped.mapped
        self.mapped = mapped
        self.base = base
        self.size = size

    def _reject(self, offset: int, nbytes: int) -> None:
        raise IndexError(
            f"access [{offset}, {offset + nbytes}) outside window of "
            f"size {self.size}"
        )

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            self._reject(offset, nbytes)
        return self.mapped.read(self.base + offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > self.size:
            self._reject(offset, len(data))
        self.mapped.write(self.base + offset, data)

    def unpack(self, fmt: Struct, offset: int) -> tuple:
        if offset < 0 or offset + fmt.size > self.size:
            self._reject(offset, fmt.size)
        return self.mapped.unpack(fmt, self.base + offset)

    def read_run(self, fmt: Struct, offset: int, stride: int, count: int) -> list:
        offsets = range(offset, offset + count * stride, stride)
        if offsets:
            low, end = min(offset, offsets[-1]), max(offset, offsets[-1]) + fmt.size
            if low < 0 or end > self.size:
                self._reject(low, end - low)
        return self.mapped.read_run(fmt, self.base + offset, stride, count)
