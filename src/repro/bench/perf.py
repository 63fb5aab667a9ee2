# repro-lint: allow-file(REPRO001) -- wall-clock measurement is this
# module's whole purpose; simulation code must stay on virtual time.
"""Wall-clock performance harness: ``python -m repro.bench perf``.

The ROADMAP's north star includes "runs as fast as the hardware allows";
this module is the perf trajectory for that claim. It measures the three
hot paths every benchmark funnels through — the event loop, metered
memory accesses, and an end-to-end figure-7 slice — and writes the
results to ``BENCH_perf.json`` at the repo root.

Machine-independence: absolute events/sec numbers are useless as CI
gates (runners differ wildly), so the headline metrics are *speedup
ratios* against frozen **reference implementations** — verbatim copies
of the pre-optimization kernel and access-metering code, run in the same
process on the same machine moments apart. The reference numbers ARE the
pre-PR baseline, re-measured fresh on every run; the harness asserts the
optimized paths stay at least ``--min-speedup`` (default 1.5×) ahead.
If an intentional change makes the ratio drop below the gate, either
recover the loss or update the reference code to the new baseline and
say so in PERFORMANCE.md.

Behavioral identity (same simulated time, same counters) is asserted
separately by the pinned snapshots in ``tests/bench/``; this harness
additionally cross-checks that the optimized and reference access paths
charge *identical* meter state on an identical access pattern.
"""

from __future__ import annotations

import heapq
import json
import pathlib
import struct
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

from ..faults.injector import crash_point
from ..hardware.cache import CacheWindow, CpuCache, LineCacheModel
from ..hardware.memory import (
    AccessMeter,
    MappedMemory,
    MemoryRegion,
    MemoryTiming,
    WindowedMemory,
)
from ..obs.probes import PROBES
from ..obs.spans import SpanTracer
from ..obs.trace import Tracer
from ..sim.core import SchedulerHook, Simulator
from ..sim.latency import CACHE_LINE, LatencyConfig

__all__ = [
    "run_perf",
    "main",
    "check_equivalence",
    "replay_accesses",
    "metering_state",
    "EQUIVALENCE_SPAN",
    "check_cache_equivalence",
    "build_cache_world",
    "replay_cache_ops",
    "cache_state",
    "CACHE_EQ_REGION",
    "CACHE_EQ_BASES",
]

PAGE = 16384


# ---------------------------------------------------------------------------
# Frozen pre-optimization reference implementations (the pre-PR baseline).
# Verbatim hot-path logic from the seed revision — do not "improve" these:
# their whole value is being the yardstick the optimized code is measured
# against.
# ---------------------------------------------------------------------------


class _RefEvent:
    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_fired")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._triggered = False
        self._fired = False

    @property
    def value(self):
        return self._value

    @property
    def triggered(self):
        return self._triggered

    def succeed(self, value=None, delay=0):
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self.sim.now + delay, self)
        return self

    def _fire(self):
        if self._fired:
            raise RuntimeError("event fired twice")
        self._fired = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class _RefTimeout(_RefEvent):
    __slots__ = ()

    def __init__(self, sim, delay, value=None):
        super().__init__(sim)
        self.succeed(value, delay=int(delay))


class _RefProcess(_RefEvent):
    __slots__ = ("generator", "name")

    def __init__(self, sim, generator, name=""):
        super().__init__(sim)
        self.generator = generator
        self.name = name
        bootstrap = _RefEvent(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event):
        try:
            target = self.generator.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        target.callbacks.append(self._resume)


class _RefSimulator:
    def __init__(self) -> None:
        self.now = 0
        self._queue = []
        self._seq = 0

    def timeout(self, delay, value=None):
        return _RefTimeout(self, delay, value)

    def process(self, generator, name=""):
        return _RefProcess(self, generator, name)

    def _schedule(self, at, event):
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, event))

    def run(self):
        queue = self._queue
        while queue:
            at, _, event = queue[0]
            heapq.heappop(queue)
            self.now = at
            event._fire()

    def run_process(self, generator):
        proc = self.process(generator)
        self.run()
        return proc.value


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


# ---------------------------------------------------------------------------
# Workloads (identical shapes run against optimized and reference code).
# ---------------------------------------------------------------------------


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


def _drain(meter) -> None:
    meter.take()
    meter.counters.clear()


def bench_event_loop(n_events: int, optimized: bool = True) -> float:
    """Timeout-chain throughput of the kernel; returns events/second."""
    sim = Simulator() if optimized else _RefSimulator()

    def chain():
        timeout = sim.timeout
        for _ in range(n_events):
            yield timeout(10)

    start = time.perf_counter()
    sim.run_process(chain())
    elapsed = time.perf_counter() - start
    return n_events / elapsed


def bench_event_burst(
    n_events: int, optimized: bool = True, batch: int = 32
) -> float:
    """Same-tick burst throughput of the kernel; returns events/second.

    Schedules ``batch`` timeouts per tick and resumes on the last one —
    the settle layer's shape, where one batched pipe transfer completes
    many waiters on the same tick. This is the bench the bucketed
    calendar queue exists for: one heap operation retires the whole
    tick, so the ``event_burst`` speedup gate holds the batching win
    against the frozen plain-heap reference.
    """
    sim = Simulator() if optimized else _RefSimulator()
    n_batches = n_events // batch

    def burster():
        timeout = sim.timeout
        for _ in range(n_batches):
            for _ in range(batch - 1):
                timeout(10)
            yield timeout(10)

    start = time.perf_counter()
    sim.run_process(burster())
    elapsed = time.perf_counter() - start
    return (n_batches * batch) / elapsed


def bench_sweep_parallel(limit: int, jobs: int) -> dict:
    """Wall-clock of a crash-sweep slice, serial vs ``--jobs N``.

    Runs the same ``sweep_workload_points`` coordinate slice twice and
    reports the ratio plus whether the merged reports are byte-identical
    (they must always be; the speedup gate itself only applies on
    machines with enough cores to show one — a 1-core runner records the
    ratio but skips the gate, since a spawn pool cannot beat serial
    there).
    """
    import os

    from ..faults.sweep import report_to_json, sweep_workload_points

    cpu_count = os.cpu_count() or 1
    if jobs <= 0:
        jobs = cpu_count
    start = time.perf_counter()
    serial = sweep_workload_points(jobs=1, limit=limit)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = sweep_workload_points(jobs=jobs, limit=limit)
    parallel_s = time.perf_counter() - start
    return {
        "limit": limit,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3),
        "merged_identical": report_to_json(serial) == report_to_json(parallel),
    }


def bench_metered_access(n_accesses: int, optimized: bool = True) -> float:
    """32 B metered reads/second through the line-cache cost model.

    The working set (4× the line-cache capacity) forces a steady mix of
    hits and misses, matching what pool metadata traffic looks like.
    """
    region_bytes = 4 << 20
    mapped, meter = _build_mapped(optimized, region_bytes)
    n_slots = region_bytes // 32
    start = time.perf_counter()
    read = mapped.read
    for i in range(n_accesses):
        read((i * 7919 % n_slots) * 32, 32)
        if not i % 4096:
            _drain(meter)
    elapsed = time.perf_counter() - start
    return n_accesses / elapsed


def bench_page_burst(n_pages: int, optimized: bool = True) -> float:
    """16 KB burst reads/second (page-granular transfer path)."""
    region_bytes = 8 << 20
    mapped, meter = _build_mapped(optimized, region_bytes)
    n_slots = region_bytes // PAGE
    start = time.perf_counter()
    read = mapped.read
    for i in range(n_pages):
        read((i % n_slots) * PAGE, PAGE)
        if not i % 512:
            _drain(meter)
    elapsed = time.perf_counter() - start
    return n_pages / elapsed


def bench_tracer_overhead(n_accesses: int) -> tuple[float, float]:
    """(tracer-off, tracer-on) metered reads/second on the optimized path."""
    off = bench_metered_access(n_accesses, optimized=True)
    region_bytes = 4 << 20
    mapped, meter = _build_mapped(True, region_bytes)
    n_slots = region_bytes // 32
    with Tracer():
        start = time.perf_counter()
        read = mapped.read
        for i in range(n_accesses):
            read((i * 7919 % n_slots) * 32, 32)
            if not i % 4096:
                _drain(meter)
        elapsed = time.perf_counter() - start
    return off, n_accesses / elapsed


def bench_spans_overhead(n_accesses: int) -> tuple[float, float]:
    """(spans-off, spans-on) metered reads/second on the optimized path.

    The "off" side is the instrumented code with no SpanTracer installed
    — one slot load plus a None check per access — and is what the
    ``disabled_speedup`` gate holds against the pre-PR reference. The
    "on" side attaches a span so every access also lands a ``costs``
    charge, the worst case for the hot path.
    """
    off = bench_metered_access(n_accesses, optimized=True)
    region_bytes = 4 << 20
    mapped, meter = _build_mapped(True, region_bytes)
    n_slots = region_bytes // 32
    with SpanTracer() as spans:
        root = spans.begin("txn", "perf")
        start = time.perf_counter()
        read = mapped.read
        for i in range(n_accesses):
            read((i * 7919 % n_slots) * 32, 32)
            if not i % 4096:
                _drain(meter)
        elapsed = time.perf_counter() - start
        spans.end(root)
    return off, n_accesses / elapsed


def bench_memsan_overhead(n_accesses: int) -> tuple[float, float]:
    """(memsan-off, memsan-on) metered reads/second on the optimized path.

    The "off" side is the instrumented code with no MemSan installed —
    one slot load plus a None check per region access — and is what
    the ``disabled_speedup`` gate under ``memsan_overhead`` holds
    against the pre-PR reference. The "on" side watches the region and
    runs inside an actor scope, so every access walks the per-line
    vector-clock state: the priced, opt-in debugging mode.
    """
    from ..analysis.memsan import MemSan

    off = bench_metered_access(n_accesses, optimized=True)
    region_bytes = 4 << 20
    mapped, meter = _build_mapped(True, region_bytes)
    n_slots = region_bytes // 32
    with MemSan() as ms:
        ms.watch_region("perf")
        with ms.actor("perf-bench"):
            start = time.perf_counter()
            read = mapped.read
            for i in range(n_accesses):
                read((i * 7919 % n_slots) * 32, 32)
                if not i % 4096:
                    _drain(meter)
            elapsed = time.perf_counter() - start
        ms.check()
    return off, n_accesses / elapsed


def bench_metrics_overhead(n_ops: int) -> tuple[float, float]:
    """(metrics-off, metrics-on) instrumented ops/second.

    The "off" side is the hot-path discipline every instrumented module
    uses when no pipeline is installed — one slot load plus a None
    check per op, nothing else. The "on" side installs a pipeline and
    pays the full live-telemetry price per op: a labeled counter add, a
    latency observation, and a ``maybe_scrape`` against an advancing
    synthetic clock that crosses a scrape-grid boundary every 16 ops.
    The ``disabled_speedup`` gate (off/on) pins the contract that an
    uninstalled pipeline costs (nearly) nothing relative to scraping.
    """
    from ..obs.metrics import MetricsPipeline

    start = time.perf_counter()
    for _ in range(n_ops):
        mp = PROBES.metrics
        if mp is not None:  # pragma: no cover - nothing installed here
            mp.count("perf.ops", 1.0)
    off = n_ops / (time.perf_counter() - start)

    with MetricsPipeline() as pipeline:
        now = 0.0
        step = pipeline.scrape_interval_ns / 16.0
        start = time.perf_counter()
        for i in range(n_ops):
            mp = PROBES.metrics
            if mp is not None:
                now += step
                mp.count("perf.ops", 1.0, worker="w0")
                mp.observe("perf.latency_ns", float(i & 4095), worker="w0")
                mp.maybe_scrape(now)
        elapsed = time.perf_counter() - start
        assert pipeline.scrapes > 0
        on = n_ops / elapsed
    return off, on


def bench_fig7_slice() -> dict:
    """End-to-end slice of the figure-7 pooling benchmark (CXL system)."""
    from ..workloads.driver import PoolingDriver
    from ..workloads.sysbench import SysbenchWorkload
    from .harness import build_pooling_setup

    workload = SysbenchWorkload(rows=2000)
    setup = build_pooling_setup("cxl", n_instances=2, workload=workload)
    driver = PoolingDriver(
        setup.sim,
        setup.instances,
        workload.txn_fn("point_select"),
        workers_per_instance=8,
        warmup_txns=20,
        measure_txns=150,
    )
    start = time.perf_counter()
    result = driver.run()
    wall_s = time.perf_counter() - start
    events = setup.sim._seq
    return {
        "wall_s": round(wall_s, 4),
        "qps": round(result.qps, 2),
        "avg_latency_ns": round(result.avg_latency_ns, 1),
        "events_scheduled": events,
        "events_per_wall_second": round(events / wall_s),
    }


def check_kernel_order(n_events: int = 5_000) -> None:
    """Assert the bucketed kernel fires in the heap reference's order.

    Drives an identical schedule — LCG-spread delays with heavy
    same-tick collisions, plus cascades that schedule zero-delay and
    short-delay follow-ups from inside callbacks — through the optimized
    :class:`Simulator` and the frozen ``_RefSimulator``, logging every
    callback as ``(tag, now, value)``. The two logs (and final clocks)
    must match exactly: the calendar queue is an optimization, not a
    semantic change.
    """

    def drive(sim, new_event, log):
        def cascade(event):
            log.append(("fire", sim.now, event.value))
            if event.value % 7 == 0:
                follow = new_event()
                follow.callbacks.append(
                    lambda e: log.append(("follow", sim.now, e.value))
                )
                delay = 0 if event.value % 14 else 5
                follow.succeed(event.value + 1_000_000, delay=delay)

        lcg = 99991
        for i in range(n_events):
            lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
            event = new_event()
            event.callbacks.append(cascade)
            event.succeed(i, delay=lcg % 37)
        sim.run()
        return sim.now

    opt_sim = Simulator()
    opt_log: list = []
    opt_now = drive(opt_sim, opt_sim.event, opt_log)
    ref_sim = _RefSimulator()
    ref_log: list = []
    ref_now = drive(ref_sim, lambda: _RefEvent(ref_sim), ref_log)
    hook_sim = Simulator()
    hook_sim.scheduler = SchedulerHook()  # default strategy, hooked path
    hook_log: list = []
    hook_now = drive(hook_sim, hook_sim.event, hook_log)
    if opt_now != ref_now or hook_now != ref_now:
        raise AssertionError(
            f"kernel clocks diverged: opt {opt_now} / hooked {hook_now} "
            f"!= ref {ref_now}"
        )
    for tag, log in (("optimized", opt_log), ("hooked", hook_log)):
        if log == ref_log:
            continue
        first = next(
            i for i, (a, b) in enumerate(zip(log, ref_log)) if a != b
        )
        raise AssertionError(
            f"{tag} kernel firing order diverged from the heap reference "
            f"at event {first}: {log[first]} != {ref_log[first]}"
        )


def bench_explore() -> dict:
    """Schedule-exploration throughput and pruning effectiveness.

    Exhaustively explores the mixed-dependency toy program (the
    property-test config with a known trace-minimal schedule count) and
    the flagship ``cxl-2p1pg`` protocol config, recording schedules/sec
    and the explored/naive pruning ratios the CI gate rides on.
    """
    from ..analysis.explore import explore_config

    start = time.perf_counter()
    toy = explore_config("toy-mixed")
    protocol = explore_config("cxl-2p1pg")
    wall_s = time.perf_counter() - start
    schedules = toy.schedules + protocol.schedules
    return {
        "toy_schedules": toy.schedules,
        "toy_naive": toy.naive_estimate,
        "toy_ratio": round(toy.pruning_ratio, 6),
        "protocol_schedules": protocol.schedules,
        "protocol_runs": protocol.runs,
        "protocol_naive": protocol.naive_estimate,
        "protocol_ratio": round(protocol.pruning_ratio, 6),
        "clean": toy.ok and protocol.ok,
        "wall_s": round(wall_s, 4),
        "schedules_per_sec": round(schedules / wall_s, 1),
    }


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


# ---------------------------------------------------------------------------
# Harness entry points
# ---------------------------------------------------------------------------


def run_perf(quick: bool = False, jobs: int = 0) -> dict:
    """Run every perf benchmark; returns the BENCH_perf.json payload."""
    scale = 0.2 if quick else 1.0
    n_events = int(500_000 * scale)
    n_accesses = int(300_000 * scale)
    n_pages = int(100_000 * scale)

    check_equivalence()
    check_kernel_order()

    ev_ref = bench_event_loop(n_events, optimized=False)
    ev_opt = bench_event_loop(n_events, optimized=True)
    # The one fixed gate with a thin margin (2.0x against a typical 2.4x)
    # on a 0.1 s bench: best of three alternating runs a side, so a single
    # stall on a shared box does not fail tier-1.
    bursts = [
        (bench_event_burst(n_events, optimized=False), bench_event_burst(n_events))
        for _ in range(3)
    ]
    eb_ref, eb_opt = max(ref for ref, _ in bursts), max(opt for _, opt in bursts)
    ma_ref = bench_metered_access(n_accesses, optimized=False)
    ma_opt = bench_metered_access(n_accesses, optimized=True)
    pb_ref = bench_page_burst(n_pages, optimized=False)
    pb_opt = bench_page_burst(n_pages, optimized=True)
    tr_off, tr_on = bench_tracer_overhead(n_accesses)
    sp_off, sp_on = bench_spans_overhead(n_accesses)
    msn_off, msn_on = bench_memsan_overhead(n_accesses)
    mt_off, mt_on = bench_metrics_overhead(n_accesses)
    sweep_parallel = bench_sweep_parallel(limit=3 if quick else 8, jobs=jobs)
    fig7 = bench_fig7_slice()
    explore = bench_explore()

    return {
        "schema": 1,
        "quick": quick,
        "event_loop": {
            "events_per_sec": round(ev_opt),
            "reference_per_sec": round(ev_ref),
            "speedup": round(ev_opt / ev_ref, 3),
        },
        "event_burst": {
            "events_per_sec": round(eb_opt),
            "reference_per_sec": round(eb_ref),
            "speedup": round(eb_opt / eb_ref, 3),
        },
        "metered_access": {
            "accesses_per_sec": round(ma_opt),
            "reference_per_sec": round(ma_ref),
            "speedup": round(ma_opt / ma_ref, 3),
        },
        "page_burst": {
            "pages_per_sec": round(pb_opt),
            "reference_per_sec": round(pb_ref),
            "speedup": round(pb_opt / pb_ref, 3),
        },
        "tracer_overhead": {
            "tracer_off_per_sec": round(tr_off),
            "tracer_on_per_sec": round(tr_on),
            "overhead_pct": round((tr_off / tr_on - 1.0) * 100, 1),
        },
        "spans_overhead": {
            "spans_off_per_sec": round(sp_off),
            "spans_on_per_sec": round(sp_on),
            "overhead_pct": round((sp_off / sp_on - 1.0) * 100, 1),
            "disabled_speedup": round(sp_off / ma_ref, 3),
        },
        "memsan_overhead": {
            "memsan_off_per_sec": round(msn_off),
            "memsan_on_per_sec": round(msn_on),
            "overhead_pct": round((msn_off / msn_on - 1.0) * 100, 1),
            "disabled_speedup": round(msn_off / ma_ref, 3),
        },
        "metrics_overhead": {
            "metrics_off_per_sec": round(mt_off),
            "metrics_on_per_sec": round(mt_on),
            "overhead_pct": round((mt_off / mt_on - 1.0) * 100, 1),
            "disabled_speedup": round(mt_off / mt_on, 3),
        },
        "sweep_parallel": sweep_parallel,
        "fig7_slice": fig7,
        "explore": explore,
        "notes": (
            "reference_per_sec re-measures the frozen pre-optimization "
            "implementations in-process; speedups are machine-independent. "
            "See PERFORMANCE.md."
        ),
    }


def _repo_root() -> pathlib.Path:
    for base in [pathlib.Path.cwd()] + list(pathlib.Path.cwd().parents):
        if (base / "pyproject.toml").exists():
            return base
    return pathlib.Path.cwd()


# The batched calendar queue must hold at least this much ahead of the
# frozen plain-heap reference on the same-tick burst bench.
BURST_MIN_SPEEDUP = 2.0
# The parallel sweep must hold this much ahead of serial — but only on
# machines with enough cores to physically show it.
PARALLEL_MIN_SPEEDUP = 2.0
PARALLEL_GATE_MIN_CORES = 4
# An uninstalled metrics pipeline (slot load + None check per op)
# must be at least this much faster than installed-and-scraping —
# i.e. disabled telemetry stays (nearly) free.
METRICS_DISABLED_MIN_SPEEDUP = 1.5
# Sleep-set pruning must keep exhaustive exploration of the mixed-
# dependency property config at or below this fraction of the naive
# interleaving count.
EXPLORE_MAX_RATIO = 0.25


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    argv = [a for a in argv if a != "--quick"]
    min_speedup = 1.5
    if "--min-speedup" in argv:
        index = argv.index("--min-speedup")
        min_speedup = float(argv[index + 1])
        del argv[index : index + 2]
    jobs = 0
    if "--jobs" in argv:
        index = argv.index("--jobs")
        jobs = int(argv[index + 1])
        del argv[index : index + 2]
    out_path = _repo_root() / "BENCH_perf.json"
    if "--out" in argv:
        index = argv.index("--out")
        out_path = pathlib.Path(argv[index + 1])
        del argv[index : index + 2]
    if argv:
        raise SystemExit(f"unknown perf option(s): {' '.join(argv)}")

    report = run_perf(quick=quick, jobs=jobs)
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"perf report -> {out_path}")
    for key in ("event_loop", "event_burst", "metered_access", "page_burst"):
        entry = report[key]
        rate = next(v for k, v in entry.items() if k.endswith("_per_sec"))
        print(f"  {key:16s} {rate:>12,}/s   {entry['speedup']:.2f}x vs pre-PR reference")
    tr = report["tracer_overhead"]
    print(
        f"  {'tracer':16s} off {tr['tracer_off_per_sec']:,}/s  "
        f"on {tr['tracer_on_per_sec']:,}/s  (+{tr['overhead_pct']}%)"
    )
    sp = report["spans_overhead"]
    print(
        f"  {'spans':16s} off {sp['spans_off_per_sec']:,}/s  "
        f"on {sp['spans_on_per_sec']:,}/s  (+{sp['overhead_pct']}%)  "
        f"disabled {sp['disabled_speedup']:.2f}x vs pre-PR reference"
    )
    msn = report["memsan_overhead"]
    print(
        f"  {'memsan':16s} off {msn['memsan_off_per_sec']:,}/s  "
        f"on {msn['memsan_on_per_sec']:,}/s  (+{msn['overhead_pct']}%)  "
        f"disabled {msn['disabled_speedup']:.2f}x vs pre-PR reference"
    )
    mt = report["metrics_overhead"]
    print(
        f"  {'metrics':16s} off {mt['metrics_off_per_sec']:,}/s  "
        f"on {mt['metrics_on_per_sec']:,}/s  (+{mt['overhead_pct']}%)  "
        f"disabled {mt['disabled_speedup']:.2f}x vs installed-and-scraping"
    )
    sw = report["sweep_parallel"]
    print(
        f"  {'sweep parallel':16s} serial {sw['serial_s']}s  "
        f"jobs={sw['jobs']} {sw['parallel_s']}s  ({sw['speedup']:.2f}x on "
        f"{sw['cpu_count']} core(s), merged_identical={sw['merged_identical']})"
    )
    fig7 = report["fig7_slice"]
    print(
        f"  {'fig7 slice':16s} {fig7['wall_s']}s wall, qps={fig7['qps']}, "
        f"{fig7['events_scheduled']} events "
        f"({fig7['events_per_wall_second']:,}/wall-s)"
    )
    ex = report["explore"]
    print(
        f"  {'explore':16s} toy {ex['toy_schedules']}/{ex['toy_naive']} "
        f"(ratio {ex['toy_ratio']}), protocol "
        f"{ex['protocol_schedules']}/{ex['protocol_naive']} "
        f"(ratio {ex['protocol_ratio']}), "
        f"{ex['schedules_per_sec']} schedules/s, clean={ex['clean']}"
    )

    burst = report["event_burst"]["speedup"]
    if burst < BURST_MIN_SPEEDUP:
        print(
            f"FAIL: event-burst speedup {burst:.2f}x is below the "
            f"{BURST_MIN_SPEEDUP:.2f}x gate — the batched calendar queue "
            f"lost its edge over the plain-heap reference (see "
            f"PERFORMANCE.md)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: event-burst speedup {burst:.2f}x >= "
        f"{BURST_MIN_SPEEDUP:.2f}x gate"
    )
    if not sw["merged_identical"]:
        print(
            "FAIL: parallel sweep merged report differs from serial — "
            "determinism broke (see tests/parallel/test_differential.py)",
            file=sys.stderr,
        )
        return 1
    print("OK: parallel sweep merge is byte-identical to serial")
    if sw["cpu_count"] >= PARALLEL_GATE_MIN_CORES and sw["jobs"] >= PARALLEL_GATE_MIN_CORES:
        if sw["speedup"] < PARALLEL_MIN_SPEEDUP:
            print(
                f"FAIL: parallel sweep speedup {sw['speedup']:.2f}x with "
                f"jobs={sw['jobs']} on {sw['cpu_count']} cores is below the "
                f"{PARALLEL_MIN_SPEEDUP:.2f}x gate (see PERFORMANCE.md)",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: parallel sweep speedup {sw['speedup']:.2f}x >= "
            f"{PARALLEL_MIN_SPEEDUP:.2f}x gate"
        )
    else:
        print(
            f"SKIP: parallel-sweep speedup gate needs >= "
            f"{PARALLEL_GATE_MIN_CORES} cores and jobs (have "
            f"{sw['cpu_count']} core(s), jobs={sw['jobs']}); ratio "
            f"{sw['speedup']:.2f}x recorded"
        )

    speedup = report["metered_access"]["speedup"]
    if speedup < min_speedup:
        print(
            f"FAIL: metered-access speedup {speedup:.2f}x is below the "
            f"{min_speedup:.2f}x gate (see PERFORMANCE.md)",
            file=sys.stderr,
        )
        return 1
    print(f"OK: metered-access speedup {speedup:.2f}x >= {min_speedup:.2f}x gate")
    disabled = report["spans_overhead"]["disabled_speedup"]
    if disabled < min_speedup:
        print(
            f"FAIL: spans-disabled metered access {disabled:.2f}x is below "
            f"the {min_speedup:.2f}x gate — the span hooks cost too much "
            f"when no SpanTracer is installed (see PERFORMANCE.md)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: spans-disabled metered access {disabled:.2f}x >= "
        f"{min_speedup:.2f}x gate"
    )
    memsan_disabled = report["memsan_overhead"]["disabled_speedup"]
    if memsan_disabled < min_speedup:
        print(
            f"FAIL: memsan-disabled metered access {memsan_disabled:.2f}x is "
            f"below the {min_speedup:.2f}x gate — the race-detector hooks "
            f"cost too much when no MemSan is installed (see PERFORMANCE.md)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: memsan-disabled metered access {memsan_disabled:.2f}x >= "
        f"{min_speedup:.2f}x gate"
    )
    metrics_disabled = report["metrics_overhead"]["disabled_speedup"]
    if metrics_disabled < METRICS_DISABLED_MIN_SPEEDUP:
        print(
            f"FAIL: metrics-disabled ops {metrics_disabled:.2f}x is below "
            f"the {METRICS_DISABLED_MIN_SPEEDUP:.2f}x gate — the uninstalled "
            f"pipeline check costs too much relative to live scraping "
            f"(see PERFORMANCE.md)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: metrics-disabled ops {metrics_disabled:.2f}x >= "
        f"{METRICS_DISABLED_MIN_SPEEDUP:.2f}x gate"
    )
    ex = report["explore"]
    if not ex["clean"]:
        print(
            "FAIL: schedule exploration reported protocol violations — "
            "run `python -m repro.analysis explore` for replay tokens",
            file=sys.stderr,
        )
        return 1
    if ex["toy_ratio"] > EXPLORE_MAX_RATIO:
        print(
            f"FAIL: explore pruning ratio {ex['toy_ratio']} exceeds the "
            f"{EXPLORE_MAX_RATIO} gate — happens-before pruning lost its "
            f"edge over naive enumeration (see DESIGN.md §14)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: explore pruning ratio {ex['toy_ratio']} <= "
        f"{EXPLORE_MAX_RATIO} gate ({ex['schedules_per_sec']} schedules/s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
