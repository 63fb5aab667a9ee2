"""A region's written-extent map against the full scan it replaced.

``full_scan_snapshot`` below is the region snapshot written the plain
way: read every 64 KB extent and keep the non-zero ones. A hypothesis
state machine stores into one region through all four writers that
touch its buffer — ``MemoryRegion.write`` (spans of any length, all-zero
data included), the fused ``MappedMemory.write`` and its straddling
path, with and without MemSan installed, ``CpuCache`` write-backs on
``clflush`` and on capacity eviction, and coherency-flag stores — and
power-fails, power-restores and restores the region from earlier
images. After every step the map-driven ``snapshot`` equals the full
scan, no extent with a non-zero byte is unmarked, and the image
round-trips byte for byte into a fresh region and into a written one.
"""

import contextlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.analysis.memsan import MemSan
from repro.core.coherency import set_remote_flag
from repro.hardware.cache import CpuCache, LineCacheModel
from repro.hardware.memory import AccessMeter, MappedMemory, MemoryRegion, MemoryTiming
from repro.sim.latency import CACHE_LINE, LatencyConfig

EXTENT = 1 << 16
ZERO_EXTENT = bytes(EXTENT)
#: Three whole extents and a short fourth of whole lines (a CpuCache
#: moves whole lines), so the last extent is partial.
SIZE = 3 * EXTENT + 3 * CACHE_LINE
TIMING = MemoryTiming(
    miss_ns=100.0, hit_ns=1.0,
    read_burst_base_ns=50.0, read_burst_ns_per_byte=0.1,
    write_burst_base_ns=50.0, write_burst_ns_per_byte=0.1,
    pipe_key="cxl",
)


def full_scan_snapshot(region):
    """The snapshot before the written-extent map: every extent read."""
    data = region._data
    extents = []
    for at in range(0, region.size, EXTENT):
        chunk = data[at : at + EXTENT]
        if chunk != ZERO_EXTENT[: len(chunk)]:
            extents.append((at, chunk))
    return region._poisoned, tuple(extents)


# Offsets cluster on extent edges, where a missed or misplaced mark shows.
EDGES = st.sampled_from([0, EXTENT - CACHE_LINE, EXTENT, 2 * EXTENT - 8, 3 * EXTENT])
OFFSETS = st.one_of(st.integers(0, SIZE - 1), EDGES.map(lambda at: min(at, SIZE - 1)))
PAYLOADS = st.one_of(
    st.binary(min_size=1, max_size=96),
    st.integers(1, 96).map(bytes),  # all zero
    st.sampled_from([b"\x07" * (EXTENT + 40), bytes(2 * EXTENT)]),  # over an extent
)


def _fit(offset, data):
    return min(offset, SIZE - len(data)), data


class RegionImageMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.region = MemoryRegion("r", SIZE, volatile=True)
        self.mapped = MappedMemory(
            self.region, TIMING, AccessMeter(), LineCacheModel(1 << 12), "cxl"
        )
        self.cache = CpuCache("c", capacity_lines=3)
        self.images = []

    def alive(self):
        return not self.region.poisoned

    @precondition(alive)
    @rule(offset=OFFSETS, data=PAYLOADS)
    def region_write(self, offset, data):
        self.region.write(*_fit(offset, data))

    @precondition(alive)
    @rule(offset=OFFSETS, data=st.binary(min_size=1, max_size=CACHE_LINE), memsan=st.booleans())
    def mapped_write(self, offset, data, memsan):
        """Fused when the bytes fit in one line, else the general path."""
        with MemSan() if memsan else contextlib.nullcontext():
            self.mapped.write(*_fit(offset, data))

    @precondition(alive)
    @rule(offset=OFFSETS, data=st.binary(min_size=1, max_size=2 * CACHE_LINE), flush=st.booleans())
    def cached_write(self, offset, data, flush):
        """Dirty lines reach the region on ``clflush`` or, past three
        resident lines, on eviction."""
        offset, data = _fit(offset, data)
        self.cache.write(self.region, offset, data)
        if flush:
            self.cache.clflush(self.region, offset, len(data))

    @precondition(alive)
    @rule(addr=OFFSETS, value=st.booleans())
    def flag_store(self, addr, value):
        set_remote_flag(self.region, addr, AccessMeter(), LatencyConfig(), value)

    @rule()
    def power_fail(self):
        self.cache.drop_all()  # the host's cache dies with it
        self.region.power_fail()

    @rule()
    def power_restore(self):
        self.region.power_restore()

    @rule()
    def keep_image(self):
        self.images.append((self.region.snapshot(), bytes(self.region._data)))

    @precondition(lambda self: self.images)
    @rule(pick=st.integers(0, 7))
    def restore_an_earlier_image(self, pick):
        self.cache.drop_all()
        state, contents = self.images[pick % len(self.images)]
        self.region.restore(state)
        assert bytes(self.region._data) == contents

    @invariant()
    def snapshot_is_the_full_scan(self):
        region = self.region
        state, reference = region.snapshot(), full_scan_snapshot(region)
        assert state == reference
        assert all(region._written[at // EXTENT] for at, _ in reference[1])
        for target in (MemoryRegion("r", SIZE, volatile=True), self.scribbled()):
            target.restore(state)
            assert target._data[:] == region._data[:]
            assert target.poisoned == region.poisoned
            assert target.snapshot() == state == full_scan_snapshot(target)

    @staticmethod
    def scribbled():
        target = MemoryRegion("r", SIZE, volatile=True)
        target.write(2 * EXTENT + 5, b"\xff" * 300)
        return target


RegionImageMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestRegionImageAgainstTheFullScan = RegionImageMachine.TestCase
