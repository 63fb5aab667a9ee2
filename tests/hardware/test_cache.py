"""CPU cache models: the timing LRU and the functional write-back cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import CpuCache, LineCacheModel
from repro.hardware.memory import AccessMeter, MemoryRegion
from repro.sim.latency import CACHE_LINE


class TestLineCacheModel:
    def test_miss_then_hit(self):
        cache = LineCacheModel(capacity_bytes=1024)
        assert cache.touch("r", 0) is False
        assert cache.touch("r", 0) is True
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = LineCacheModel(capacity_bytes=2 * CACHE_LINE)
        cache.touch("r", 0)
        cache.touch("r", 1)
        cache.touch("r", 2)  # evicts line 0
        assert cache.touch("r", 0) is False

    def test_touch_refreshes_recency(self):
        cache = LineCacheModel(capacity_bytes=2 * CACHE_LINE)
        cache.touch("r", 0)
        cache.touch("r", 1)
        cache.touch("r", 0)  # 1 is now LRU
        cache.touch("r", 2)  # evicts 1
        assert cache.touch("r", 0) is True
        assert cache.touch("r", 1) is False

    def test_regions_do_not_collide(self):
        cache = LineCacheModel(capacity_bytes=1024)
        cache.touch("a", 0)
        assert cache.touch("b", 0) is False

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            LineCacheModel(capacity_bytes=32)

    def test_hit_ratio(self):
        cache = LineCacheModel(capacity_bytes=1024)
        cache.touch("r", 0)
        cache.touch("r", 0)
        assert cache.hit_ratio == 0.5


@pytest.fixture
def region():
    return MemoryRegion("shared", 1 << 16, volatile=False)


@pytest.fixture
def cpu_cache():
    return CpuCache("c0", capacity_lines=64)


class TestCpuCacheFunctional:
    def test_read_through(self, region, cpu_cache):
        region.write(100, b"abcdef")
        assert cpu_cache.read(region, 100, 6) == b"abcdef"

    def test_write_hidden_until_flush(self, region, cpu_cache):
        cpu_cache.write(region, 0, b"dirty!")
        assert region.read(0, 6) == b"\x00" * 6  # backing unchanged
        assert cpu_cache.read(region, 0, 6) == b"dirty!"  # cache sees it
        flushed = cpu_cache.clflush(region, 0, 6)
        assert flushed == 1
        assert region.read(0, 6) == b"dirty!"

    def test_stale_read_after_remote_write(self, region, cpu_cache):
        # Cache a clean copy, then "another host" changes the region.
        assert cpu_cache.read(region, 0, 4) == b"\x00" * 4
        region.write(0, b"new!")
        # Still served the stale cached line — the CXL 2.0 hazard.
        assert cpu_cache.read(region, 0, 4) == b"\x00" * 4
        # Invalidate, then the fresh value is visible.
        cpu_cache.invalidate(region, 0, 4)
        assert cpu_cache.read(region, 0, 4) == b"new!"

    def test_clflush_invalidates_even_clean_lines(self, region, cpu_cache):
        cpu_cache.read(region, 0, 4)
        region.write(0, b"new!")
        cpu_cache.clflush(region, 0, 4)
        assert cpu_cache.read(region, 0, 4) == b"new!"

    def test_partial_line_write_preserves_rest(self, region, cpu_cache):
        region.write(0, bytes(range(64)))
        cpu_cache.write(region, 10, b"\xFF\xFF")
        cpu_cache.clflush(region, 0, 64)
        data = region.read(0, 64)
        assert data[10:12] == b"\xFF\xFF"
        assert data[0:10] == bytes(range(10))
        assert data[12:64] == bytes(range(12, 64))

    def test_write_spanning_lines(self, region, cpu_cache):
        cpu_cache.write(region, 60, b"A" * 130)
        assert cpu_cache.read(region, 60, 130) == b"A" * 130
        cpu_cache.clflush(region, 60, 130)
        assert region.read(60, 130) == b"A" * 130

    def test_capacity_eviction_writes_back_dirty(self, region):
        cache = CpuCache("c1", capacity_lines=2)
        cache.write(region, 0, b"x")
        cache.write(region, 64, b"y")
        cache.write(region, 128, b"z")  # evicts line 0, dirty
        assert region.read(0, 1) == b"x"
        assert cache.write_backs >= 1

    def test_drop_all_loses_dirty_data(self, region, cpu_cache):
        cpu_cache.write(region, 0, b"lost")
        cpu_cache.drop_all()
        assert region.read(0, 4) == b"\x00" * 4
        assert cpu_cache.read(region, 0, 4) == b"\x00" * 4

    def test_dirty_lines_count(self, region, cpu_cache):
        cpu_cache.write(region, 0, b"a")
        cpu_cache.write(region, 64, b"b")
        cpu_cache.read(region, 128, 1)
        assert cpu_cache.dirty_lines(region, 0, 192) == 2

    def test_clflush_returns_dirty_count_only(self, region, cpu_cache):
        cpu_cache.read(region, 0, 64)  # clean line
        cpu_cache.write(region, 64, b"d")  # dirty line
        assert cpu_cache.clflush(region, 0, 128) == 1

    def test_invalidate_returns_dropped_count(self, region, cpu_cache):
        cpu_cache.read(region, 0, 128)
        assert cpu_cache.invalidate(region, 0, 128) == 2
        assert cpu_cache.invalidate(region, 0, 128) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.binary(min_size=1, max_size=80)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30)
    def test_flush_everything_equals_direct_writes(self, writes):
        """Property: write-through-cache + full clflush == direct writes."""
        region_a = MemoryRegion("a", 2048, volatile=False)
        region_b = MemoryRegion("b", 2048, volatile=False)
        cache = CpuCache("prop", capacity_lines=1024)
        for offset, data in writes:
            data = data[: 2048 - offset]
            if not data:
                continue
            cache.write(region_a, offset, data)
            region_b.write(offset, data)
        cache.clflush(region_a, 0, 2048)
        assert region_a.read(0, 2048) == region_b.read(0, 2048)


class TestCpuCacheMetering:
    def test_fill_charges_miss_and_pipe(self):
        region = MemoryRegion("m", 4096, volatile=False)
        meter = AccessMeter()
        cache = CpuCache(
            "c", capacity_lines=16, meter=meter, miss_ns=549.0, hit_ns=18.0,
            pipe_key="cxl",
        )
        cache.read(region, 0, 8)
        assert meter.ns == pytest.approx(549.0)
        assert meter.counters["cxl_bytes"] == CACHE_LINE
        cache.read(region, 0, 8)
        assert meter.ns == pytest.approx(549.0 + 18.0)

    def test_writeback_charges_pipe(self):
        region = MemoryRegion("m", 4096, volatile=False)
        meter = AccessMeter()
        cache = CpuCache(
            "c", capacity_lines=16, meter=meter, miss_ns=549.0, hit_ns=18.0,
            pipe_key="cxl",
        )
        cache.write(region, 0, b"x")
        meter.take()
        meter.counters.clear()
        cache.clflush(region, 0, 64)
        assert meter.counters["cxl_bytes"] == CACHE_LINE
