"""Memory regions, volatility, metering, mapped/windowed access."""

import os
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.coherency import FlagSlab
from repro.hardware.cache import LineCacheModel
from repro.hardware.host import cxl_timing, dram_timing
from repro.hardware.memory import (
    AccessMeter,
    MappedMemory,
    MemoryRegion,
    PoisonedMemoryError,
    WindowedMemory,
)
from repro.sim.latency import CACHE_LINE, LatencyConfig


class TestMemoryRegion:
    def test_roundtrip(self):
        region = MemoryRegion("r", 4096, volatile=True)
        region.write(100, b"hello")
        assert region.read(100, 5) == b"hello"

    def test_zero_initialized(self):
        region = MemoryRegion("r", 64, volatile=False)
        assert region.read(0, 64) == b"\x00" * 64

    def test_bounds_checked(self):
        region = MemoryRegion("r", 64, volatile=False)
        with pytest.raises(IndexError):
            region.read(60, 8)
        with pytest.raises(IndexError):
            region.write(-1, b"x")

    def test_volatile_power_fail_poisons(self):
        region = MemoryRegion("r", 64, volatile=True)
        region.write(0, b"data")
        region.power_fail()
        with pytest.raises(PoisonedMemoryError):
            region.read(0, 4)
        with pytest.raises(PoisonedMemoryError):
            region.write(0, b"x")

    def test_nonvolatile_survives_power_fail(self):
        region = MemoryRegion("r", 64, volatile=False)
        region.write(0, b"data")
        region.power_fail()
        assert region.read(0, 4) == b"data"

    def test_power_restore_zeroes(self):
        region = MemoryRegion("r", 64, volatile=True)
        region.write(0, b"data")
        region.power_fail()
        region.power_restore()
        assert region.read(0, 4) == b"\x00" * 4
        assert not region.poisoned

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MemoryRegion("r", 0, volatile=True)

    @given(st.binary(min_size=1, max_size=300), st.integers(0, 700))
    def test_write_read_roundtrip_property(self, data, offset):
        region = MemoryRegion("r", 1024, volatile=False)
        if offset + len(data) > 1024:
            with pytest.raises(IndexError):
                region.write(offset, data)
        else:
            region.write(offset, data)
            assert region.read(offset, len(data)) == data


_EXTENT = 1 << 16
_REGION_BYTES = 5 * _EXTENT + 4096  # a short last extent


class TestRegionSnapshot:
    @given(
        st.lists(
            st.tuples(st.integers(0, _REGION_BYTES - 1), st.binary(min_size=1, max_size=200)),
            max_size=12,
        )
    )
    def test_snapshot_restores_equal_bytes_and_stores_only_nonzero_extents(self, writes):
        region = MemoryRegion("r", _REGION_BYTES, volatile=False)
        for offset, data in writes:
            data = data[: _REGION_BYTES - offset]
            region.write(offset, data)
        poisoned, extents = state = region.snapshot()
        assert not poisoned
        whole = region.read(0, _REGION_BYTES)
        assert [at for at, _ in extents] == [
            at for at in range(0, _REGION_BYTES, _EXTENT) if any(whole[at : at + _EXTENT])
        ]
        assert all(chunk == whole[at : at + len(chunk)] for at, chunk in extents)

        clone = MemoryRegion("r", _REGION_BYTES, volatile=False)
        clone.write(17, b"overwritten by the restore")
        clone.restore(state)
        assert clone.read(0, _REGION_BYTES) == whole

        # Writes to the clone reach neither the source nor the snapshot.
        clone.write(0, b"\xff" * _REGION_BYTES)
        assert region.read(0, _REGION_BYTES) == whole
        assert region.snapshot() == state

    def test_fresh_and_power_restored_regions_read_zero_everywhere(self):
        region = MemoryRegion("r", 3 * _EXTENT + 5, volatile=True)
        assert region.read(0, region.size) == bytes(region.size)
        assert region.snapshot() == (False, ())
        region.write(_EXTENT + 3, b"contents")
        region.power_fail()
        region.power_restore()
        assert region.read(0, region.size) == bytes(region.size)
        assert region.snapshot() == (False, ())

    def test_backing_is_private_to_the_process_and_replaced_mappings_are_closed(self):
        region = MemoryRegion("r", 2 * _EXTENT, volatile=True)
        region.write(0, b"parent")
        pid = os.fork()
        if pid == 0:  # a forked child's writes must not reach the parent
            region.write(0, b"child!")
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        assert region.read(0, 6) == b"parent"

        state, replaced = region.snapshot(), region._data
        region.restore(state)
        assert replaced.closed and region.read(0, 6) == b"parent"
        replaced = region._data
        region.power_fail()
        region.power_restore()
        assert replaced.closed and region.read(0, 6) == bytes(6)

    def test_poison_travels_with_the_snapshot(self):
        region = MemoryRegion("r", 4096, volatile=True)
        region.write(0, b"lost")
        region.power_fail()
        clone = MemoryRegion("r", 4096, volatile=True)
        clone.restore(region.snapshot())
        with pytest.raises(PoisonedMemoryError):
            clone.read(0, 4)

    @pytest.mark.parametrize("restored", [False, True])
    def test_rejected_accesses_raise_the_same_typed_errors(self, restored):
        region = MemoryRegion("r", 4096, volatile=True)
        if restored:
            region.restore(MemoryRegion("r", 4096, volatile=True).snapshot())
        for bad in (lambda: region.read(4090, 8), lambda: region.read(-1, 1),
                    lambda: region.read(0, -1), lambda: region.write(4095, b"xy")):
            with pytest.raises(IndexError, match="outside region 'r' of size 4096"):
                bad()
        region.power_fail()
        with pytest.raises(PoisonedMemoryError, match="lost its contents"):
            region.read(0, 1)
        with pytest.raises(IndexError):  # out of range wins over poisoned
            region.write(4095, b"xy")


class TestAccessMeter:
    def test_charges_accumulate_and_take_clears(self):
        meter = AccessMeter()
        meter.charge_ns(100)
        meter.charge_transfer("rdma", 64, base_ns=10)
        ns, transfers = meter.take()
        assert ns == 100
        assert len(transfers) == 1
        assert transfers[0].pipe_key == "rdma"
        assert meter.ns == 0
        assert meter.transfers == []

    def test_counters_persist_across_take(self):
        meter = AccessMeter()
        meter.charge_transfer("rdma", 64)
        meter.take()
        assert meter.counters["rdma_bytes"] == 64
        assert meter.counters["rdma_ops"] == 1

    def test_reset_clears_everything(self):
        meter = AccessMeter()
        meter.charge_ns(5)
        meter.count("x")
        meter.reset()
        assert meter.ns == 0
        assert meter.counters == {}


def _mapped(kind: str, meter: AccessMeter, cache: LineCacheModel) -> MappedMemory:
    config = LatencyConfig()
    region = MemoryRegion("m", 1 << 20, volatile=False)
    timing = dram_timing(config) if kind == "dram" else cxl_timing(config)
    return MappedMemory(region, timing, meter, cache, counter_key=kind)


class TestMappedMemory:
    def test_small_read_charges_miss_then_hit(self):
        meter = AccessMeter()
        mapped = _mapped("dram", meter, LineCacheModel())
        mapped.read(0, 8)
        first = meter.ns
        mapped.read(0, 8)
        second = meter.ns - first
        assert first == pytest.approx(LatencyConfig().dram_local_ns)
        assert second < first  # cached

    def test_burst_read_uses_burst_model(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        mapped.read(0, 16384)
        config = LatencyConfig()
        assert meter.ns == pytest.approx(config.cxl_read_ns(16384), rel=0.01)

    def test_burst_write_differs_from_read(self):
        config = LatencyConfig()
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        mapped.write(0, b"\xAA" * 16384)
        assert meter.ns == pytest.approx(config.cxl_write_ns(16384), rel=0.01)

    def test_cxl_pipe_charged_only_on_misses(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        mapped.read(0, 8)
        assert meter.counters.get("cxl_touched_bytes") == 8
        assert meter.counters.get("cxl_bytes") == CACHE_LINE
        _, transfers = meter.take()
        assert sum(t.nbytes for t in transfers) == CACHE_LINE
        mapped.read(0, 8)  # hit: no new pipe traffic
        _, transfers = meter.take()
        assert transfers == []

    def test_dram_has_no_pipe(self):
        meter = AccessMeter()
        mapped = _mapped("dram", meter, LineCacheModel())
        mapped.read(0, 8)
        assert meter.transfers == []

    def test_straddling_read_touches_two_lines(self):
        meter = AccessMeter()
        mapped = _mapped("dram", meter, LineCacheModel())
        mapped.read(60, 8)  # crosses a line boundary
        assert meter.ns == pytest.approx(2 * LatencyConfig().dram_local_ns)


class TestWindowedMemory:
    def test_relative_addressing(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        window = WindowedMemory(mapped, base=4096, size=8192)
        window.write(0, b"abc")
        assert mapped.region.read(4096, 3) == b"abc"
        assert window.read(0, 3) == b"abc"

    def test_bounds(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        window = WindowedMemory(mapped, base=0, size=128)
        with pytest.raises(IndexError):
            window.read(120, 16)
        with pytest.raises(IndexError):
            WindowedMemory(mapped, base=(1 << 20) - 64, size=128)

    def test_nested_windows_flatten(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        outer = WindowedMemory(mapped, base=4096, size=8192)
        inner = WindowedMemory(outer, base=128, size=256)
        assert inner.mapped is mapped
        assert (inner.base, inner.size) == (4096 + 128, 256)
        inner.write(8, b"xy")
        assert mapped.region.read(4096 + 128 + 8, 2) == b"xy"
        with pytest.raises(IndexError):
            WindowedMemory(outer, base=8000, size=256)  # inside mapped, outside outer

    def test_typed_reads_match_read(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        window = WindowedMemory(mapped, base=4096, size=8192)
        window.write(0, struct.pack("<4H", 1, 2, 3, 4))
        u16 = struct.Struct("<H")
        assert window.unpack(u16, 2) == (2,)
        assert window.read_run(u16, 6, -2, 4) == [(4,), (3,), (2,), (1,)]
        assert window.read_run(u16, 0, 2, 0) == []
        with pytest.raises(IndexError):
            window.read_run(u16, 2, -2, 3)  # third element is below the window
        with pytest.raises(IndexError):
            window.unpack(u16, 8191)


def _poisoned_dram(kind: str, meter: AccessMeter, cache: LineCacheModel) -> MappedMemory:
    region = MemoryRegion("lost", 4096, volatile=True)
    region.power_fail()
    return MappedMemory(region, dram_timing(LatencyConfig()), meter, cache, "dram")


def _poisoned_slab(kind: str, meter: AccessMeter, cache: LineCacheModel) -> FlagSlab:
    region = MemoryRegion("lost.flags", 4096, volatile=True)
    slab = FlagSlab(region, 0, 8, meter)
    region.power_fail()
    return slab


_U64 = struct.Struct("<Q")


def _window(mapped: MappedMemory) -> WindowedMemory:
    return WindowedMemory(mapped, 64, 128)


REJECTED = {
    # The three cases of the issue: each charged (and cached a phantom
    # line, or booked negative bytes) before raising at the parent commit.
    "read past the region": (_mapped, lambda m: m.read(1 << 20, 8), IndexError),
    "negative length through a window": (
        _mapped, lambda m: _window(m).read(10, -20), IndexError),
    "read of a power-failed region": (
        _poisoned_dram, lambda m: m.read(0, 8), PoisonedMemoryError),
    # Every other way in.
    "negative offset": (_mapped, lambda m: m.read(-8, 8), IndexError),
    "negative length": (_mapped, lambda m: m.read(64, -20), IndexError),
    "write across the end": (
        _mapped, lambda m: m.write((1 << 20) - 4, b"12345678"), IndexError),
    "unpack across the end": (
        _mapped, lambda m: m.unpack(_U64, (1 << 20) - 4), IndexError),
    "run past the end": (
        _mapped, lambda m: m.read_run(_U64, 0, 8, (1 << 17) + 1), IndexError),
    "descending run below zero": (
        _mapped, lambda m: m.read_run(_U64, 16, -8, 4), IndexError),
    "run with stride zero": (_mapped, lambda m: m.read_run(_U64, 0, 0, 4), ValueError),
    "window: read across its end": (
        _mapped, lambda m: _window(m).read(120, 16), IndexError),
    "window: write across its end": (
        _mapped, lambda m: _window(m).write(126, b"abc"), IndexError),
    "window: unpack below its base": (
        _mapped, lambda m: _window(m).unpack(_U64, -8), IndexError),
    "window: run across its end": (
        _mapped, lambda m: _window(m).read_run(_U64, 0, 8, 17), IndexError),
    "poisoned: write": (_poisoned_dram, lambda m: m.write(0, b"x"), PoisonedMemoryError),
    "poisoned: unpack": (_poisoned_dram, lambda m: m.unpack(_U64, 0), PoisonedMemoryError),
    "poisoned: run": (
        _poisoned_dram, lambda m: m.read_run(_U64, 0, 8, 2), PoisonedMemoryError),
    "poisoned: burst read": (
        _poisoned_dram, lambda m: m.read(0, 1024), PoisonedMemoryError),
    # The coherency-flag read is a metered frame of its own; it charged
    # flag_read_ns and counted a flag read before it looked at the region.
    "poisoned: flag read": (
        _poisoned_slab, lambda slab: slab.read_invalid(3), PoisonedMemoryError),
    "flag entry out of range": (
        _poisoned_slab, lambda slab: slab.read_removal(8), IndexError),
}


@pytest.mark.parametrize("build, access, error", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_access_charges_nothing(build, access, error):
    """Validate first: a refused access leaves the meter, the line cache
    and every counter exactly as they were."""
    meter = AccessMeter()
    cache = LineCacheModel()
    mapped = build("cxl", meter, cache)
    with pytest.raises(error):
        access(mapped)
    assert meter.ns == 0.0
    assert meter.transfers == [] and meter.counters == {}
    assert list(cache.lines) == [] and (cache.hits, cache.misses) == (0, 0)
