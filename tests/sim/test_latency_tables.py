"""Latency tables must reproduce the LatencyConfig formulas exactly.

The hot-path optimization replaced per-access ``base + n * slope``
arithmetic with memoized :class:`LatencyTable` lookups; these tests pin
the exactness claim (bit-identical floats, not approximately equal) for
every size class :class:`MappedMemory` can charge.
"""

from repro.hardware.cache import LineCacheModel
from repro.hardware.memory import AccessMeter, MappedMemory, MemoryRegion, MemoryTiming
from repro.sim.latency import CACHE_LINE, LatencyConfig, LatencyTable

# Every size MappedMemory can hand to a table: the precomputed power-of-
# two classes, plus odd sizes, threshold edges and the 16 KB page.
SIZES = sorted(
    {CACHE_LINE << i for i in range(9)}
    | {1, 3, 8, 63, 65, 100, 200, 255, 256, 257, 1000, 4095, 5000, 12345, 16384}
)

CONFIG = LatencyConfig()
LINES = {
    "rdma_read": CONFIG.rdma_read_ns,
    "rdma_write": CONFIG.rdma_write_ns,
    "cxl_read": CONFIG.cxl_read_ns,
    "cxl_write": CONFIG.cxl_write_ns,
}


def test_tables_exactly_reproduce_config_formulas():
    for name, formula in LINES.items():
        table = LatencyTable(
            getattr(CONFIG, f"{name}_base_ns"), getattr(CONFIG, f"{name}_ns_per_byte")
        )
        for nbytes in SIZES:
            assert table.ns(nbytes) == formula(nbytes), (name, nbytes)
            # Memoized second lookup returns the identical value.
            assert table.ns(nbytes) == formula(nbytes), (name, nbytes)


def test_table_handles_unprecomputed_sizes():
    table = LatencyTable(10.0, 0.25, sizes=(64,))
    assert table.ns(64) == 10.0 + 64 * 0.25
    assert table.ns(777) == 10.0 + 777 * 0.25  # computed and memoized on demand
    assert 777 in table._cache


def _cxl_mapped():
    region = MemoryRegion("tbl", 1 << 20, volatile=False)
    timing = MemoryTiming(
        miss_ns=CONFIG.cxl_switch_local_ns,
        hit_ns=18.0,
        read_burst_base_ns=CONFIG.cxl_read_base_ns,
        read_burst_ns_per_byte=CONFIG.cxl_read_ns_per_byte,
        write_burst_base_ns=CONFIG.cxl_write_base_ns,
        write_burst_ns_per_byte=CONFIG.cxl_write_ns_per_byte,
        pipe_key="cxl",
    )
    meter = AccessMeter()
    return MappedMemory(region, timing, meter, LineCacheModel(1 << 18), "cxl"), meter


def test_mapped_memory_burst_charges_match_config():
    mapped, meter = _cxl_mapped()
    expected = 0.0
    for nbytes in (256, 1000, 4096, 16384, 12345):
        mapped.read(0, nbytes)
        expected += CONFIG.cxl_read_ns(nbytes)
        mapped.write(0, b"\x00" * nbytes)
        expected += CONFIG.cxl_write_ns(nbytes)
    assert meter.ns == expected


def test_mapped_memory_small_access_charges_match_line_model():
    mapped, meter = _cxl_mapped()
    # Cold single line: one miss.
    mapped.read(0, 8)
    assert meter.ns == CONFIG.cxl_switch_local_ns
    # Warm same line: one hit.
    mapped.read(8, 8)
    assert meter.ns == CONFIG.cxl_switch_local_ns + 18.0
    # Straddling read (two lines, one warm one cold).
    mapped.read(CACHE_LINE - 4, 8)
    assert meter.ns == 2 * CONFIG.cxl_switch_local_ns + 2 * 18.0
