"""Microbenchmarks regenerating the paper's Tables 1 and 2.

These measure the *model through its real access paths* — the same
``MappedMemory`` / ``RdmaNic`` machinery the engine uses — not the
config constants directly, so a regression in the charging logic shows
up as a wrong table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.cache import LineCacheModel
from ..hardware.host import cxl_timing, dram_timing
from ..hardware.memory import AccessMeter, MappedMemory, MemoryRegion
from ..hardware.rdma import RdmaNic
from ..sim.core import Simulator
from ..sim.latency import LatencyConfig

__all__ = [
    "measure_load_latency",
    "table1_rows",
    "measure_transfer_latency",
    "table2_rows",
    "TABLE1_PAPER",
    "TABLE2_PAPER",
]

# Paper Table 1 (ns): memory kind -> (local, remote).
TABLE1_PAPER = {
    "dram": (146.0, 231.0),
    "cxl_no_switch": (265.2, 345.9),
    "cxl_switch": (549.0, 651.0),
}

# Paper Table 2 (µs): size -> (rdma_write, cxl_write, rdma_read, cxl_read).
TABLE2_PAPER = {
    64: (4.48, 0.78, 4.55, 0.75),
    512: (4.69, 0.84, 4.79, 0.85),
    1024: (4.77, 0.88, 4.91, 1.07),
    4096: (5.06, 1.02, 5.58, 1.86),
    16384: (6.12, 1.68, 7.13, 2.46),
}


def _mapped(kind: str, remote: bool, meter: AccessMeter) -> MappedMemory:
    config = LatencyConfig()
    region = MemoryRegion(f"bench.{kind}.{remote}", 1 << 22, volatile=False)
    # A 1-line cache: every fresh address misses, like MLC's pointer chase.
    cache = LineCacheModel(capacity_bytes=64)
    if kind == "dram":
        timing = dram_timing(config, remote_numa=remote)
    elif kind == "cxl_no_switch":
        timing = cxl_timing(config, remote_numa=remote, through_switch=False)
    elif kind == "cxl_switch":
        timing = cxl_timing(config, remote_numa=remote, through_switch=True)
    else:
        raise ValueError(kind)
    return MappedMemory(region, timing, meter, cache, counter_key=kind)


def measure_load_latency(kind: str, remote: bool) -> float:
    """Average ns per dependent 8-byte load (MLC-style), via the model:
    the mean over 512 loads."""
    accesses = 512
    meter = AccessMeter()
    mapped = _mapped(kind, remote, meter)
    offset = 64
    for _ in range(accesses):
        mapped.read(offset, 8)
        offset = (offset * 31 + 4096) % ((1 << 22) - 64)
        offset -= offset % 64
    return meter.ns / accesses


def table1_rows() -> list[tuple[str, float, float, float, float]]:
    """(kind, local_measured, local_paper, remote_measured, remote_paper)."""
    rows = []
    for kind, (paper_local, paper_remote) in TABLE1_PAPER.items():
        rows.append(
            (
                kind,
                measure_load_latency(kind, remote=False),
                paper_local,
                measure_load_latency(kind, remote=True),
                paper_remote,
            )
        )
    return rows


@dataclass
class TransferLatency:
    size: int
    rdma_write_us: float
    cxl_write_us: float
    rdma_read_us: float
    cxl_read_us: float


def measure_transfer_latency(size: int) -> TransferLatency:
    """One read + one write of ``size`` bytes through each interconnect.

    RDMA goes through an actual :class:`RdmaNic` inside a simulation so
    the measured number includes pipe occupancy; CXL uses the burst
    charging of a metered mapping.
    """
    sim = Simulator()
    nic = RdmaNic(sim, "bench-nic")

    def timed(event_factory) -> float:
        start = sim.now
        done = event_factory()
        marker = {}
        done.callbacks.append(lambda e: marker.setdefault("t", sim.now))
        sim.run()
        return marker["t"] - start

    rdma_write = timed(lambda: nic.write(size))
    rdma_read = timed(lambda: nic.read(size))

    meter = AccessMeter()
    config = LatencyConfig()
    region = MemoryRegion("bench.cxl", 1 << 21, volatile=False)
    cache = LineCacheModel(capacity_bytes=64)
    mapped = MappedMemory(
        region,
        cxl_timing(config, through_switch=True),
        meter,
        cache,
        counter_key="cxl",
    )
    # Force the burst path even for 64 B (Table 2 measures copies, not
    # cached loads): charge via the config model directly for sub-line
    # sizes, via the mapping otherwise.
    if size >= 256:
        before = meter.ns
        mapped.write(0, b"\xAA" * size)
        cxl_write = meter.ns - before
        before = meter.ns
        mapped.read(0, size)
        cxl_read = meter.ns - before
    else:
        cxl_write = config.cxl_write_ns(size)
        cxl_read = config.cxl_read_ns(size)

    return TransferLatency(
        size=size,
        rdma_write_us=rdma_write / 1e3,
        cxl_write_us=cxl_write / 1e3,
        rdma_read_us=rdma_read / 1e3,
        cxl_read_us=cxl_read / 1e3,
    )


def table2_rows() -> list[tuple[int, float, float, float, float, float, float, float, float]]:
    """(size, then measured/paper pairs for each of the 4 columns)."""
    rows = []
    for size, paper in TABLE2_PAPER.items():
        measured = measure_transfer_latency(size)
        rows.append(
            (
                size,
                measured.rdma_write_us,
                paper[0],
                measured.cxl_write_us,
                paper[1],
                measured.rdma_read_us,
                paper[2],
                measured.cxl_read_us,
                paper[3],
            )
        )
    return rows
