"""CXL switch, memory devices, and fabric topology.

Models the paper's deployment (§2.3, Fig. 5): a switch box holding XConn
CXL 2.0 switches, each connected over x16 lanes to a CXL memory box of
DDR5 devices (up to 16 TB per pool), and to the hosts. Switch and memory
box have independent power supply units, so the pool's contents survive
host crashes — the property PolarRecv is built on.

The fabric exposes:

* one non-volatile :class:`~repro.hardware.memory.MemoryRegion` per pool
  (devices are interleaved; software sees one physical address space),
* a shared switch bandwidth pipe (2 TB/s, never a practical bottleneck),
* a per-host x16 link pipe (the realistic per-host ceiling).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.probes import PROBES
from ..sim.core import Simulator
from ..sim.latency import LatencyConfig
from ..sim.resources import Pipe
from .memory import MemoryRegion

__all__ = ["CxlMemoryDevice", "CxlSwitch", "CxlFabric"]


@dataclass(frozen=True)
class CxlMemoryDevice:
    """One CXL memory expander module in the memory box."""

    name: str
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("device capacity must be positive")


class CxlSwitch:
    """A CXL 2.0 switch chip: ports plus a switching-capacity pipe."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth: float,
        max_ports: int = 32,
    ) -> None:
        self.sim = sim
        self.name = name
        self.max_ports = max_ports
        self.pipe = Pipe(sim, bandwidth, name=f"{name}.switch")
        self._ports_used = 0

    def connect(self, what: str) -> None:
        """Claim a switch port for a host or device link."""
        if self._ports_used >= self.max_ports:
            raise RuntimeError(
                f"switch {self.name!r} out of ports connecting {what!r}"
            )
        self._ports_used += 1


class CxlFabric:
    """A switch plus its attached memory devices: one shareable pool.

    ``region`` is the pool's physical address space. It is non-volatile
    with respect to *host* crashes; only :meth:`power_fail_pool` (a
    failure of the memory box itself, outside the paper's fault model)
    destroys it.
    """

    MAX_POOL_BYTES = 16 << 40  # 16 TB per pool (Fig. 5)

    def __init__(
        self,
        sim: Simulator,
        name: str = "cxl0",
        devices: list[CxlMemoryDevice] | None = None,
        config: LatencyConfig | None = None,
        max_ports: int = 32,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or LatencyConfig()
        if devices is None:
            # Paper testbed: 8 DDR5 modules totalling 2 TB. The functional
            # region below is sized by what experiments actually map, so
            # the nominal capacity is bookkeeping, not a buffer.
            devices = [
                CxlMemoryDevice(f"{name}.mem{i}", 256 << 30) for i in range(8)
            ]
        self.devices = list(devices)
        self.capacity = sum(device.capacity for device in self.devices)
        if self.capacity > self.MAX_POOL_BYTES:
            raise ValueError("pool exceeds 16 TB switch limit")
        # ``max_ports`` above the default 32 models a wider switch (more,
        # narrower ports on the same chip, as shipping CXL 2.0 switches
        # bifurcate) — the switching-capacity pipe stays the shared
        # bottleneck, so a bigger fleet still contends for the same
        # aggregate bandwidth. Port count never buys capacity here.
        self.switch = CxlSwitch(
            sim,
            f"{name}.sw",
            self.config.cxl_switch_bandwidth,
            max_ports=max_ports,
        )
        for device in self.devices:
            self.switch.connect(device.name)
        self._region: MemoryRegion | None = None
        self._mapped_bytes = 0
        self._host_links: dict[str, Pipe] = {}

    # -- address space ----------------------------------------------------------

    def map_pool(self, nbytes: int) -> MemoryRegion:
        """Materialize the first ``nbytes`` of the pool as a region.

        Experiments map only the span they may touch, not the nominal
        2 TB. The region is created once; later calls must fit inside it.
        """
        if nbytes <= 0 or nbytes > self.capacity:
            raise ValueError(
                f"cannot map {nbytes} bytes of a {self.capacity}-byte pool"
            )
        if self._region is None:
            self._region = MemoryRegion(f"{self.name}.pool", nbytes, volatile=False)
            self._mapped_bytes = nbytes
        elif nbytes > self._mapped_bytes:
            raise ValueError(
                f"pool already mapped at {self._mapped_bytes} bytes; "
                f"cannot grow to {nbytes}"
            )
        return self._region

    @property
    def region(self) -> MemoryRegion:
        if self._region is None:
            raise RuntimeError("fabric pool not mapped yet; call map_pool()")
        return self._region

    # -- host connectivity --------------------------------------------------------

    def host_link(self, host_name: str) -> Pipe:
        """The per-host x16 CXL link pipe (created on first use)."""
        pipe = self._host_links.get(host_name)
        if pipe is None:
            self.switch.connect(host_name)
            pipe = Pipe(
                self.sim,
                self.config.cxl_host_link_bandwidth,
                name=f"{self.name}.link.{host_name}",
            )
            self._host_links[host_name] = pipe
            tracer = PROBES.tracer
            if tracer is not None:
                tracer.count("cxl.host_links")
                tracer.emit(
                    "cxl", "host_link", fabric=self.name, host=host_name
                )
        return pipe

    # -- fault injection ------------------------------------------------------------

    def power_fail_pool(self) -> None:
        """Fail the memory box itself (not part of the paper's fault model;
        provided for failure-injection tests)."""
        if self._region is not None:
            # The pool region is declared non-volatile; a box failure
            # overrides that declaration. The pool comes back zeroed.
            self._region.volatile = True
            self._region.power_fail()
            self._region.power_restore()
            self._region.volatile = False
            tracer = PROBES.tracer
            if tracer is not None:
                tracer.emit("cxl", "pool_power_fail", fabric=self.name)
