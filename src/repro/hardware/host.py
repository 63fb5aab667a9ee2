"""Hosts and cluster topology.

A :class:`Host` is one physical machine: volatile DRAM, an RDMA NIC, a
CXL link onto the fabric, plus pipes for storage, WAL-device, and client
network traffic. A :class:`Cluster` wires hosts to a shared
:class:`~repro.hardware.cxl.CxlFabric` and to remote-memory nodes used by
the RDMA baselines.

Crash semantics live here: ``host.crash()`` poisons every DRAM region on
the host. CXL pool contents (owned by the fabric) and remote-memory
regions (owned by other hosts) survive, exactly as in the paper's
fault model.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Simulator
from ..sim.latency import LatencyConfig
from ..sim.resources import Pipe
from .cache import LineCacheModel
from .cxl import CxlFabric
from .memory import AccessMeter, MappedMemory, MemoryRegion, MemoryTiming
from .rdma import RdmaNic

__all__ = ["Host", "Cluster", "LLC_HIT_NS"]

# Latency of an access that hits in the CPU cache hierarchy.
LLC_HIT_NS = 18.0


def dram_timing(config: LatencyConfig, remote_numa: bool = False) -> MemoryTiming:
    """Local-socket (or cross-socket) DRAM timing."""
    miss = config.dram_remote_ns if remote_numa else config.dram_local_ns
    return MemoryTiming(
        miss_ns=miss,
        hit_ns=LLC_HIT_NS,
        read_burst_base_ns=miss,
        read_burst_ns_per_byte=config.dram_copy_ns_per_byte,
        write_burst_base_ns=miss,
        write_burst_ns_per_byte=config.dram_copy_ns_per_byte,
        pipe_key=None,
    )


def cxl_timing(
    config: LatencyConfig,
    remote_numa: bool = False,
    through_switch: bool = True,
) -> MemoryTiming:
    """Switch-attached (or direct-attached) CXL memory timing."""
    if through_switch:
        miss = config.cxl_switch_remote_ns if remote_numa else config.cxl_switch_local_ns
    else:
        miss = config.cxl_direct_remote_ns if remote_numa else config.cxl_direct_local_ns
    return MemoryTiming(
        miss_ns=miss,
        hit_ns=LLC_HIT_NS,
        read_burst_base_ns=config.cxl_read_base_ns,
        read_burst_ns_per_byte=config.cxl_read_ns_per_byte,
        write_burst_base_ns=config.cxl_write_base_ns,
        write_burst_ns_per_byte=config.cxl_write_ns_per_byte,
        pipe_key="cxl" if through_switch else None,
    )


class Host:
    """One physical machine in the cluster."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: Optional[LatencyConfig] = None,
        fabric: Optional[CxlFabric] = None,
        with_rdma: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or LatencyConfig()
        self.fabric = fabric
        self.nic: Optional[RdmaNic] = (
            RdmaNic(sim, f"{name}.nic", self.config) if with_rdma else None
        )
        self.storage_pipe = Pipe(
            sim, self.config.storage_bandwidth, name=f"{name}.storage"
        )
        self.wal_pipe = Pipe(
            sim, self.config.wal_device_bandwidth, name=f"{name}.wal"
        )
        self.client_pipe = Pipe(
            sim, self.config.client_network_bandwidth, name=f"{name}.client"
        )
        self.dram_regions: list[MemoryRegion] = []
        self.caches: list = []  # CPU caches whose contents die with the host
        self._dram_counter = 0
        self.pipes: dict[str, list[Pipe]] = {
            "storage": [self.storage_pipe],
            "wal": [self.wal_pipe],
            "client": [self.client_pipe],
        }
        if self.nic is not None:
            self.pipes["rdma"] = [self.nic.data_pipe]
            self.pipes["rdma_ops"] = [self.nic.ops_pipe]
        if fabric is not None:
            self.pipes["cxl"] = [fabric.host_link(name), fabric.switch.pipe]

    # -- memory ------------------------------------------------------------------

    def alloc_dram(self, name: str, size: int) -> MemoryRegion:
        """Allocate a volatile DRAM region on this host."""
        self._dram_counter += 1
        region = MemoryRegion(
            f"{self.name}.dram.{name}.{self._dram_counter}", size, volatile=True
        )
        self.dram_regions.append(region)
        return region

    def map_dram(
        self,
        region: MemoryRegion,
        meter: AccessMeter,
        line_cache: LineCacheModel,
    ) -> MappedMemory:
        self.register_cache(line_cache)
        return MappedMemory(
            region,
            dram_timing(self.config),
            meter,
            line_cache,
            counter_key="dram",
        )

    def map_cxl(
        self,
        region: MemoryRegion,
        meter: AccessMeter,
        line_cache: LineCacheModel,
    ) -> MappedMemory:
        self.register_cache(line_cache)
        return MappedMemory(
            region,
            cxl_timing(self.config),
            meter,
            line_cache,
            counter_key="cxl",
        )

    def register_cache(self, cache) -> None:
        """Track a CPU cache (timing or functional) living on this host.

        SRAM does not survive power loss: :meth:`crash` must drop every
        cached line, or a restarted host would warm-hit lines it never
        re-fetched — and a functional :class:`~repro.hardware.cache.CpuCache`
        would resurrect dirty data that was never written back.
        """
        if all(cache is not existing for existing in self.caches):
            self.caches.append(cache)

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Every pipe this host charges (its own, and the fabric link and
        switch it reaches) plus the DRAM naming counter. Regions and
        caches belong to whoever allocated them."""
        pipes = {
            key: tuple(pipe.snapshot() for pipe in pipes)
            for key, pipes in self.pipes.items()
        }
        return pipes, self._dram_counter

    def restore(self, state: tuple) -> None:
        pipes, self._dram_counter = state
        for key, states in pipes.items():
            for pipe, pipe_state in zip(self.pipes[key], states):
                pipe.restore(pipe_state)

    # -- fault injection -----------------------------------------------------------

    def crash(self) -> None:
        """Power-fail the host: DRAM poisoned, every CPU cache dropped."""
        for region in self.dram_regions:
            region.power_fail()
        for cache in self.caches:
            if hasattr(cache, "drop_all"):
                cache.drop_all()  # functional: dirty lines die unwritten
            else:
                cache.clear()  # timing-only: no warm hits after restart

    def restart(self) -> None:
        """Bring the host back with zeroed DRAM and cold caches."""
        for region in self.dram_regions:
            region.power_restore()


class Cluster:
    """Hosts + one or more CXL fabrics + remote-memory nodes.

    The paper's rack (Fig. 5) houses two switch-backed memory pools;
    :meth:`add_fabric` models additional independent pools, each with
    its own switch, capacity and host links.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[LatencyConfig] = None,
        with_fabric: bool = True,
        switch_ports: int = 32,
    ) -> None:
        self.sim = sim
        self.config = config or LatencyConfig()
        self.switch_ports = switch_ports
        self.fabrics: list[CxlFabric] = []
        if with_fabric:
            self.fabrics.append(
                CxlFabric(
                    sim, "cxl0", config=self.config, max_ports=switch_ports
                )
            )
        self.hosts: dict[str, Host] = {}
        self._remote_regions: dict[str, MemoryRegion] = {}

    @property
    def fabric(self) -> Optional[CxlFabric]:
        """The first (default) pool; None if the cluster has no fabric."""
        return self.fabrics[0] if self.fabrics else None

    def add_fabric(self, name: Optional[str] = None) -> CxlFabric:
        """Add another independent switch + memory-box pool."""
        fabric = CxlFabric(
            self.sim,
            name or f"cxl{len(self.fabrics)}",
            config=self.config,
            max_ports=self.switch_ports,
        )
        self.fabrics.append(fabric)
        return fabric

    def add_host(
        self,
        name: str,
        with_rdma: bool = True,
        fabric: Optional[CxlFabric] = None,
    ) -> Host:
        """Add a host, attached to ``fabric`` (default: the first pool)."""
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(
            self.sim,
            name,
            config=self.config,
            fabric=fabric or self.fabric,
            with_rdma=with_rdma,
        )
        self.hosts[name] = host
        return host

    def alloc_remote_memory(self, name: str, size: int) -> MemoryRegion:
        """Memory on a dedicated memory node, reached over RDMA.

        Non-volatile with respect to *compute host* crashes: the memory
        node keeps running, which is why RDMA-based recovery can fetch
        pages from disaggregated memory (§2.2 item 2).
        """
        if name in self._remote_regions:
            raise ValueError(f"duplicate remote memory region {name!r}")
        region = MemoryRegion(f"memnode.{name}", size, volatile=False)
        self._remote_regions[name] = region
        return region

    def close(self) -> None:
        """Unmap every region the cluster owns: each host's DRAM, each
        fabric's pool and the memory nodes'. Idempotent."""
        drams = [region for host in self.hosts.values() for region in host.dram_regions]
        pools = [fabric._region for fabric in self.fabrics if fabric._region is not None]
        for region in [*drams, *pools, *self._remote_regions.values()]:
            region.close()
