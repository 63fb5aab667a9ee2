"""The CXL memory manager: multi-tenant pool allocation (§3.1).

The CXL 2.0 switch exposes one big physical pool to every connected
host. To keep tenants (database nodes) from stepping on each other, a
manager process hands out non-overlapping extents: a node RPCs the
manager with a size, gets back an offset, and maps the dax device at
that offset. Allocation happens once at database startup, so its RPC
cost never appears on the query path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults.injector import crash_point
from ..hardware.cxl import CxlFabric
from ..hardware.memory import AccessMeter, MemoryRegion
from ..sim.latency import LatencyConfig

__all__ = ["CxlMemoryManager", "CxlExtent", "OutOfCxlMemoryError"]

_ALIGNMENT = 1 << 21  # 2 MB, huge-page friendly


class OutOfCxlMemoryError(RuntimeError):
    """The pool cannot satisfy an allocation."""


@dataclass(frozen=True)
class CxlExtent:
    """One allocation: [offset, offset + size) of the pool, owned by a client."""

    client_id: str
    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


class CxlMemoryManager:
    """Bump allocator over the fabric pool with ownership tracking."""

    def __init__(
        self,
        fabric: CxlFabric,
        pool_bytes: int,
        config: Optional[LatencyConfig] = None,
    ) -> None:
        self.fabric = fabric
        self.config = config or LatencyConfig()
        self.region: MemoryRegion = fabric.map_pool(pool_bytes)
        self._cursor = 0
        self._extents: dict[str, list[CxlExtent]] = {}

    def allocate(
        self, client_id: str, nbytes: int, meter: Optional[AccessMeter] = None
    ) -> CxlExtent:
        """RPC: reserve ``nbytes`` for ``client_id``; returns the extent.

        Charged as one control-plane RPC on the caller's meter — paid
        once at startup, per the paper.
        """
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        if meter is not None:
            meter.charge_ns(self.config.rpc_base_ns)
            meter.count("cxl_alloc_rpcs")
        aligned = -(-nbytes // _ALIGNMENT) * _ALIGNMENT
        if self._cursor + aligned > self.region.size:
            raise OutOfCxlMemoryError(
                f"pool exhausted: {self._cursor} used, {aligned} requested, "
                f"{self.region.size} mapped"
            )
        extent = CxlExtent(client_id, self._cursor, aligned)
        self._cursor += aligned
        self._extents.setdefault(client_id, []).append(extent)
        # Crash here: extent reserved in the manager, client never saw
        # the reply — the space leaks (bump allocator), nothing corrupts.
        crash_point("memmgr.allocate")
        return extent

    def snapshot(self) -> tuple:
        """The allocator's books and the pool region's contents."""
        return (
            self._cursor,
            {client: tuple(extents) for client, extents in self._extents.items()},
            self.region.snapshot(),
        )

    def restore(self, state: tuple) -> None:
        self._cursor, extents, region = state
        self._extents = {client: list(owned) for client, owned in extents.items()}
        self.region.restore(region)

    def extents_of(self, client_id: str) -> list[CxlExtent]:
        return list(self._extents.get(client_id, []))
