"""Per-node coherency flags in CXL memory (§3.3).

CXL 2.0 has no cross-host hardware cache coherency, so the sharing
protocol keeps two one-byte flags per (node, page-metadata entry) in CXL
memory:

* ``invalid`` — set by the buffer fusion server when another node
  modified the page; tells this node to invalidate its CPU cache for
  the page before the next read.
* ``removal`` — set by the fusion server when it recycled the page's
  CXL slot; tells this node its cached CXL address is stale and a new
  one must be requested over RPC.

Flag *stores* (by the fusion server) are single CXL memory stores — "a
few hundred nanoseconds" in the paper. Flag *reads* (by nodes) must not
be served from the node's CPU cache, or a store by the server would
never become visible; they are modeled as uncached CXL reads paying the
switch load latency.
"""

from __future__ import annotations

from typing import Optional

from ..hardware.memory import AccessMeter, MemoryRegion
from ..obs.probes import PROBES
from ..sim.latency import LatencyConfig

__all__ = ["FlagSlab", "FLAG_BYTES_PER_ENTRY", "set_remote_flag"]

FLAG_BYTES_PER_ENTRY = 2
_INVALID = 0
_REMOVAL = 1


def set_remote_flag(
    region: MemoryRegion,
    addr: int,
    meter: Optional[AccessMeter],
    config: LatencyConfig,
    value: bool = True,
) -> None:
    """One CXL store to a flag byte, charged to the acting meter.

    MemSan sees a flag store, not a raw store: the byte goes into the
    region's buffer after the region's own refusals."""
    if region._poisoned or not 0 <= addr < region.size:
        region._refuse(addr, 1)
    region._data[addr] = 1 if value else 0
    region._written[addr >> 16] = 1  # the byte's 64 KB extent
    ms = PROBES.memsan
    if ms is not None:
        ms.flag_store(region.name, addr, value)
    if meter is not None:
        meter.charge_ns(config.cxl_flag_store_ns)
        meter.count("flag_stores")
    tracer = PROBES.tracer
    if tracer is not None:
        tracer.count("coh.flag_stores")


class FlagSlab:
    """One node's array of (invalid, removal) flag pairs in CXL memory."""

    def __init__(
        self,
        region: MemoryRegion,
        base: int,
        n_entries: int,
        meter: AccessMeter,
        config: Optional[LatencyConfig] = None,
    ) -> None:
        if base + n_entries * FLAG_BYTES_PER_ENTRY > region.size:
            raise ValueError("flag slab outside the region")
        self.region = region
        self.base = base
        self.n_entries = n_entries
        self.meter = meter
        self.config = config or LatencyConfig()
        # Flag addresses are fixed at construction; precompute them so
        # the per-access protocol checks (two flag reads per page get)
        # index a list instead of redoing the bounds-checked arithmetic.
        self._invalid_addrs = [
            base + entry * FLAG_BYTES_PER_ENTRY + _INVALID
            for entry in range(n_entries)
        ]
        self._removal_addrs = [
            base + entry * FLAG_BYTES_PER_ENTRY + _REMOVAL
            for entry in range(n_entries)
        ]
        self._flag_read_ns = self.config.cxl_switch_local_ns
        # Flags start clear.
        region.write(base, b"\x00" * (n_entries * FLAG_BYTES_PER_ENTRY))

    # -- addresses registered with the fusion server ---------------------------------

    def invalid_addr(self, entry: int) -> int:
        if entry < 0 or entry >= self.n_entries:
            raise IndexError(f"flag entry {entry} out of range")
        return self._invalid_addrs[entry]

    def removal_addr(self, entry: int) -> int:
        if entry < 0 or entry >= self.n_entries:
            raise IndexError(f"flag entry {entry} out of range")
        return self._removal_addrs[entry]

    # -- node-side reads (uncached CXL loads) ------------------------------------------

    def read_invalid(self, entry: int) -> bool:
        return self._read_flag(self._invalid_addrs, entry)

    def read_removal(self, entry: int) -> bool:
        return self._read_flag(self._removal_addrs, entry)

    def clear_invalid(self, entry: int) -> None:
        set_remote_flag(
            self.region, self.invalid_addr(entry), self.meter, self.config, False
        )

    def clear_removal(self, entry: int) -> None:
        set_remote_flag(
            self.region, self.removal_addr(entry), self.meter, self.config, False
        )

    def clear_all(self) -> int:
        """Scrub every flag pair; returns the number of entries scrubbed.

        Used when a slab extent is handed to a rejoining node (fleet HA
        join path): the dead owner's leftover flags must not leak into
        the successor's protocol state. Goes flag-by-flag through
        :func:`set_remote_flag` — not one bulk region write — so an
        active MemSan sees ordinary flag stores, and each store is
        charged to the (new) owner's meter like any other scrub.
        """
        for entry in range(self.n_entries):
            set_remote_flag(
                self.region, self._invalid_addrs[entry], self.meter, self.config, False
            )
            set_remote_flag(
                self.region, self._removal_addrs[entry], self.meter, self.config, False
            )
        return self.n_entries

    def _read_flag(self, addrs: list[int], entry: int) -> bool:
        """One uncached CXL load of a flag byte — the protocol's check on
        every page access, so it is this frame alone, instrumented or
        not: refuse, charge, count, byte test, then tell what is installed."""
        if not 0 <= entry < self.n_entries:
            raise IndexError(f"flag entry {entry} out of range")
        addr = addrs[entry]
        region = self.region
        # The slab lies inside the region (checked at construction),
        # which leaves lost contents as the one thing to refuse.
        if region._poisoned:
            region._refuse(addr, 1)  # raises
        meter = self.meter
        meter.ns += self._flag_read_ns
        counters = meter.counters
        counters["flag_reads"] = counters.get("flag_reads", 0.0) + 1.0
        value = region._data[addr] != 0
        if PROBES.any:
            tracer, spans, ms = PROBES.tracer, PROBES.spans, PROBES.memsan
            if tracer is not None:
                tracer.count("coh.flag_reads")
            if spans is not None:
                # An uncached CXL load — attributed to the cxl_access bucket
                # of whichever span (page_fix, usually) is doing the read.
                spans.add_ns("cxl_access", self._flag_read_ns)
            if ms is not None:
                ms.flag_read(region.name, addr, value)
        return value
