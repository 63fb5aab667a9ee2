"""Durable page storage.

The cloud storage layer under a PolarDB-style database: pages are read
and written at page granularity over the storage network. Contents are
durable — they survive any host crash. Latency and bandwidth charges go
through the engine's :class:`~repro.hardware.memory.AccessMeter` against
the host's ``storage`` pipe.

Durability is *not* atomicity: a crash in the middle of
:meth:`PageStore.write_page` leaves a **torn page** — a prefix of
512-byte sectors from the new image over the remainder of the old one,
exactly the partial-write hazard real storage devices expose. The fault
injector's ``pagestore.write_page`` crash point drives this, so recovery
gets exercised against genuinely torn bytes rather than an all-or-
nothing model.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from ..hardware.memory import AccessMeter
from ..obs.probes import PROBES
from ..sim.latency import LatencyConfig

__all__ = ["PageStore", "SECTOR_SIZE"]

SECTOR_SIZE = 512


class PageStore:
    """A durable page_id → page-image map with metered I/O."""

    def __init__(
        self,
        page_size: int,
        meter: Optional[AccessMeter] = None,
        config: Optional[LatencyConfig] = None,
    ) -> None:
        self.page_size = page_size
        self.meter = meter
        self.config = config or LatencyConfig()
        self._pages: dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0
        self.torn_writes = 0

    def attach_meter(self, meter: AccessMeter) -> None:
        """Re-bind the meter (a restarted engine brings a fresh one)."""
        self.meter = meter

    def exists(self, page_id: int) -> bool:
        return page_id in self._pages

    def read_page(self, page_id: int) -> bytes:
        """Read a page image; charges one storage read."""
        try:
            image = self._pages[page_id]
        except KeyError:
            raise KeyError(f"page {page_id} not in storage") from None
        self.reads += 1
        if self.meter is not None:
            self.meter.charge_transfer(
                "storage", self.page_size, base_ns=self.config.storage_read_base_ns
            )
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("store.page_reads")
            tracer.count("store.read_bytes", self.page_size)
        spans = PROBES.spans
        if spans is not None:
            spans.record(
                "pagestore_io",
                "read_page",
                ns=self.config.storage_read_base_ns,
                page=page_id,
            )
        return image

    def write_page(self, page_id: int, image: bytes) -> None:
        """Durably write a page image; charges one storage write."""
        if len(image) != self.page_size:
            raise ValueError(
                f"page image is {len(image)} bytes, expected {self.page_size}"
            )
        injector = PROBES.injector
        if injector is not None:
            injector.point(
                "pagestore.write_page",
                torn=lambda rng: self._tear_write(page_id, bytes(image), rng),
            )
        self._pages[page_id] = bytes(image)
        self.writes += 1
        if self.meter is not None:
            self.meter.charge_transfer(
                "storage", self.page_size, base_ns=self.config.storage_write_base_ns
            )
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("store.page_writes")
            tracer.count("store.write_bytes", self.page_size)
        spans = PROBES.spans
        if spans is not None:
            spans.record(
                "pagestore_io",
                "write_page",
                ns=self.config.storage_write_base_ns,
                page=page_id,
            )

    def _tear_write(self, page_id: int, image: bytes, rng: random.Random) -> None:
        """Crash mid-write: persist a sector-granular prefix of ``image``.

        The tail keeps the previous durable contents (zeros when the
        page never existed — sectors the device had not yet written).
        """
        n_sectors = self.page_size // SECTOR_SIZE
        done = rng.randrange(0, n_sectors)  # how many sectors landed
        old = self._pages.get(page_id, b"\x00" * self.page_size)
        cut = done * SECTOR_SIZE
        self._pages[page_id] = image[:cut] + old[cut:]
        self.torn_writes += 1

    def read_page_unmetered(self, page_id: int) -> bytes:
        """Functional read that charges nothing and reports to no
        instrument. The fusion server, log retirement and the RDMA DBP
        server read storage through it and charge their caller's meter
        themselves; the remote-memory preload of a world build is no
        simulated work and charges nothing."""
        return self._pages[page_id]

    def page_ids(self) -> Iterator[int]:
        return iter(self._pages)

    def snapshot(self) -> tuple:
        # Page images are immutable ``bytes``: image and clones share them.
        return dict(self._pages), self.reads, self.writes, self.torn_writes

    def restore(self, state: tuple) -> None:
        pages, self.reads, self.writes, self.torn_writes = state
        self._pages.clear()  # in place: sharing nodes alias this dict
        self._pages.update(pages)

    def __len__(self) -> int:
        return len(self._pages)
