"""The buffer fusion server and the distributed page-lock service (§3.3).

The buffer fusion server owns the distributed buffer pool (DBP)
metadata: which CXL page slot holds which page, which nodes have the
page active, each active node's invalid/removal flag addresses, and the
DBP-level LRU for background recycling. Nodes talk to it over RPC
(charged per call); flag pushes are single CXL stores.

The page-lock service provides the distributed read/write page locks
that both the CXL and the RDMA sharing designs rely on for concurrency
control (PolarDB-MP style). Locks are simulation resources, so
contention shows up as virtual-time waiting — the effect that caps
throughput at high shared-data percentages in Figures 11–13.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional

from ..db.constants import PAGE_SIZE
from ..faults.injector import crash_point
from ..hardware.memory import AccessMeter, MemoryRegion
from ..obs.probes import PROBES
from ..sim.core import Simulator
from ..sim.resources import RWLock
from ..sim.latency import LatencyConfig
from ..storage.pagestore import PageStore
from ..storage.wal import RedoLog
from .coherency import set_remote_flag
from .directory import SharerDirectory
from .recovery import apply_redo_to_image

__all__ = [
    "PageLockService",
    "BackoffPolicy",
    "BufferFusionServer",
    "FusionEntry",
    "FusionUnavailableError",
    "RpcExhaustedError",
]


class FusionUnavailableError(RuntimeError):
    """An RPC to the buffer fusion server timed out (server down/partition)."""


class RpcExhaustedError(FusionUnavailableError):
    """A fusion RPC stayed lost through the whole retry budget.

    Raised by the node-side retry layer once its :class:`BackoffPolicy`
    runs out of attempts or time: the caller sees one typed error
    carrying the totals instead of the last transient
    :class:`FusionUnavailableError`. Subclasses it so existing handlers
    of the transient error still catch the exhausted form.
    """

    def __init__(self, op: str, page_id: int, attempts: int, spent_ns: float) -> None:
        super().__init__(
            f"{op}({page_id}): fusion RPC lost {attempts} consecutive "
            f"times ({spent_ns / 1e6:.2f} ms of timeouts+backoff); giving up"
        )
        self.op = op
        self.page_id = page_id
        self.attempts = attempts
        self.spent_ns = spent_ns


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with attempt and total-time budgets.

    ``max_attempts`` counts *calls*, not retries: the default derived
    from :class:`~repro.sim.latency.LatencyConfig` (``rpc_max_retries``
    retries) allows ``rpc_max_retries + 1`` calls in total, matching the
    retry arithmetic the sharing path always had.
    """

    timeout_ns: float = 1_000_000.0
    base_backoff_ns: float = 500_000.0
    max_attempts: int = 4
    cap_backoff_ns: float = 8_000_000.0
    total_budget_ns: float = 64_000_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @classmethod
    def from_latency(cls, config: LatencyConfig) -> "BackoffPolicy":
        """The policy the stock RPC constants imply (default node policy)."""
        return cls(
            timeout_ns=config.rpc_timeout_ns,
            base_backoff_ns=config.rpc_retry_backoff_ns,
            max_attempts=config.rpc_max_retries + 1,
        )

    def backoff_ns(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (1-based), capped."""
        return min(self.cap_backoff_ns, self.base_backoff_ns * (2 ** (retry_index - 1)))

    def next_wait_ns(self, attempts_done: int, spent_ns: float) -> float | None:
        """Wait (timeout burned + backoff) before the next attempt.

        Returns ``None`` when the policy is exhausted — either
        ``attempts_done`` used up the attempt budget, or charging the
        next wait would blow the per-op total time budget.
        """
        if attempts_done >= self.max_attempts:
            return None
        wait = self.timeout_ns + self.backoff_ns(attempts_done)
        if spent_ns + wait > self.total_budget_ns:
            return None
        return wait


class PageLockService:
    """Distributed page read/write locks, one RWLock per page id."""

    def __init__(self, sim: Simulator, config: Optional[LatencyConfig] = None) -> None:
        self.sim = sim
        self.config = config or LatencyConfig()
        self._locks: dict[int, RWLock] = {}
        self.acquires = 0

    def _rwlock(self, page_id: int) -> RWLock:
        lock = self._locks.get(page_id)
        if lock is None:
            lock = RWLock(self.sim, name=f"page{page_id}")
            self._locks[page_id] = lock
        return lock

    def lock(self, page_id: int, write: bool) -> Generator:
        """Process step: acquire the page's write or read lock (RPC + wait)."""
        self.acquires += 1
        yield self.sim.timeout(int(self.config.lock_rpc_ns))
        lock = self._rwlock(page_id)
        blocked = lock.write_would_block() if write else lock.read_would_block()
        ms = PROBES.memsan
        if ms is not None:
            ms.lock_requested(page_id)
        yield lock.acquire_write() if write else lock.acquire_read()
        if blocked:
            # The thread slept; pay the reschedule/context-switch cost.
            yield self.sim.timeout(int(self.config.lock_wakeup_ns))

    def unlock(self, page_id: int, write: bool) -> None:
        lock = self._rwlock(page_id)
        if write:
            lock.release_write()
        else:
            lock.release_read()

    def is_held(self, page_id: int) -> bool:
        """Whether anyone holds the page's lock, for read or write."""
        lock = self._locks.get(page_id)
        return lock is not None and lock.held

    def force_release_write(self, page_id: int) -> None:
        """Failover: break the write lock of a node that died holding it."""
        lock = self._locks.get(page_id)
        if lock is not None:
            lock.force_release_write()

    def force_release_read(self, page_id: int) -> None:
        """Failover: drop one dead reader of the page's lock."""
        lock = self._locks.get(page_id)
        if lock is not None:
            lock.force_release_read()

    @property
    def contended_acquires(self) -> int:
        return sum(lock.contended_acquires for lock in self._locks.values())


@dataclass
class FusionEntry:
    """DBP metadata for one page."""

    slot: int
    dirty: bool = False  # DBP copy newer than storage
    # node_id -> (invalid flag addr, removal flag addr)
    active: dict[str, tuple[int, int]] = field(default_factory=dict)


class BufferFusionServer:
    """Owns DBP page slots in CXL memory and their metadata."""

    def __init__(
        self,
        region: MemoryRegion,
        pages_base: int,
        n_slots: int,
        page_store: PageStore,
        config: Optional[LatencyConfig] = None,
        service: str = "fusion",
    ) -> None:
        if pages_base + n_slots * PAGE_SIZE > region.size:
            raise ValueError("page slots outside the region")
        self.region = region
        self.pages_base = pages_base
        self.n_slots = n_slots
        self.page_store = page_store
        self.config = config or LatencyConfig()
        # MemSan sync-clock name for this server's RPCs. A sharded tier
        # gives each shard a distinct service ("fusion/0", "fusion/1" ...)
        # so happens-before edges are per-shard, matching the real
        # communication pattern (a node only syncs with a page's owner).
        self.service = service
        self._entries: OrderedDict[int, FusionEntry] = OrderedDict()  # LRU order
        self._free = list(range(n_slots - 1, -1, -1))
        # Per-page sharer directory: which nodes hold *valid* cached
        # lines. Write release pushes invalid flags only to these (and
        # drops them); nodes rejoin via the reshare RPC after clearing
        # their flag. Invalidation cost therefore scales with the number
        # of actual sharers, not cluster size.
        self.directory = SharerDirectory()
        self.rpcs = 0
        self.pages_loaded = 0
        self.pages_recycled = 0
        self.invalidations_pushed = 0
        self.reshares = 0
        # TEST-ONLY mutation switch for the memsan self-tests (see
        # tests/analysis/test_memsan_protocol.py): drop the invalid-flag
        # pushes on write release, leaving readers with stale caches.
        self._mutate_skip_invalidate = False

    # -- node RPCs -----------------------------------------------------------------------

    def request_page(
        self,
        page_id: int,
        node_id: str,
        invalid_addr: int,
        removal_addr: int,
        meter: AccessMeter,
    ) -> int:
        """RPC: register interest in a page; returns its data offset.

        Loads the page from storage into a DBP slot on first touch
        (charged to the requesting node), recycling cold slots if the
        free list is empty.

        Raises :class:`FusionUnavailableError` when the injector has an
        armed RPC failure for this call — the server never saw the
        request; the node times out and retries with backoff.
        """
        injector = PROBES.injector
        if injector is not None and injector.take_rpc_failure("fusion.request_page"):
            raise FusionUnavailableError(
                f"request_page({page_id}) from {node_id!r}: fusion server "
                "did not respond"
            )
        self.rpcs += 1
        meter.charge_ns(self.config.rpc_base_ns)
        meter.count("fusion_rpcs")
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("fusion.rpcs")
        ms = PROBES.memsan
        if ms is not None:
            ms.rpc_acquire(self.service)
        try:
            entry = self._entries.get(page_id)
            if entry is None:
                slot = self._claim_slot(meter)
                image = self.page_store.read_page_unmetered(page_id)
                meter.charge_transfer(
                    "storage", PAGE_SIZE, base_ns=self.config.storage_read_base_ns
                )
                self.region.write(self.data_offset_of_slot(slot), image)
                meter.charge_ns(self.config.cxl_write_ns(PAGE_SIZE))
                meter.charge_transfer("cxl", PAGE_SIZE)
                # Crash (of the requesting node) here: the page sits in its
                # slot but no node is registered for it yet.
                crash_point("fusion.request.loaded")
                entry = FusionEntry(slot)
                self._entries[page_id] = entry
                self.pages_loaded += 1
                if tracer is not None:
                    tracer.count("fusion.pages_loaded")
            self._entries.move_to_end(page_id)
            entry.active[node_id] = (invalid_addr, removal_addr)
            if invalid_addr:
                # Directory add-on-fetch. Address-0 registrants (hardware-
                # coherent mode) have no flag to target, so they are never
                # directory members.
                self.directory.add(page_id, node_id)
            mp = PROBES.metrics
            if mp is not None:
                mp.gauge(
                    "fusion.resident_pages",
                    float(len(self._entries)),
                    service=self.service,
                )
                mp.gauge(
                    "fusion.free_slots", float(len(self._free)), service=self.service
                )
                mp.gauge(
                    "fusion.directory_pages",
                    float(self.directory.page_count()),
                    service=self.service,
                )
                mp.gauge(
                    "fusion.directory_members",
                    float(self.directory.membership_count()),
                    service=self.service,
                )
            return self.data_offset_of_slot(entry.slot)
        finally:
            if ms is not None:
                ms.rpc_release(self.service)

    def note_touch(self, page_id: int) -> None:
        """Cheap LRU maintenance on the DBP (no RPC — piggybacked)."""
        if page_id in self._entries:
            self._entries.move_to_end(page_id)

    def on_write_release(
        self, page_id: int, writer_node: str, meter: AccessMeter
    ) -> int:
        """A node released a write lock after flushing its cache lines.

        Sets the ``invalid`` flag of every *other current sharer* in the
        page's directory — one CXL store each — marks the DBP copy dirty
        versus storage, and drops each flagged node from the directory
        (it rejoins via :meth:`reshare` once it observes and clears the
        flag). Returns the number of invalidations pushed — bounded by
        the number of nodes actively sharing the page, not cluster size.

        Raises :class:`FusionUnavailableError` when the injector has an
        armed RPC failure for this call — checked before any server
        state changes, exactly as for :meth:`request_page`: the server
        never saw the release and the node retries it.
        """
        injector = PROBES.injector
        if injector is not None and injector.take_rpc_failure("fusion.on_write_release"):
            raise FusionUnavailableError(
                f"on_write_release({page_id}) from {writer_node!r}: fusion "
                "server did not respond"
            )
        entry = self._entries.get(page_id)
        if entry is None:
            raise KeyError(f"page {page_id} not in the DBP")
        entry.dirty = True
        # Crash (of the writer node) here: its lines are flushed to CXL
        # but no other node was told — failover pushes the flags.
        crash_point("fusion.release.dirty")
        ms = PROBES.memsan
        if ms is not None:
            ms.rpc_acquire(self.service)
        try:
            pushed = 0
            tracer = PROBES.tracer
            # The writer flushed fresh lines; make sure it is recorded as
            # a sharer regardless of how it entered the critical section.
            self.directory.add(page_id, writer_node)
            for node_id in self.directory.sharers(page_id):
                if node_id == writer_node:
                    continue
                invalid_addr, _ = entry.active.get(node_id, (0, 0))
                if not invalid_addr:
                    # Address 0 = the node registered no flags (hardware-
                    # coherent mode, repro.core.hw_coherent). Not expected
                    # in the directory, but skip defensively.
                    continue
                if self._mutate_skip_invalidate:
                    continue
                set_remote_flag(self.region, invalid_addr, meter, self.config)
                # Drop-on-invalidate: the sticky flag byte keeps the node
                # safe until it reshares; later writers stop pushing to it.
                self.directory.drop(page_id, node_id)
                pushed += 1
                if tracer is not None:
                    tracer.emit(
                        "fusion",
                        "invalidate_push",
                        page=page_id,
                        writer=writer_node,
                        target=node_id,
                    )
            self.invalidations_pushed += pushed
            if tracer is not None and pushed:
                tracer.count("fusion.invalidations_pushed", pushed)
            return pushed
        finally:
            if ms is not None:
                ms.rpc_release(self.service)

    def reshare(self, page_id: int, node_id: str, meter: AccessMeter) -> bool:
        """RPC: rejoin the page's sharer directory after an invalidation.

        A node that observed and cleared its invalid flag calls this
        *before* re-caching any line of the page. The RPC's sync with the
        owning shard is load-bearing for coherency, not just bookkeeping:
        it carries the happens-before edge from every write release that
        happened since this node was dropped from the directory (those
        writers synced with the same shard), so the re-reader's cached
        lines are ordered after all flushed writes it missed flags for.

        Returns whether the node rejoined (False if the page was recycled
        or the node is no longer registered — the next ``request_page``
        re-establishes both).

        Raises :class:`FusionUnavailableError` on an armed RPC failure,
        exactly as :meth:`request_page`.
        """
        injector = PROBES.injector
        if injector is not None and injector.take_rpc_failure("fusion.reshare"):
            raise FusionUnavailableError(
                f"reshare({page_id}) from {node_id!r}: fusion server "
                "did not respond"
            )
        self.rpcs += 1
        self.reshares += 1
        meter.charge_ns(self.config.rpc_base_ns)
        meter.count("fusion_rpcs")
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("fusion.rpcs")
            tracer.count("fusion.reshares")
        ms = PROBES.memsan
        if ms is not None:
            ms.rpc_acquire(self.service)
        try:
            entry = self._entries.get(page_id)
            if entry is None:
                return False
            invalid_addr, _ = entry.active.get(node_id, (0, 0))
            if not invalid_addr:
                return False
            self.directory.add(page_id, node_id)
            if tracer is not None:
                tracer.emit("fusion", "reshare", page=page_id, node=node_id)
            return True
        finally:
            if ms is not None:
                ms.rpc_release(self.service)

    def deregister(self, page_id: int, node_id: str) -> None:
        entry = self._entries.get(page_id)
        if entry is not None:
            entry.active.pop(node_id, None)
            self.directory.drop(page_id, node_id)

    def deregister_node(self, node_id: str) -> int:
        """Drop a node's registration from every DBP entry.

        The graceful-leave half of fleet membership (failover does the
        same as part of :meth:`recover_node_failure`): after this the
        fusion server never pushes flags at the departed node's slab
        addresses. Returns the number of entries it was registered on.
        """
        dropped = 0
        for entry in self._entries.values():
            if entry.active.pop(node_id, None) is not None:
                dropped += 1
        self.directory.drop_node(node_id)
        return dropped

    # -- failover ----------------------------------------------------------------------

    def recover_node_failure(
        self,
        node_id: str,
        redo_log: RedoLog,
        meter: AccessMeter,
        lock_service: Optional[PageLockService] = None,
        write_locked_pages: Iterable[int] = (),
        read_locked_pages: Iterable[int] = (),
    ) -> int:
        """Clean up after a node died mid-operation (§3.3 failover).

        A page the dead node had write-locked is suspect: its DBP copy
        can hold a *partial* cache-line flush (the node crashed inside
        ``clflush``) or background write-backs of uncommitted lines. Each
        such page is rebuilt from the storage image plus the dead node's
        durable redo records, the rebuilt image is **hardened** back to
        storage (so the page's history no longer depends on the dead
        node's log — the handover a successor writer needs), the
        surviving nodes get invalid flags so they drop any cached lines
        of it, and only then is the write lock force-released. Locks are
        never broken before the page is consistent — a waiting writer
        must not see torn bytes.

        The redo records are **force-applied** (no page-LSN guard): a
        previous failover attempt may have died inside the hardening
        write, leaving a sector-torn storage image whose header LSN
        already reads as new while its tail holds old bytes. Physical
        redo is idempotent, and per page the distributed write lock
        serializes writers, so rewriting every recorded byte range is
        exactly the deterministic fix — which also makes this whole
        method re-entrant: every step can be crashed and re-run (the
        ``fusion.failover.*`` crash points below are swept by
        ``sweep_failover_storm_points``).

        Read locks the node held are simply dropped, and the node is
        deregistered from every DBP entry. Returns the number of pages
        rebuilt.
        """
        # Failover is an operation *of the fusion server*: a node whose
        # first contact with a rebuilt page is a later RPC (it was not
        # registered when the invalid flags were pushed) must still see
        # the rebuilt bytes — the server's reply orders after its own
        # rebuild writes. Acquire at entry, release only on completion:
        # a coordinator that crashes mid-failover publishes nothing.
        ms_rpc = PROBES.memsan
        if ms_rpc is not None:
            ms_rpc.rpc_acquire(self.service)
        records_by_page: dict[int, list] = {}
        for record in redo_log.records_since(redo_log.checkpoint_lsn):
            records_by_page.setdefault(record.page_id, []).append(record)
        rebuilt = 0
        for page_id in write_locked_pages:
            entry = self._entries.get(page_id)
            if entry is not None:
                page_records = records_by_page.get(page_id, [])
                if self.page_store.exists(page_id):
                    image = bytearray(self.page_store.read_page_unmetered(page_id))
                    meter.charge_transfer(
                        "storage",
                        PAGE_SIZE,
                        base_ns=self.config.storage_read_base_ns,
                    )
                elif page_records:
                    image = bytearray(PAGE_SIZE)
                else:
                    # Nothing durable exists for the page; leave the slot.
                    image = None
                if image is not None:
                    apply_redo_to_image(image, page_records, force=True)
                    self.region.write(
                        self.data_offset_of_slot(entry.slot), bytes(image)
                    )
                    meter.charge_ns(self.config.cxl_write_ns(PAGE_SIZE))
                    meter.charge_transfer("cxl", PAGE_SIZE)
                    # Harden the rebuilt page to storage before the lock
                    # breaks: the next writer of this page may be a
                    # different node whose redo log knows nothing of this
                    # history, so storage must be current when ownership
                    # transfers (fleet rolling-crash handover).
                    self.page_store.write_page(page_id, bytes(image))
                    meter.charge_transfer(
                        "storage",
                        PAGE_SIZE,
                        base_ns=self.config.storage_write_base_ns,
                    )
                    entry.dirty = False
                    tracer = PROBES.tracer
                    if tracer is not None:
                        tracer.count("fusion.pages_rebuilt")
                        tracer.emit(
                            "fusion",
                            "failover_rebuild",
                            page=page_id,
                            node=node_id,
                            redo_records=len(page_records),
                        )
                    # Failover pushes conservatively to *every* registrant
                    # with a flag (not just directory members): a previous
                    # failover attempt may have died after dropping a node
                    # from the directory but before its flag store landed.
                    # Re-pushing is idempotent (the flag byte is sticky).
                    for other, (invalid_addr, _) in entry.active.items():
                        if other != node_id and invalid_addr:
                            set_remote_flag(
                                self.region, invalid_addr, meter, self.config
                            )
                            self.directory.drop(page_id, other)
                            self.invalidations_pushed += 1
                            if tracer is not None:
                                tracer.count("fusion.invalidations_pushed")
                                tracer.emit(
                                    "fusion",
                                    "invalidate_push",
                                    page=page_id,
                                    writer=node_id,
                                    target=other,
                                )
                    rebuilt += 1
                    # Crash (of the failover coordinator) here: page
                    # rebuilt and hardened, invalidations pushed, but the
                    # dead node's lock still held — a retry rebuilds the
                    # same image (force-applied redo is idempotent).
                    crash_point("fusion.failover.rebuilt")
            if lock_service is not None:
                lock_service.force_release_write(page_id)
                ms = PROBES.memsan
                if ms is not None:
                    ms.lock_force_released(page_id)
                # Crash here: this lock broken, later pages still locked.
                # force_release_write is a no-op on an unheld lock, so a
                # retry walks the same list safely.
                crash_point("fusion.failover.released")
        if lock_service is not None:
            for page_id in read_locked_pages:
                lock_service.force_release_read(page_id)
        for entry in self._entries.values():
            entry.active.pop(node_id, None)
        # Drop-on-crash: the dead node leaves every page's sharer set.
        self.directory.drop_node(node_id)
        if ms_rpc is not None:
            ms_rpc.rpc_release(self.service)
        # Crash here: the dead node is fully deregistered but the caller
        # never saw the reply; re-running the whole failover is safe.
        crash_point("fusion.failover.done")
        return rebuilt

    # -- background recycling ----------------------------------------------------------------

    def recycle(
        self,
        count: int,
        meter: AccessMeter,
        lock_service: Optional[PageLockService] = None,
    ) -> list[int]:
        """Move up to ``count`` cold pages back to the free list.

        Skips pages whose distributed lock is currently held (the paper's
        exclusive-lock guard). Dirty pages are written to storage first.
        Sets the ``removal`` flag for every node that had the page
        active. Returns the recycled page ids.
        """
        ms = PROBES.memsan
        if ms is not None:
            ms.rpc_acquire(self.service)
        try:
            recycled: list[int] = []
            for page_id in list(self._entries):
                if len(recycled) >= count:
                    break
                if lock_service is not None and lock_service.is_held(page_id):
                    continue
                entry = self._entries.pop(page_id)
                if entry.dirty:
                    image = self.region.read(
                        self.data_offset_of_slot(entry.slot), PAGE_SIZE
                    )
                    self.page_store.write_page(page_id, image)
                    # Crash here: page durably written, removal flags not yet
                    # pushed — nodes keep a valid (if recycled-from-under-
                    # them-later) address until the next recycle pass.
                    crash_point("fusion.recycle.written")
                tracer = PROBES.tracer
                for node_id, (_, removal_addr) in entry.active.items():
                    if removal_addr:
                        set_remote_flag(self.region, removal_addr, meter, self.config)
                        if tracer is not None:
                            tracer.emit(
                                "fusion",
                                "removal_push",
                                page=page_id,
                                target=node_id,
                            )
                self.directory.drop_page(page_id)
                self._free.append(entry.slot)
                recycled.append(page_id)
                self.pages_recycled += 1
                if tracer is not None:
                    tracer.count("fusion.pages_recycled")
            return recycled
        finally:
            if ms is not None:
                ms.rpc_release(self.service)

    # -- helpers -----------------------------------------------------------------------------

    def data_offset_of_slot(self, slot: int) -> int:
        return self.pages_base + slot * PAGE_SIZE

    def has_page(self, page_id: int) -> bool:
        return page_id in self._entries

    def entry_of(self, page_id: int) -> FusionEntry:
        return self._entries[page_id]

    def _claim_slot(self, meter: AccessMeter) -> int:
        if self._free:
            return self._free.pop()
        recycled = self.recycle(max(1, self.n_slots // 64), meter)
        if not recycled or not self._free:
            raise RuntimeError("DBP out of page slots")
        return self._free.pop()

    @property
    def resident_count(self) -> int:
        return len(self._entries)
