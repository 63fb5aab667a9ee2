"""Node-side data sharing on PolarCXLMem (§3.3).

Each database node runs its normal engine, but its buffer pool —
:class:`SharedCxlBufferPool` — holds **no page copies at all**: only a
page-metadata buffer mapping page ids to CXL addresses handed out by the
buffer fusion server, plus the node's invalid/removal flag entries.
Every page access goes through the node's (functional, write-back) CPU
cache straight onto the shared CXL region.

On each access the protocol of the paper runs:

1. ``removal`` flag set → the fusion server recycled the CXL slot; RPC
   for a fresh address.
2. ``invalid`` flag set → another node modified the page; invalidate
   this node's CPU cache lines for the page and clear the flag, so the
   next loads fetch fresh bytes from CXL.

On write-lock release, the writer clflushes only the *modified* cache
lines (64 B granularity — the paper's headline advantage over RDMA's
16 KB page flush) and the fusion server pushes invalid flags to the
other active nodes with single CXL stores.

:class:`MultiPrimaryNode` packages the distributed-lock + coherency
choreography as simulation-process generators used by the workload
driver — identical code drives the RDMA sharing baseline, which plugs in
a different pool. Every operation is one critical section, written once
in ``MultiPrimaryNode._locked``: look the key's leaf up, take the leaf's
distributed lock (``PageLockService.lock(page, write)``), run the
operation's body, settle its charges, release
(``PageLockService.unlock(page, write)``). ``point_select``,
``range_select`` and ``point_update`` differ only in their bodies; a
writer's body ends with the modified-line flush, so the flush happens
under the lock.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..db.bufferpool import BufferPool
from ..db.constants import PAGE_SIZE
from ..db.engine import Engine
from ..db.page import PageView
from ..faults.injector import InjectedCrash, crash_point
from ..hardware.cache import CacheWindow, CpuCache
from ..hardware.memory import AccessMeter, MemoryRegion
from ..obs.probes import PROBES
from ..sim.latency import CACHE_LINE, LatencyConfig
from ..sim.settle import ChargeSettler
from .coherency import FlagSlab
from .fusion import (
    BackoffPolicy,
    BufferFusionServer,
    FusionUnavailableError,
    PageLockService,
    RpcExhaustedError,
)

__all__ = ["SharedCxlBufferPool", "MultiPrimaryNode"]

_INVALIDATE_LINE_NS = 40.0  # clflush of a clean cached line


class _NodePageMeta:
    """One entry of the node's page metadata buffer."""

    __slots__ = ("entry", "data_offset")

    def __init__(self, entry: int, data_offset: int) -> None:
        self.entry = entry
        self.data_offset = data_offset


class SharedCxlBufferPool(BufferPool):
    """A copy-less buffer pool over the fusion-managed CXL DBP."""

    def __init__(
        self,
        node_id: str,
        fusion: BufferFusionServer,
        region: MemoryRegion,
        cpu_cache: CpuCache,
        flag_slab: FlagSlab,
        meter: AccessMeter,
        config: Optional[LatencyConfig] = None,
    ) -> None:
        self.node_id = node_id
        self.fusion = fusion
        self.region = region
        self.cpu_cache = cpu_cache
        self.flag_slab = flag_slab
        self.meter = meter
        self.config = config or LatencyConfig()
        self.retry_policy = BackoffPolicy.from_latency(self.config)
        self._meta: dict[int, _NodePageMeta] = {}
        self._free_entries = list(range(flag_slab.n_entries - 1, -1, -1))
        self._pins: dict[int, int] = {}
        self.invalidations_observed = 0
        self.removals_observed = 0
        self.rpc_retries = 0
        # TEST-ONLY protocol mutations (memsan self-test; see
        # tests/analysis/test_memsan_protocol.py). Production code never
        # sets these.
        self._mutate_skip_flush = False
        self._mutate_clear_before_invalidate = False

    # -- BufferPool interface --------------------------------------------------------------

    def get_page(self, page_id: int) -> PageView:
        tracer = PROBES.tracer
        spans = PROBES.spans
        span = (
            spans.begin("page_fix", "get", meter=self.meter, page=page_id)
            if spans is not None
            else None
        )
        meta = self._meta.get(page_id)
        if meta is None:
            meta = self._register(page_id)
            if tracer is not None:
                tracer.emit(
                    "sharing",
                    "page_access",
                    node=self.node_id,
                    page=page_id,
                    saw_invalid=False,
                    saw_removal=False,
                    registered=True,
                )
        else:
            saw_removal = self.flag_slab.read_removal(meta.entry)
            if saw_removal:
                # Our CXL address was recycled; fetch a fresh one.
                self.removals_observed += 1
                self.flag_slab.clear_removal(meta.entry)
                self.cpu_cache.invalidate(self.region, meta.data_offset, PAGE_SIZE)
                meta.data_offset = self._request_page_rpc(page_id, meta.entry)
                if tracer is not None:
                    tracer.count("sharing.removals_observed")
            saw_invalid = self.flag_slab.read_invalid(meta.entry)
            if saw_invalid:
                # Another node modified the page: drop our (clean — the
                # lock protocol guarantees it) cached lines so the next
                # loads see the CXL copy.
                self.invalidations_observed += 1
                if self._mutate_clear_before_invalidate:
                    # Seeded mutation 3: clearing the flag before the
                    # invalidation reopens the stale-read window the
                    # flag closes. Functionally invisible here (the
                    # lines are dropped either way within this call) —
                    # only memsan sees the ordering violation.
                    self._clear_invalid_checked(meta)
                    dropped = self.cpu_cache.invalidate(
                        self.region, meta.data_offset, PAGE_SIZE
                    )
                else:
                    dropped = self.cpu_cache.invalidate(
                        self.region, meta.data_offset, PAGE_SIZE
                    )
                    self._clear_invalid_checked(meta)
                self.meter.charge_ns(dropped * _INVALIDATE_LINE_NS)
                # Rejoin the page's sharer directory *before* re-caching
                # any line: writers since our drop stopped pushing flags
                # at us, and this RPC's sync with the owning shard is the
                # happens-before edge that publishes their flushed lines
                # to our upcoming reads.
                self._rpc(
                    "reshare",
                    page_id,
                    lambda: self.fusion.reshare(page_id, self.node_id, self.meter),
                    span_name="reshare",
                )
                if tracer is not None:
                    tracer.count("sharing.invalidations_observed")
            if tracer is not None:
                tracer.emit(
                    "sharing",
                    "page_access",
                    node=self.node_id,
                    page=page_id,
                    saw_invalid=saw_invalid,
                    saw_removal=saw_removal,
                    registered=False,
                )
        self.fusion.note_touch(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        if span is not None:
            spans.end(span)
        return PageView(
            page_id, CacheWindow(self.cpu_cache, self.region, meta.data_offset), self
        )

    def new_page(self, page_id: int, page_type: int, level: int = 0) -> PageView:
        raise NotImplementedError(
            "multi-primary nodes operate on preloaded data; page allocation "
            "is a single-primary operation (see DESIGN.md §6)"
        )

    def contains(self, page_id: int) -> bool:
        return page_id in self._meta

    def mark_dirty(self, page_id: int) -> None:
        # Durability of shared pages is the fusion server's business
        # (entry.dirty, set on write release); nothing to track here.
        pass

    def flush_page(self, page_id: int) -> None:
        raise NotImplementedError("shared pages are flushed by the fusion server")

    def flush_dirty_pages(self) -> int:
        return 0

    def resident_page_ids(self) -> list[int]:
        return list(self._meta)

    # -- sharing protocol hooks ---------------------------------------------------------------

    def flush_page_writes(self, page_id: int) -> int:
        """Write-lock release path: clflush the page's modified lines.

        Only dirty lines are written back — cache-line-granular
        synchronization. Returns the number of lines flushed.
        """
        meta = self._meta[page_id]
        tracer = PROBES.tracer
        spans = PROBES.spans
        span = (
            spans.begin(
                "cache_flush", "clflush", meter=self.meter,
                node=self.node_id, page=page_id,
            )
            if spans is not None
            else None
        )
        dirty_before = (
            self.cpu_cache.dirty_lines(self.region, meta.data_offset, PAGE_SIZE)
            if tracer is not None
            else 0
        )
        if self._mutate_skip_flush:
            # Seeded mutation 1: release the write lock without the
            # clflush — CXL memory keeps the old bytes.
            written = 0
            dirty_after = dirty_before
        else:
            written = self.cpu_cache.clflush(
                self.region, meta.data_offset, PAGE_SIZE
            )
            # clflush drops every line of the range: none is left dirty.
            dirty_after = 0
        ms = PROBES.memsan
        if ms is not None:
            ms.assert_flushed(
                self.cpu_cache.name, self.region.name, meta.data_offset, PAGE_SIZE
            )
        self.meter.count("lines_flushed", written)
        if tracer is not None:
            tracer.count("sharing.lines_flushed", written)
            tracer.count("sharing.flush_bytes", written * CACHE_LINE)
            tracer.emit(
                "sharing",
                "flush",
                node=self.node_id,
                page=page_id,
                dirty_before=dirty_before,
                lines_flushed=written,
                dirty_after=dirty_after,
            )
        # Crash here: every modified line reached CXL, but the fusion
        # server was never told — no invalid flags pushed, DBP copy not
        # marked dirty. Failover must treat the page as suspect.
        crash_point("sharing.flush.lines")
        self._rpc(
            "on_write_release",
            page_id,
            lambda: self.fusion.on_write_release(page_id, self.node_id, self.meter),
        )
        if span is not None:
            spans.end(span, lines=written, nbytes=written * CACHE_LINE)
        return written

    def scan_and_reclaim_removed(self) -> int:
        """Background thread: drop metadata entries whose removal flag is
        set (the page's slot was recycled)."""
        reclaimed = 0
        for page_id, meta in list(self._meta.items()):
            if self._pins.get(page_id, 0) == 0 and self.flag_slab.read_removal(
                meta.entry
            ):
                self.cpu_cache.invalidate(self.region, meta.data_offset, PAGE_SIZE)
                self.fusion.deregister(page_id, self.node_id)
                self._drop_entry(page_id, meta)
                reclaimed += 1
        return reclaimed

    # -- internals ---------------------------------------------------------------------------

    def _register(self, page_id: int) -> _NodePageMeta:
        if not self._free_entries:
            self._evict_entry()
        entry = self._free_entries.pop()
        self.flag_slab.clear_invalid(entry)
        self.flag_slab.clear_removal(entry)
        data_offset = self._request_page_rpc(page_id, entry)
        meta = _NodePageMeta(entry, data_offset)
        self._meta[page_id] = meta
        return meta

    def _request_page_rpc(self, page_id: int, entry: int) -> int:
        return self._rpc(
            "request_page",
            page_id,
            lambda: self.fusion.request_page(
                page_id,
                self.node_id,
                self.flag_slab.invalid_addr(entry),
                self.flag_slab.removal_addr(entry),
                self.meter,
            ),
            span_name="request_page",
        )

    def _rpc(self, op: str, page_id: int, call, span_name: Optional[str] = None):
        """One fusion RPC with timeout + capped backoff.

        The fusion server can be briefly unreachable (restart, network
        partition) and any of the three RPCs can be lost: the node burns
        the RPC timeout, backs off per :attr:`retry_policy` (capped
        exponential), and retries. Once the policy's attempt or
        total-time budget is spent, a typed :class:`RpcExhaustedError`
        surfaces to the caller. A lost ``on_write_release`` would leave
        every other node's cache stale, and a lost ``reshare`` would
        leave the shard treating us as dropped, so neither is ever
        skipped silently.
        """
        spans = PROBES.spans
        span = (
            spans.begin("rpc", span_name, meter=self.meter, page=page_id)
            if spans is not None and span_name is not None
            else None
        )
        attempts = 0
        spent_ns = 0.0
        try:
            while True:
                try:
                    return call()
                except RpcExhaustedError:
                    raise
                except FusionUnavailableError as exc:
                    attempts += 1
                    spent_ns = self._charge_retry_or_raise(
                        op, page_id, attempts, spent_ns, exc
                    )
        finally:
            if span is not None:
                spans.end(span, retries=attempts)

    def _charge_retry_or_raise(
        self,
        op: str,
        page_id: int,
        attempts: int,
        spent_ns: float,
        cause: FusionUnavailableError,
    ) -> float:
        """Shared loss bookkeeping: count the failure, charge the
        timeout+backoff wait and return the new total, or raise
        :class:`RpcExhaustedError` once the policy budget is gone."""
        self.rpc_retries += 1
        wait = self.retry_policy.next_wait_ns(attempts, spent_ns)
        if wait is None:
            raise RpcExhaustedError(op, page_id, attempts, spent_ns) from cause
        self.meter.charge_ns(wait)
        self.meter.count("fusion_rpc_retries")
        return spent_ns + wait

    def _evict_entry(self) -> None:
        for page_id, meta in self._meta.items():
            if self._pins.get(page_id, 0) == 0:
                self.cpu_cache.invalidate(self.region, meta.data_offset, PAGE_SIZE)
                self.fusion.deregister(page_id, self.node_id)
                self._drop_entry(page_id, meta)
                return
        raise RuntimeError("page metadata buffer exhausted (all pinned)")

    def _clear_invalid_checked(self, meta: _NodePageMeta) -> None:
        """Clear the invalid flag; memsan verifies no stale cached line
        survives the clear (the mutation-3 ordering check)."""
        ms = PROBES.memsan
        if ms is not None:
            ms.invalid_cleared(
                self.cpu_cache.name, self.region.name, meta.data_offset, PAGE_SIZE
            )
        self.flag_slab.clear_invalid(meta.entry)

    def _drop_entry(self, page_id: int, meta: _NodePageMeta) -> None:
        del self._meta[page_id]
        self._free_entries.append(meta.entry)
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("sharing.entries_dropped")
            tracer.emit("sharing", "drop", node=self.node_id, page=page_id)

    @property
    def metadata_entries_used(self) -> int:
        return len(self._meta)


class MultiPrimaryNode:
    """Distributed-lock + coherency choreography for one node.

    Methods are simulation-process generators: they interleave
    functional engine work with lock waits, and settle the meter *before
    releasing locks* so critical sections occupy their true duration in
    virtual time. The same class drives both the PolarCXLMem pool and
    the RDMA sharing baseline — the pool's ``flush_page_writes`` is the
    point of divergence (cache-line clflush vs whole-page RDMA write).
    """

    def __init__(
        self,
        node_id: str,
        engine: Engine,
        lock_service: PageLockService,
        settler: ChargeSettler,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.lock_service = lock_service
        self.settler = settler
        # Distributed locks this node currently holds. When the node
        # crashes mid-operation these record what failover must break
        # (a lease/epoch table in a real deployment).
        self.read_locks_held: set[int] = set()
        self.write_locks_held: set[int] = set()

    def _leaf_of(self, table_name: str, key: int) -> int:
        table = self.engine.tables[table_name]
        mtr = self.engine.mtr()
        leaf_id = table.btree.leaf_page_id_for(mtr, key)
        mtr.commit()
        return leaf_id

    def _locked(
        self,
        name: str,
        table_name: str,
        key: int,
        write: bool,
        span_parent,
        body: Callable[[int], Any],
    ) -> Generator:
        """One critical section (§3.3): find ``key``'s leaf, take the
        leaf's distributed write or read lock, run ``body(leaf_id)`` as
        this node, settle its charges while still holding the lock, then
        release. Returns what ``body`` returned.

        A dead node keeps its lock: on ``InjectedCrash`` it cannot run
        its unlock path, and the lock stays held until failover breaks
        it. Nor can an abandoned process (its world was dropped
        mid-operation; the collector closes the generator whenever it
        likes): an unlock then would report into whatever is installed
        *then*. A fusion server that stays unreachable through the
        whole retry budget fences a writer, possibly *after* it flushed
        modified lines to CXL with no invalidations pushed: the page is
        suspect, so the write lock stays held for failover to rebuild
        the page and break it, since unlocking would hand the next
        locker stale or torn bytes. A reader changed nothing and
        releases. Any other exception releases the lock.
        """
        spans = PROBES.spans
        op = (
            spans.begin("txn", name, parent=span_parent, push=False)
            if spans is not None
            else None
        )
        with PROBES.attached(op), PROBES.scoped_actor(self.node_id):
            leaf_id = self._leaf_of(table_name, key)
        yield from self.settler.settle(span=op)
        t_lock = self.settler.sim.now
        yield from self.lock_service.lock(leaf_id, write)
        ms = PROBES.memsan
        if ms is not None:
            ms.lock_acquired(self.node_id, leaf_id)
        mode = "write" if write else "read"
        if op is not None:
            spans.record(
                "lock_wait",
                mode,
                parent=op,
                ns=self.settler.sim.now - t_lock,
                page=leaf_id,
            )
        held = self.write_locks_held if write else self.read_locks_held
        held.add(leaf_id)
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("lock.write_acquires" if write else "lock.read_acquires")
            if write:
                tracer.emit("lock", "write_acquire", node=self.node_id, page=leaf_id)
        keep = False
        try:
            with PROBES.attached(op), PROBES.scoped_actor(self.node_id):
                result = body(leaf_id)
            yield from self.settler.settle(span=op)
        except (InjectedCrash, GeneratorExit):
            keep = True
            raise
        except FusionUnavailableError:
            keep = write
            if write and tracer is not None:
                tracer.emit("lock", "write_fenced", node=self.node_id, page=leaf_id)
            raise
        else:
            if write and tracer is not None:
                tracer.emit("lock", "write_release", node=self.node_id, page=leaf_id)
        finally:
            if not keep:
                ms = PROBES.memsan
                if ms is not None:
                    ms.lock_released(self.node_id, leaf_id)
                self.lock_service.unlock(leaf_id, write)
                held.discard(leaf_id)
        if op is not None:
            spans.end(op)
        return result

    def point_select(
        self, table_name: str, key: int, span_parent=None
    ) -> Generator:
        """Read one row under a distributed read lock."""

        def read(leaf_id: int):
            mtr = self.engine.mtr()
            row = self.engine.tables[table_name].get(mtr, key)
            mtr.commit()
            return row

        return (
            yield from self._locked(
                "point_select", table_name, key, False, span_parent, read
            )
        )

    def point_update(
        self, table_name: str, key: int, field: str, value, span_parent=None
    ) -> Generator:
        """Update one column under a distributed write lock.

        The cache-line flush (or, for the RDMA baseline, the whole-page
        flush) happens before the lock releases — the paper's
        lock-hold-time effect.
        """

        def update(leaf_id: int) -> bool:
            txn = self.engine.begin()
            mtr = txn.mtr()
            found = self.engine.tables[table_name].update_field(mtr, key, field, value)
            mtr.commit()
            txn.commit()
            # Crash here: the update is durable in the node's redo log
            # but sits dirty in its CPU cache — CXL still holds the old
            # bytes. Failover rebuilds from storage + durable redo.
            crash_point("node.update.logged")
            self.engine.buffer_pool.flush_page_writes(leaf_id)
            return found

        return (
            yield from self._locked(
                "point_update", table_name, key, True, span_parent, update
            )
        )

    def range_select(
        self, table_name: str, start_key: int, count: int, span_parent=None
    ) -> Generator:
        """Range scan; the entry leaf is read-locked (see DESIGN.md §6)."""

        def scan(leaf_id: int) -> list:
            mtr = self.engine.mtr()
            rows = self.engine.tables[table_name].range(mtr, start_key, count)
            mtr.commit()
            return rows

        return (
            yield from self._locked(
                "range_select", table_name, start_key, False, span_parent, scan
            )
        )
