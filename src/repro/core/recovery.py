"""PolarRecv: instant recovery from CXL-resident buffer state (§3.2).

After a host crash, the CXL extent still holds every block: page data,
page ids, lock states, and LRU links. PolarRecv rebuilds a consistent
*warm* buffer pool from it instead of replaying the full redo stream:

1. Read the maximum durable LSN from the persistent redo log.
2. Scan block metadata (a 64-byte line per block — no page I/O). A
   block's page survives as-is unless:

   * its ``lock_state`` is set — the crash interrupted an update or an
     SMO mini-transaction, so the page bytes may be torn, or
   * its page LSN exceeds the durable maximum — the page contains
     committed-to-memory-but-never-durable writes ("too new" pages,
     which would violate ARIES if kept).

   Only those pages are rebuilt: storage image (or a zeroed image for
   never-flushed pages) plus the durable redo records that apply.
3. If the LRU mutation flag is set, or the persisted LRU list fails
   validation against the surviving blocks, relink it from scratch;
   otherwise adopt it unchanged.
4. Re-chain free blocks (including blocks whose pages had to be
   discarded because neither storage nor the durable log knows them).

The result is a buffer pool whose page table is fully populated — the
database resumes at warm-cache throughput immediately, which is the
whole point of Figure 10.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional

from ..db.constants import OFF_LSN, PAGE_SIZE
from ..faults.injector import crash_point
from ..hardware.memory import AccessMeter
from ..obs.probes import PROBES
from ..sim.latency import LatencyConfig
from ..storage.pagestore import PageStore
from ..storage.wal import RedoLog, RedoRecord
from .block import BLOCK_NIL, block_data_offset
from .cxl_bufferpool import CxlBufferPool

__all__ = ["PolarRecv", "RecoveryStats", "apply_redo_to_image", "retire_log"]

_U64 = struct.Struct("<Q")


@dataclass
class RecoveryStats:
    """What recovery did, for reporting and tests."""

    blocks_scanned: int = 0
    pages_kept: int = 0
    pages_rebuilt_locked: int = 0
    pages_rebuilt_too_new: int = 0
    blocks_discarded: int = 0
    lru_rebuilt: bool = False
    redo_records_applied: int = 0
    log_scanned: bool = False

    @property
    def pages_rebuilt(self) -> int:
        return self.pages_rebuilt_locked + self.pages_rebuilt_too_new

    @property
    def warm_fraction(self) -> float:
        """Share of surviving pages adopted warm, without any rebuild
        I/O — the instant-recovery property the HA join/leave scenario
        reports (1.0 = a pure CXL buffer-pool handover)."""
        total = self.pages_kept + self.pages_rebuilt
        return self.pages_kept / total if total else 0.0


def apply_redo_to_image(
    image: bytearray, records: list[RedoRecord], force: bool = False
) -> int:
    """Apply LSN-guarded physical redo to a page image; returns count.

    ``force=True`` skips the page-LSN guard and rewrites every recorded
    byte range (stamping each record's LSN): fusion failover uses this
    because its input image may be a sector-torn mix from a crashed
    hardening write, whose header LSN lies about the tail bytes.
    Physical redo is idempotent, so force-applying an already-applied
    record is content-neutral.
    """
    applied = 0
    for record in records:
        if not force:
            page_lsn = _U64.unpack_from(image, OFF_LSN)[0]
            if record.lsn <= page_lsn:
                continue
        image[record.offset : record.offset + len(record.data)] = record.data
        _U64.pack_into(image, OFF_LSN, record.lsn)
        applied += 1
    return applied


def retire_log(
    page_store: PageStore,
    redo_log: RedoLog,
    meter: AccessMeter,
    config: LatencyConfig,
    page_filter: Optional[Callable[[int], bool]] = None,
) -> int:
    """Harden a dead node's durable log into storage (log retirement).

    Fleet failover soundness: :meth:`BufferFusionServer.recover_node_failure`
    rebuilds a crashed node's *write-locked* pages from storage plus that
    node's log — but the node's other committed pages may live only in
    the DBP and its log. If a later owner of such a page crashes, its
    rebuild (storage + the later owner's log) would silently drop the
    first owner's updates. Retiring the dead node's log right after
    failover closes the hole: every page it ever durably touched gets
    the storage image force-updated with its records, so no future
    rebuild needs the dead log again.

    Records are force-applied (see :func:`apply_redo_to_image`) because
    the input image may itself be a sector-torn mix from a crashed
    hardening write — the same re-entrancy argument as the failover
    rebuild, and the reason a failover storm can crash inside this loop
    (``recovery.retire.page``) and simply run it again. Returns the
    number of pages hardened.

    ``page_filter`` restricts retirement to the pages it accepts — the
    sharded fusion tier retires a dead node's log shard by shard, each
    shard hardening only the pages it owns, so a crash mid-retirement
    confines the rerun to one shard's slice. The union over shards is
    exactly an unfiltered retirement (the filter partitions page ids).
    """
    by_page: dict[int, list[RedoRecord]] = {}
    for record in redo_log.records_since(0):
        by_page.setdefault(record.page_id, []).append(record)
    retired = 0
    for page_id in sorted(by_page):
        if page_filter is not None and not page_filter(page_id):
            continue
        if page_store.exists(page_id):
            image = bytearray(page_store.read_page_unmetered(page_id))
            meter.charge_transfer(
                "storage", PAGE_SIZE, base_ns=config.storage_read_base_ns
            )
        else:
            image = bytearray(PAGE_SIZE)
        apply_redo_to_image(image, by_page[page_id], force=True)
        page_store.write_page(page_id, bytes(image))
        meter.charge_transfer(
            "storage", PAGE_SIZE, base_ns=config.storage_write_base_ns
        )
        retired += 1
        crash_point("recovery.retire.page")
    tracer = PROBES.tracer
    if tracer is not None and retired:
        tracer.count("recv.pages_retired", retired)
    return retired


class PolarRecv:
    """Rebuild a :class:`CxlBufferPool` from a surviving CXL extent."""

    def __init__(
        self,
        mem,
        page_store: PageStore,
        redo_log: RedoLog,
        n_blocks: int,
    ) -> None:
        self.mem = mem
        self.page_store = page_store
        self.redo_log = redo_log
        self.n_blocks = n_blocks

    def recover(self) -> tuple[CxlBufferPool, RecoveryStats]:
        stats = RecoveryStats()
        tracer = PROBES.tracer
        spans = PROBES.spans
        meter = getattr(self.mem, "meter", None)
        scan_span = (
            spans.begin("recovery_phase", "scan", meter=meter)
            if spans is not None
            else None
        )
        self.redo_log.recover_lsn_counter()
        durable_max = self.redo_log.durable_max_lsn
        pool = CxlBufferPool(self.mem, self.page_store, self.n_blocks)
        pool.attach()

        records_by_page: dict[int, list[RedoRecord]] | None = None
        in_use: list[int] = []  # block indexes that survive
        free: list[int] = []

        for meta in pool.iter_metas():
            # Crash here: recovery itself died mid-scan. Everything it
            # already rewrote is idempotent, so a second PolarRecv run
            # over the same extent must succeed (re-entrancy).
            crash_point("recovery.scan")
            stats.blocks_scanned += 1
            if not meta.in_use:
                free.append(meta.index)
                continue
            page_id = meta.page_id
            locked = meta.lock_state != 0
            too_new = meta.page_lsn() > durable_max
            if not locked and not too_new:
                in_use.append(meta.index)
                pool.adopt_runtime_entry(page_id, meta.index, meta.dirty_hint)
                stats.pages_kept += 1
                continue
            # Rebuild from durable state.
            if records_by_page is None:
                records_by_page = self._scan_log(stats)
            page_records = records_by_page.get(page_id, [])
            if self.page_store.exists(page_id):
                image = bytearray(self.page_store.read_page(page_id))
            elif page_records:
                image = bytearray(PAGE_SIZE)
            else:
                # The page durably never existed: discard the block.
                free.append(meta.index)
                stats.blocks_discarded += 1
                continue
            stats.redo_records_applied += apply_redo_to_image(image, page_records)
            # Mark the block suspect *before* rewriting its bytes. The
            # page LSN lives in the first cache line, so a torn rebuild
            # write can stamp a durable-looking LSN onto a half-written
            # page — without the persisted lock_state, a second recovery
            # pass would keep the torn bytes as a "clean" page.
            if not locked:
                meta.set_lock_state(1)
            injector = PROBES.injector
            if injector is not None:
                # Torn variant: only a prefix of the rebuilt image made
                # it to CXL — the lock_state is still set, so the next
                # recovery run rebuilds the block again from durable
                # state instead of trusting the half-written bytes.
                injector.point(
                    "recovery.rebuild.image",
                    torn=lambda rng, i=meta.index, im=bytes(image): (
                        self._tear_block_write(i, im, rng)
                    ),
                )
            self.mem.write(block_data_offset(meta.index), bytes(image))
            # Dirty hint goes first: between these two stores a crash
            # leaves either lock_state set (block rebuilt again) or the
            # hint set (block re-flushed) — never a clean-looking page
            # whose rebuilt bytes could silently be dropped.
            meta.set_dirty_hint(True)
            crash_point("recovery.rebuild.marked")
            meta.set_lock_state(0)
            crash_point("recovery.rebuild.done")
            in_use.append(meta.index)
            pool.adopt_runtime_entry(page_id, meta.index, dirty=True)
            if locked:
                stats.pages_rebuilt_locked += 1
            else:
                stats.pages_rebuilt_too_new += 1

        if scan_span is not None:
            spans.end(
                scan_span,
                blocks=stats.blocks_scanned,
                rebuilt=stats.pages_rebuilt,
            )
            relink_span = spans.begin("recovery_phase", "relink", meter=meter)
        in_use_set = set(in_use)
        if pool.header.lru_mutation_flag or not self._lru_valid(pool, in_use_set):
            pool.rebuild_lru(in_use)
            stats.lru_rebuilt = True
        # Crash here: pages settled, LRU consistent, free chain stale —
        # the next recovery recomputes it from block metadata.
        crash_point("recovery.lru")
        pool.rebuild_free_list(free)
        crash_point("recovery.done")
        if scan_span is not None:
            spans.end(relink_span, lru_rebuilt=stats.lru_rebuilt)
        if tracer is not None:
            tracer.count("recv.recoveries")
            tracer.count("recv.blocks_scanned", stats.blocks_scanned)
            tracer.count("recv.pages_kept", stats.pages_kept)
            tracer.count("recv.pages_rebuilt", stats.pages_rebuilt)
            tracer.count("recv.blocks_discarded", stats.blocks_discarded)
            tracer.count("recv.redo_records_applied", stats.redo_records_applied)
            if stats.log_scanned:
                tracer.count("recv.log_scans")
            if stats.lru_rebuilt:
                tracer.count("recv.lru_rebuilds")
            tracer.emit(
                "recv",
                "done",
                blocks_scanned=stats.blocks_scanned,
                pages_kept=stats.pages_kept,
                pages_rebuilt=stats.pages_rebuilt,
                redo_records_applied=stats.redo_records_applied,
                log_scanned=stats.log_scanned,
                lru_rebuilt=stats.lru_rebuilt,
            )
        return pool, stats

    def _tear_block_write(self, index: int, image: bytes, rng) -> None:
        """Crash mid-rebuild: a cache-line-granular prefix reaches CXL."""
        lines_done = rng.randrange(0, PAGE_SIZE // 64)
        if lines_done:
            self.mem.write(block_data_offset(index), image[: lines_done * 64])

    def _scan_log(self, stats: RecoveryStats) -> dict[int, list[RedoRecord]]:
        """One sequential scan of the durable log past the checkpoint."""
        stats.log_scanned = True
        grouped: dict[int, list[RedoRecord]] = {}
        for record in self.redo_log.records_since(self.redo_log.checkpoint_lsn):
            grouped.setdefault(record.page_id, []).append(record)
        return grouped

    @staticmethod
    def _lru_valid(pool: CxlBufferPool, in_use_set: set[int]) -> bool:
        """The persisted LRU list must walk exactly the surviving blocks."""
        seen: set[int] = set()
        index = pool.header.lru_head
        previous = BLOCK_NIL
        while index != BLOCK_NIL:
            if index in seen or index not in in_use_set:
                return False
            meta = pool.meta(index)
            if meta.prev != previous:
                return False
            seen.add(index)
            previous = index
            index = meta.next
        return seen == in_use_set and pool.header.lru_tail == previous
