"""Mini-transactions: atomic multi-page modifications with redo logging.

Every page access in the engine happens inside a mini-transaction (mtr),
InnoDB-style. An mtr:

* pins every page it touches and releases the pins on commit,
* takes write latches under two-phase locking — latches are only
  released at commit, so a crash mid-mtr leaves the pages' persisted
  lock state set (the signal PolarRecv uses to spot partial updates,
  §3.2),
* turns every modification into a physical redo record, stamps the
  page's LSN, and marks the page dirty.

Redo records are staged inside the mtr and appended to the log buffer
*atomically at commit*, so a log flush can never persist half an SMO:
either every record of a committed mtr can become durable, or none of
an uncommitted one can.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..faults.injector import crash_point
from ..obs.probes import PROBES
from .bufferpool import BufferPool
from .constants import PAGE_HEADER_SIZE
from .page import format_empty_page
from .page import PageView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

__all__ = ["MiniTransaction", "MtrStateError"]


class MtrStateError(RuntimeError):
    """An mtr was used after commit, or misused."""


class MiniTransaction:
    """One atomic unit of physical page changes."""

    def __init__(self, engine: "Engine", txn=None) -> None:
        self.engine = engine
        self.txn = txn
        self._pins: list[tuple[BufferPool, int]] = []
        self._write_latched: list[tuple[BufferPool, int]] = []
        self._staged: list[tuple[int, int, bytes]] = []  # (page_id, offset, data)
        self._undo: list[tuple[int, int, bytes]] = []  # before-images
        self._touched_views: list[PageView] = []
        self._committed = False
        spans = PROBES.spans
        if spans is not None:
            self._span = spans.begin("mtr", "mtr", meter=engine.meter)
            self._span_tracer = spans
        else:
            self._span = None
            self._span_tracer = None

    # -- page access -----------------------------------------------------------------

    def get_page(self, page_id: int, for_write: bool = False) -> PageView:
        """Pin (and optionally write-latch) a page through the pool."""
        self._check_active()
        pool = self.engine.buffer_pool
        view = pool.get_page(page_id)
        self._pins.append((pool, page_id))
        if for_write:
            self._write_latch(pool, page_id)
        return view

    def new_page(self, page_type: int, level: int = 0) -> PageView:
        """Allocate a page id and create the page, write-latched.

        The fresh header is redo-logged so recovery can rebuild a
        never-flushed page from a zeroed image plus its redo stream.
        A page id reclaimed from the freed-page list may still be
        resident (a merge freed it); its frame is reformatted in place —
        the logged header makes the page logically empty, so any stale
        body bytes are unreachable.
        """
        self._check_active()
        page_id = self.engine.allocate_page_id(self)
        pool = self.engine.buffer_pool
        if pool.contains(page_id):
            view = pool.get_page(page_id)
            self._pins.append((pool, page_id))
            self._write_latch(pool, page_id)
            view.write(0, format_empty_page(page_id, page_type, level))
        else:
            view = pool.new_page(page_id, page_type, level)
            self._pins.append((pool, page_id))
            self._write_latch(pool, page_id)
        self.write(view, 0, view.read(0, PAGE_HEADER_SIZE))
        return view

    def latch_write(self, view: PageView) -> None:
        """Write-latch a page already pinned by this mtr."""
        self._check_active()
        self._write_latch(view.pool, view.page_id)

    def write(self, view: PageView, offset: int, data: bytes) -> None:
        """Modify a page: apply bytes, stage redo, stamp LSN, mark dirty.

        The LSN stamped on the page is assigned now (reserved from the
        log's counter) but the record only reaches the log buffer at
        commit, preserving mtr atomicity with respect to flushes. When
        the mtr belongs to a transaction, a before-image is captured so
        the transaction can roll back (§3.2: rollback of uncommitted
        transactions runs concurrently with new requests).
        """
        self._check_active()
        if self.txn is not None:
            self._undo.append((view.page_id, offset, view.read(offset, len(data))))
        view.write(offset, bytes(data))
        # Crash here: page bytes changed, redo not yet staged, write
        # latch held — the persisted lock_state is PolarRecv's signal.
        crash_point("mtr.write.applied")
        self._staged.append((view.page_id, offset, bytes(data)))
        self._touched_views.append(view)
        self.engine.meter.charge_ns(self.engine.cost.log_record_ns)

    def write_u64(self, view: PageView, offset: int, value: int) -> None:
        self.write(view, offset, struct.pack("<Q", value))

    def write_u16(self, view: PageView, offset: int, value: int) -> None:
        self.write(view, offset, struct.pack("<H", value))

    # -- lifecycle ----------------------------------------------------------------------

    def commit(self) -> None:
        """Publish staged redo, stamp LSNs, release latches and pins."""
        self._check_active()
        self._committed = True
        # Crash here: all modifications applied, nothing in the log
        # buffer, every latch still held.
        crash_point("mtr.commit.begin")
        redo_log = self.engine.redo_log
        last_lsn_of: dict[int, int] = {}
        for page_id, offset, data in self._staged:
            lsn = redo_log.append(page_id, offset, data)
            last_lsn_of[page_id] = lsn
        # Crash here: records sit in the volatile log buffer (lost with
        # the host), latches still held.
        crash_point("mtr.commit.staged")
        for view in self._touched_views:
            lsn = last_lsn_of.get(view.page_id)
            if lsn is not None and view.lsn < lsn:
                view.set_lsn(lsn)
                view.pool.mark_dirty(view.page_id)
        # Two-phase: latches drop only now, after the log buffer holds
        # every record of the mtr.
        for latch_pool, page_id in self._write_latched:
            latch_pool.note_write_latch(page_id, held=False)
            self.engine.latched_pages.discard(page_id)
        # Crash here: latches released (lock_state cleared in CXL), page
        # LSNs stamped past the durable maximum — the "too new" signal.
        crash_point("mtr.commit.unlatched")
        for pin_pool, page_id in self._pins:
            pin_pool.unpin(page_id)
        if self.txn is not None and self._undo:
            self.txn._absorb_undo(self._undo)
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("mtr.commits")
            if self._staged:
                tracer.count("mtr.records_staged", len(self._staged))
        if self._span is not None:
            self._span_tracer.end(self._span, records=len(self._staged))
        self._staged = []
        self._undo = []
        self._touched_views = []
        self._pins = []
        self._write_latched = []

    # -- internals ------------------------------------------------------------------------

    def _write_latch(self, pool: BufferPool, page_id: int) -> None:
        if (pool, page_id) not in self._write_latched:
            self._write_latched.append((pool, page_id))
            pool.note_write_latch(page_id, held=True)
            self.engine.latched_pages.add(page_id)

    def _check_active(self) -> None:
        if self._committed:
            raise MtrStateError("mini-transaction already committed")
