"""User transactions: redo at commit, before-image undo at rollback.

A transaction groups operations (each its own mini-transaction) and
makes their redo durable at commit via a group log flush. Rollback
applies the collected before-images in reverse — as *new, redo-logged*
compensation writes, so an aborted transaction is durably undone and
recovery never resurrects it. This matches the paper's engine, where
"the rollback of uncommitted transactions can occur simultaneously with
application requests" (§3.2); crash-interrupted transactions are
instead discarded by redo recovery (their log never became durable).

Rollback is a single-primary facility: byte-wise undo assumes no other
node wrote the same pages in between, which the multi-primary page
locks do not guarantee across operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.probes import PROBES
from .mtr import MiniTransaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

__all__ = ["Transaction"]


class Transaction:
    """One unit of work; redo becomes durable at commit."""

    _next_id = 1

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.txn_id = Transaction._next_id
        Transaction._next_id += 1
        self._committed = False
        self._rolled_back = False
        self._undo: list[tuple[int, int, bytes]] = []
        spans = PROBES.spans
        if spans is not None:
            self._span = spans.begin(
                "txn", "transaction", meter=engine.meter, txn_id=self.txn_id
            )
            self._span_tracer = spans
        else:
            self._span = None
            self._span_tracer = None
        engine.meter.charge_ns(engine.cost.txn_fixed_ns / 2)

    def mtr(self) -> MiniTransaction:
        """Start a mini-transaction for one or more page operations."""
        self._check_open()
        return MiniTransaction(self.engine, txn=self)

    def _absorb_undo(self, undo: list[tuple[int, int, bytes]]) -> None:
        self._undo.extend(undo)

    def commit(self) -> None:
        """Group-flush the log buffer: everything staged becomes durable."""
        self._check_open()
        self._committed = True
        self._undo = []
        self.engine.redo_log.flush()
        self.engine.meter.charge_ns(self.engine.cost.txn_fixed_ns / 2)
        if self._span is not None:
            self._span_tracer.end(self._span)

    def rollback(self) -> int:
        """Undo every committed mini-transaction of this transaction.

        Before-images apply in reverse order through a fresh, redo-
        logged mini-transaction (compensation), then the log flushes so
        the abort itself is durable. Returns the number of undo records
        applied.
        """
        self._check_open()
        self._rolled_back = True
        applied = 0
        pending = list(reversed(self._undo))
        # Chunked so the compensation never pins more frames than a
        # small local buffer pool holds.
        chunk_records = 8
        while pending:
            chunk, pending = pending[:chunk_records], pending[chunk_records:]
            mtr = MiniTransaction(self.engine)
            for page_id, offset, before in chunk:
                view = mtr.get_page(page_id, for_write=True)
                mtr.write(view, offset, before)
                applied += 1
            mtr.commit()
        self._undo = []
        self.engine.redo_log.flush()
        self.engine.meter.charge_ns(self.engine.cost.txn_fixed_ns / 2)
        if self._span is not None:
            self._span_tracer.end(self._span, rolled_back=True)
        return applied

    @property
    def committed(self) -> bool:
        return self._committed

    @property
    def rolled_back(self) -> bool:
        return self._rolled_back

    def _check_open(self) -> None:
        if self._committed:
            raise RuntimeError("transaction already committed")
        if self._rolled_back:
            raise RuntimeError("transaction already rolled back")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._committed or self._rolled_back:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
