"""ARIES-style physical redo logging.

Every page modification produces a :class:`RedoRecord` (page id, offset,
after-image bytes, LSN). Records accumulate in a **volatile** log buffer
in host DRAM (§3.2 challenge 4: logs not yet flushed at crash time are
lost) and move to the durable log on flush. Flushes happen when a
transaction or mini-transaction commits (group commit collapses
whatever is buffered), charging the host's WAL device pipe.

Recovery contracts used elsewhere:

* the durable log is a strictly LSN-ordered list,
* mini-transactions flush atomically (a commit flushes every record of
  the mini-transaction or none reached the durable log), so redo replay
  never observes half an SMO,
* ``checkpoint_lsn`` bounds the replay scan; records at or below it are
  already reflected in storage page images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults.injector import crash_point
from ..hardware.memory import AccessMeter
from ..obs.probes import PROBES
from ..sim.latency import LatencyConfig

__all__ = ["RedoRecord", "RedoLog"]

_RECORD_HEADER_BYTES = 24


@dataclass(frozen=True)
class RedoRecord:
    """A physical redo record: after-image of a byte range of one page."""

    lsn: int
    page_id: int
    offset: int
    data: bytes

    @property
    def size_bytes(self) -> int:
        return _RECORD_HEADER_BYTES + len(self.data)


class RedoLog:
    """Volatile log buffer + durable log + checkpoint bookkeeping."""

    def __init__(
        self,
        meter: Optional[AccessMeter] = None,
        config: Optional[LatencyConfig] = None,
    ) -> None:
        self.meter = meter
        self.config = config or LatencyConfig()
        self._next_lsn = 1
        self._buffer: list[RedoRecord] = []
        self._durable: list[RedoRecord] = []
        self._checkpoint_lsn = 0
        self.flushes = 0
        self.bytes_flushed = 0

    def attach_meter(self, meter: AccessMeter) -> None:
        self.meter = meter

    # -- appending ----------------------------------------------------------------

    def append(self, page_id: int, offset: int, data: bytes) -> int:
        """Buffer a redo record; returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn += 1
        self._buffer.append(RedoRecord(lsn, page_id, offset, bytes(data)))
        tracer = PROBES.tracer
        if tracer is not None:
            tracer.count("wal.records_appended")
            tracer.emit("wal", "append", log=id(self), page=page_id, lsn=lsn)
        crash_point("wal.append")
        if self.meter is not None:
            self.meter.count("redo_records")
        return lsn

    def flush(self) -> int:
        """Force the buffer to the durable log; returns durable max LSN."""
        if self._buffer:
            spans = PROBES.spans
            span = (
                spans.begin("wal_append", "flush", meter=self.meter)
                if spans is not None
                else None
            )
            # A crash here loses the whole buffer (it is host DRAM).
            crash_point("wal.flush.begin")
            nbytes = sum(record.size_bytes for record in self._buffer)
            tracer = PROBES.tracer
            if tracer is not None:
                tracer.count("wal.records_flushed", len(self._buffer))
                tracer.count("wal.bytes_flushed", nbytes)
            self._durable.extend(self._buffer)
            self._buffer = []
            self.flushes += 1
            self.bytes_flushed += nbytes
            # A crash here keeps the records: they reached the log device.
            crash_point("wal.flush.durable")
            if self.meter is not None:
                self.meter.charge_transfer(
                    "wal", nbytes, base_ns=self.config.wal_write_base_ns
                )
            if span is not None:
                spans.end(span, nbytes=nbytes)
        return self.durable_max_lsn

    # -- durability state ------------------------------------------------------------

    @property
    def durable_max_lsn(self) -> int:
        return self._durable[-1].lsn if self._durable else self._checkpoint_lsn

    @property
    def buffered_records(self) -> int:
        return len(self._buffer)

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def checkpoint_lsn(self) -> int:
        return self._checkpoint_lsn

    # -- crash / recovery ---------------------------------------------------------------

    def crash(self) -> int:
        """Drop the volatile buffer; returns the number of records lost."""
        lost = len(self._buffer)
        self._buffer = []
        return lost

    def recover_lsn_counter(self) -> None:
        """After a crash, new LSNs restart just past the durable maximum."""
        self._next_lsn = self.durable_max_lsn + 1

    def align_lsn(self, floor: int) -> None:
        """Ensure future LSNs exceed ``floor``.

        Multi-primary nodes open a dataset whose pages carry LSNs stamped
        by whoever loaded it. LSN-guarded redo (and the page-LSN stamping
        in mtr commit) only works if this log's LSNs sort *after* those,
        so a node aligns its counter past the loader's on attach — the
        per-node slice of a shared LSN space.
        """
        self._next_lsn = max(self._next_lsn, floor + 1)

    def records_since(self, lsn_exclusive: int) -> list[RedoRecord]:
        """Durable records with LSN strictly greater than ``lsn_exclusive``.

        Charges a metered scan proportional to the bytes read, matching a
        sequential log scan from storage during recovery.
        """
        records = [rec for rec in self._durable if rec.lsn > lsn_exclusive]
        if self.meter is not None and records:
            nbytes = sum(record.size_bytes for record in records)
            self.meter.charge_transfer(
                "storage", nbytes, base_ns=self.config.storage_read_base_ns
            )
        return records

    def set_checkpoint(self, lsn: int) -> None:
        """Advance the checkpoint; durable records at or below are pruned."""
        if lsn < self._checkpoint_lsn:
            raise ValueError("checkpoint LSN moved backwards")
        self._checkpoint_lsn = lsn
        self._durable = [rec for rec in self._durable if rec.lsn > lsn]

    def snapshot(self) -> tuple:
        # Records are frozen: the tuples share them.
        return (
            self._next_lsn,
            tuple(self._buffer),
            tuple(self._durable),
            self._checkpoint_lsn,
            self.flushes,
            self.bytes_flushed,
        )

    def restore(self, state: tuple) -> None:
        (
            self._next_lsn,
            buffer,
            durable,
            self._checkpoint_lsn,
            self.flushes,
            self.bytes_flushed,
        ) = state
        self._buffer = list(buffer)
        self._durable = list(durable)

    def verify_ordered(self) -> bool:
        """Invariant check: durable log is strictly LSN-increasing."""
        return all(
            a.lsn < b.lsn for a, b in zip(self._durable, self._durable[1:])
        )
