"""ARIES-style physical redo logging.

Every page modification produces a redo record (page id, offset,
after-image bytes, LSN). Records accumulate in a **volatile** log buffer
in host DRAM (§3.2 challenge 4: logs not yet flushed at crash time are
lost) and move to the durable log on flush. Flushes happen when a
transaction or mini-transaction commits (group commit collapses
whatever is buffered), charging the host's WAL device pipe.

Both logs hold the bytes a log device would: each record is a 24-byte
``<QQII`` header (LSN, page id, offset, length) followed by its
after-image, so a record's charged size is exactly the bytes it takes.
A :class:`RedoRecord` is decoded only when recovery reads the log
(:meth:`RedoLog.records_since`).

On the host the durable log is an open tail plus sealed segments: a
flush that leaves the tail at or above ``_SEGMENT_BYTES`` turns it into
one immutable ``zlib``-compressed segment tagged with its first and
last LSN. The paragraph above stays true, because every reader gets
exactly those bytes back through one segment iterator
(``RedoLog._chunks``), and every charge counts them, never the
compressed ones; LSNs, charges and the records read back do not depend
on where a seal fell.

Recovery contracts used elsewhere:

* the durable log is strictly LSN-ordered,
* mini-transactions flush atomically (a commit flushes every record of
  the mini-transaction or none reached the durable log), so redo replay
  never observes half an SMO,
* ``checkpoint_lsn`` bounds the replay scan; records at or below it are
  already reflected in storage page images.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional, Union

from ..faults.injector import crash_point
from ..hardware.memory import AccessMeter
from ..obs.probes import PROBES
from ..sim.latency import LatencyConfig

__all__ = ["RedoRecord", "RedoLog"]

_HEADER = struct.Struct("<QQII")  # LSN, page id, offset, after-image length
_RECORD_HEADER_BYTES = _HEADER.size
# A flush that leaves the durable tail at least this long seals it.
# Measured on pool_rdma_write's log: 256 KB, 512 KB and 1 MB segments all
# compress 2.83x; the smallest keeps the least uncompressed tail.
_SEGMENT_BYTES = 1 << 18
_ZLIB_LEVEL = 1  # the log is written once and read at most once: speed over ratio


class RedoRecord:
    """A physical redo record: after-image of a byte range of one page.

    A plain slotted record rather than a frozen dataclass: recovery
    decodes one per durable record it reads. Treat instances as
    immutable all the same.

    >>> RedoRecord(1, 2, 3, b"abcd").size_bytes
    28
    """

    __slots__ = ("lsn", "page_id", "offset", "data")

    def __init__(self, lsn: int, page_id: int, offset: int, data: bytes) -> None:
        self.lsn = lsn
        self.page_id = page_id
        self.offset = offset
        self.data = data

    @property
    def size_bytes(self) -> int:
        return _RECORD_HEADER_BYTES + len(self.data)

    def __repr__(self) -> str:
        return (
            f"RedoRecord(lsn={self.lsn!r}, page_id={self.page_id!r}, "
            f"offset={self.offset!r}, data={self.data!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RedoRecord):
            return NotImplemented
        return (
            self.lsn == other.lsn
            and self.page_id == other.page_id
            and self.offset == other.offset
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.lsn, self.page_id, self.offset, self.data))


def _headers(log: Union[bytes, bytearray]) -> Iterator[tuple[int, int, int, int, int]]:
    """``(start, lsn, page_id, offset, end)`` of every record in ``log``;
    the after-image is ``log[start + 24:end]``."""
    unpack_from = _HEADER.unpack_from
    pos, size = 0, len(log)
    while pos < size:
        lsn, page_id, offset, length = unpack_from(log, pos)
        end = pos + _RECORD_HEADER_BYTES + length
        yield pos, lsn, page_id, offset, end
        pos = end


def _prefix_through(log: Union[bytes, bytearray], lsn: int) -> int:
    """Length of ``log``'s prefix before its first record above ``lsn``."""
    for start, record_lsn, _, _, _ in _headers(log):
        if record_lsn > lsn:
            return start
    return len(log)


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
        self._buffer = bytearray()
        self._buffered = 0  # records in the buffer
        self._buffer_max_lsn = 0  # LSN of the last buffered record
        # The durable log: sealed ``(first LSN, last LSN, compressed
        # bytes)`` segments, oldest first, then the open tail.
        self._sealed: list[tuple[int, int, bytes]] = []
        self._tail = bytearray()
        self._durable_max_lsn = 0  # LSN of the last durable record
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
        buffer = self._buffer
        buffer += _HEADER.pack(lsn, page_id, offset, len(data))
        buffer += data
        self._buffered += 1
        self._buffer_max_lsn = lsn
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
            nbytes = len(self._buffer)
            tracer = PROBES.tracer
            if tracer is not None:
                tracer.count("wal.records_flushed", self._buffered)
                tracer.count("wal.bytes_flushed", nbytes)
            self._tail += self._buffer
            self._durable_max_lsn = self._buffer_max_lsn
            if len(self._tail) >= _SEGMENT_BYTES:
                self._seal()
            self._buffer.clear()
            self._buffered = 0
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

    def _seal(self) -> None:
        """Turn the whole tail into one compressed segment."""
        first = _HEADER.unpack_from(self._tail)[0]
        packed = zlib.compress(self._tail, _ZLIB_LEVEL)
        self._sealed.append((first, self._durable_max_lsn, packed))
        self._tail = bytearray()

    def _chunks(self, after_lsn: int) -> Iterator[Union[bytes, bytearray]]:
        """The durable log's bytes, oldest first: each sealed segment that
        holds a record above ``after_lsn``, decompressed, then the tail.

        A segment is skipped on its last LSN, so this relies on the
        durable log being LSN-ordered (:meth:`verify_ordered` reads every
        record and checks exactly that).
        """
        for _, last, packed in self._sealed:
            if last > after_lsn:
                yield zlib.decompress(packed)
        yield self._tail

    # -- durability state ------------------------------------------------------------

    @property
    def durable_max_lsn(self) -> int:
        if self._sealed or self._tail:
            return self._durable_max_lsn
        return self._checkpoint_lsn

    @property
    def buffered_records(self) -> int:
        return self._buffered

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def checkpoint_lsn(self) -> int:
        return self._checkpoint_lsn

    # -- crash / recovery ---------------------------------------------------------------

    def crash(self) -> int:
        """Drop the volatile buffer; returns the number of records lost."""
        lost = self._buffered
        self._buffer.clear()
        self._buffered = 0
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
        records = []
        nbytes = 0
        for log in self._chunks(lsn_exclusive):
            for start, lsn, page_id, offset, end in _headers(log):
                if lsn > lsn_exclusive:
                    data = bytes(log[start + _RECORD_HEADER_BYTES : end])
                    records.append(RedoRecord(lsn, page_id, offset, data))
                    nbytes += end - start
        if self.meter is not None and records:
            self.meter.charge_transfer(
                "storage", nbytes, base_ns=self.config.storage_read_base_ns
            )
        return records

    def set_checkpoint(self, lsn: int) -> None:
        """Advance the checkpoint; durable records at or below are pruned.

        Sealed segments wholly at or below ``lsn`` are dropped unread;
        the one segment ``lsn`` falls inside is re-cut and re-sealed.
        """
        if lsn < self._checkpoint_lsn:
            raise ValueError("checkpoint LSN moved backwards")
        self._checkpoint_lsn = lsn
        sealed = self._sealed
        dropped = 0
        while dropped < len(sealed) and sealed[dropped][1] <= lsn:
            dropped += 1
        del sealed[:dropped]
        if not sealed:
            del self._tail[: _prefix_through(self._tail, lsn)]
        elif sealed[0][0] <= lsn:
            _, last, packed = sealed[0]
            log = zlib.decompress(packed)
            rest = log[_prefix_through(log, lsn) :]
            first = _HEADER.unpack_from(rest)[0]
            sealed[0] = (first, last, zlib.compress(rest, _ZLIB_LEVEL))

    def snapshot(self) -> tuple:
        return (
            self._next_lsn,
            bytes(self._buffer),
            self._buffered,
            self._buffer_max_lsn,
            tuple(self._sealed),
            bytes(self._tail),
            self._durable_max_lsn,
            self._checkpoint_lsn,
            self.flushes,
            self.bytes_flushed,
        )

    def restore(self, state: tuple) -> None:
        (
            self._next_lsn,
            buffer,
            self._buffered,
            self._buffer_max_lsn,
            sealed,
            tail,
            self._durable_max_lsn,
            self._checkpoint_lsn,
            self.flushes,
            self.bytes_flushed,
        ) = state
        self._buffer = bytearray(buffer)
        self._sealed = list(sealed)
        self._tail = bytearray(tail)

    def verify_ordered(self) -> bool:
        """Invariant check: durable log is strictly LSN-increasing."""
        previous = -1
        for log in self._chunks(-1):
            for _, lsn, _, _, _ in _headers(log):
                if lsn <= previous:
                    return False
                previous = lsn
        return True
