"""The byte log against the list-of-records log it replaced.

``ListRedoLog`` below is the redo log as it was before records became
bytes: a volatile list and a durable list of records, filtered and
summed in Python. Any sequence of appends, flushes, crashes, checkpoints,
LSN alignments and snapshot/restore round trips must leave the real
:class:`RedoLog` reading exactly what the model reads, and charging the
same bytes. The same ops run again with segments of 1 and 64 bytes, so
every flush (or every few) seals and the sealed path is read, pruned,
re-cut and restored. A second guard pins what a durable record costs in
memory, and the last four pin the spill files the sealed segments live
in: never overwritten, never pickled, never shared with another process,
closed once full and no longer named.
"""

import os
import pickle
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import AccessMeter
from repro.storage import wal
from repro.storage.wal import RedoLog, RedoRecord

from ..conftest import swap_durable_records


class ListRedoLog:
    """The redo log as lists of records (no charges, no probes)."""

    def __init__(self):
        self.next_lsn, self.checkpoint_lsn = 1, 0
        self.buffer, self.durable = [], []
        self.flushes = self.bytes_flushed = 0

    def append(self, page_id, offset, data):
        lsn, self.next_lsn = self.next_lsn, self.next_lsn + 1
        self.buffer.append(RedoRecord(lsn, page_id, offset, bytes(data)))
        return lsn

    def flush(self):
        if self.buffer:
            self.bytes_flushed += sum(record.size_bytes for record in self.buffer)
            self.flushes += 1
            self.durable.extend(self.buffer)
            self.buffer = []
        return self.durable_max_lsn

    @property
    def durable_max_lsn(self):
        return self.durable[-1].lsn if self.durable else self.checkpoint_lsn

    def crash(self):
        lost, self.buffer = len(self.buffer), []
        return lost

    def recover_lsn_counter(self):
        self.next_lsn = self.durable_max_lsn + 1

    def align_lsn(self, floor):
        self.next_lsn = max(self.next_lsn, floor + 1)

    def records_since(self, lsn):
        return [record for record in self.durable if record.lsn > lsn]

    def set_checkpoint(self, lsn):
        if lsn < self.checkpoint_lsn:
            raise ValueError("checkpoint LSN moved backwards")
        self.checkpoint_lsn = lsn
        self.durable = [record for record in self.durable if record.lsn > lsn]

    def snapshot(self):
        return (self.next_lsn, tuple(self.buffer), tuple(self.durable),
                self.checkpoint_lsn, self.flushes, self.bytes_flushed)

    def restore(self, state):
        (self.next_lsn, buffer, durable, self.checkpoint_lsn,
         self.flushes, self.bytes_flushed) = state
        self.buffer, self.durable = list(buffer), list(durable)

    def verify_ordered(self):
        return all(a.lsn < b.lsn for a, b in zip(self.durable, self.durable[1:]))


wal_ops = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 2**40), st.integers(0, 16383),
              st.binary(max_size=40)),
    st.tuples(st.just("append"), st.integers(0, 3), st.integers(0, 64), st.binary(max_size=8)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("crash")),  # a power cycle: buffer lost, LSNs resume past the durable max
    st.tuples(st.just("checkpoint"), st.integers(0, 40)),
    st.tuples(st.just("align"), st.integers(0, 40)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 3)),
)


def _read_same(real: RedoLog, model: ListRedoLog) -> int:
    """Compare every reading of the two logs; returns the bytes the real
    log's ``records_since`` calls should have charged."""
    charged = 0
    for lsn in {0, model.checkpoint_lsn, model.next_lsn // 2}:
        records = model.records_since(lsn)
        assert real.records_since(lsn) == records
        charged += sum(record.size_bytes for record in records)
    assert real.durable_max_lsn == model.durable_max_lsn
    assert real.next_lsn == model.next_lsn
    assert real.checkpoint_lsn == model.checkpoint_lsn
    assert real.buffered_records == len(model.buffer)
    assert (real.flushes, real.bytes_flushed) == (model.flushes, model.bytes_flushed)
    assert real.verify_ordered() == model.verify_ordered()
    assert len(real._tail) < wal._SEGMENT_BYTES  # every flush that could seal did
    if model.checkpoint_lsn == 0:  # nothing pruned: the log is every byte flushed
        assert sum(map(len, real._chunks(-1))) == real.bytes_flushed
    return charged


def _run_both(ops) -> None:
    meter = AccessMeter()
    real, model, saved = RedoLog(meter), ListRedoLog(), []
    read_bytes = wal_bytes = 0
    for kind, *args in ops:
        if kind == "append":
            assert real.append(*args) == model.append(*args)
        elif kind == "flush":
            wal_bytes -= model.bytes_flushed
            assert real.flush() == model.flush()
            wal_bytes += model.bytes_flushed
        elif kind == "crash":
            assert real.crash() == model.crash()
            real.recover_lsn_counter()
            model.recover_lsn_counter()
        elif kind == "checkpoint" and args[0] < model.checkpoint_lsn:
            with pytest.raises(ValueError):
                real.set_checkpoint(*args)
        elif kind == "checkpoint":
            real.set_checkpoint(*args)
            model.set_checkpoint(*args)
        elif kind == "align":
            real.align_lsn(*args)
            model.align_lsn(*args)
        elif kind == "snapshot":
            saved.append((real.snapshot(), model.snapshot()))
        elif saved:
            real_state, model_state = saved[args[0] % len(saved)]
            real.restore(real_state)
            model.restore(model_state)
        read_bytes += _read_same(real, model)
    assert meter.counters.get("storage_bytes", 0.0) == read_bytes
    assert meter.counters.get("wal_bytes", 0.0) == wal_bytes


@settings(max_examples=200, deadline=None)
@given(st.lists(wal_ops, max_size=60))
def test_byte_log_reads_what_the_list_log_reads(ops):
    _run_both(ops)


@pytest.mark.parametrize("segment_bytes", [1, 64])
@settings(max_examples=200, deadline=None)
@given(ops=st.lists(wal_ops, max_size=60))
def test_sealed_segments_read_what_the_list_log_reads(segment_bytes, ops):
    with mock.patch.object(wal, "_SEGMENT_BYTES", segment_bytes):
        _run_both(ops)


def test_a_durable_record_costs_its_bytes():
    """No checkpoint: the log reads back exactly the bytes flushed. Past
    one segment (8,192 of these 32-byte records) the log is sealed into
    the spill file, off the heap, so 10,000 records cost about 6 B each
    traced, nearly all of it the open tail's 1,800 records (10 B with the
    compressed segment on the heap; 33 B as one unsealed byte log; 187 B
    as frozen dataclass records in a list)."""
    log = RedoLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for txn in range(1000):
            for field in range(10):
                log.append(txn, 8 * field, (10 * txn + field).to_bytes(8, "little"))
            log.flush()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, log._chunks(-1))) == log.bytes_flushed == 10_000 * 32
    assert len(log._sealed) == 1
    assert grown / 10_000 <= 8


def _flush_pages(log: RedoLog, pages) -> None:
    """Two 32-byte records per page, one flush per page."""
    for page in pages:
        log.append(page, 0, bytes([page]) * 8)
        log.append(page, 8, bytes([page + 1]) * 8)
        log.flush()


def test_a_snapshot_outlives_a_re_cut_and_later_seals():
    """The spill file is append-only: a checkpoint's re-cut and later
    seals write new segments, so a snapshot taken before them restores
    into a fresh log that reads back exactly its own records."""
    log = RedoLog()
    with mock.patch.object(wal, "_SEGMENT_BYTES", 64):  # every flush seals
        _flush_pages(log, range(4))
        saved, records = log.snapshot(), log.records_since(0)
        log.set_checkpoint(3)  # inside the second segment (LSNs 3 and 4)
        assert log._sealed[0][0] == 4
        _flush_pages(log, range(4, 6))
    assert len(log._sealed) == 5
    fresh = RedoLog()
    fresh.restore(saved)
    assert fresh.records_since(0) == records
    assert [record.lsn for record in records] == list(range(1, 9))
    assert fresh.verify_ordered()


def test_a_sealed_snapshot_cannot_be_pickled():
    """A sealed segment is an offset into this process's spill file, so a
    snapshot holding one must not reach another process (a spawn
    worker) as if it were the log; an unsealed snapshot still pickles."""
    log = RedoLog()
    _flush_pages(log, range(2))
    assert pickle.loads(pickle.dumps(log.snapshot())) == log.snapshot()
    with mock.patch.object(wal, "_SEGMENT_BYTES", 1):
        _flush_pages(log, range(2, 3))
    with pytest.raises(TypeError, match="sealed redo log"):
        pickle.dumps(log.snapshot())


def test_another_process_seals_into_its_own_spill_file(monkeypatch):
    """A forked child never appends to the file it inherited: its next
    seal opens a new one, and the segments sealed before still read."""
    monkeypatch.setattr(wal, "_SPILL", wal._SPILL)  # restored after the test
    log = RedoLog()
    with mock.patch.object(wal, "_SEGMENT_BYTES", 1):
        _flush_pages(log, range(2))
        monkeypatch.setattr(os, "getpid", lambda pid=os.getpid(): pid + 1)
        _flush_pages(log, range(2, 4))
    spills = [spill for _, _, spill, _, _ in log._sealed]
    assert spills[0] is spills[1] and spills[2] is spills[3]
    assert spills[1] is not spills[2] and spills[1].fd != spills[2].fd
    assert spills[2].pid == spills[1].pid + 1
    assert [record.data[:1] for record in log.records_since(0)] == [
        bytes([value]) for page in range(4) for value in (page, page + 1)
    ]


def test_a_full_spill_rotates_and_closes_once_nothing_names_it(monkeypatch):
    """A spill at its size bound takes no more segments: the next seal
    opens a fresh file. The full one stays open while a snapshot names
    one of its segments, and closes once a checkpoint and the snapshot
    have dropped them all."""
    monkeypatch.setattr(wal, "_SPILL", None)  # restored after the test
    log = RedoLog()
    with mock.patch.object(wal, "_SEGMENT_BYTES", 64), mock.patch.object(wal, "_SPILL_BYTES", 1):
        _flush_pages(log, range(4))  # every flush seals, every seal rotates
    files = [spill.file for _, _, spill, _, _ in log._sealed]
    assert len({id(file) for file in files}) == 4
    saved, records = log.snapshot(), log.records_since(0)
    log.set_checkpoint(4)  # drops the first two segments whole
    assert [segment[0] for segment in log._sealed] == [5, 7]
    assert not files[0].closed and not files[1].closed
    fresh = RedoLog()
    fresh.restore(saved)
    assert fresh.records_since(0) == records
    del saved, fresh
    assert files[0].closed and files[1].closed
    assert not files[2].closed and not files[3].closed
    assert [record.lsn for record in log.records_since(0)] == [5, 6, 7, 8]


def test_swapping_records_refuses_a_sealed_log():
    """The test helper that disorders a log edits the open tail only."""
    log = RedoLog()
    with mock.patch.object(wal, "_SEGMENT_BYTES", 1):
        for page in range(2):
            log.append(page, 0, b"x")
        log.flush()
    with pytest.raises(ValueError, match="sealed"):
        swap_durable_records(log, 0, 1)
