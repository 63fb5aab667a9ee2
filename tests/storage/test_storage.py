"""Durable storage: page store, redo log, checkpointing."""

import pytest

from repro.db.constants import PAGE_SIZE
from repro.hardware.memory import AccessMeter
from repro.storage.checkpoint import Checkpointer
from repro.storage.pagestore import PageStore
from repro.storage.wal import RedoLog, RedoRecord


@pytest.fixture
def meter():
    return AccessMeter()


@pytest.fixture
def store(meter):
    return PageStore(PAGE_SIZE, meter)


@pytest.fixture
def redo(meter):
    return RedoLog(meter)


class TestPageStore:
    def test_write_read_roundtrip(self, store):
        image = bytes(range(256)) * 64
        store.write_page(7, image)
        assert store.read_page(7) == image
        assert store.exists(7)

    def test_wrong_size_rejected(self, store):
        with pytest.raises(ValueError):
            store.write_page(1, b"short")

    def test_missing_page_raises(self, store):
        with pytest.raises(KeyError):
            store.read_page(99)

    def test_io_is_metered(self, store, meter):
        store.write_page(1, b"\x00" * PAGE_SIZE)
        store.read_page(1)
        assert meter.counters["storage_ops"] == 2
        assert meter.counters["storage_bytes"] == 2 * PAGE_SIZE

    def test_unmetered_read_free(self, store, meter):
        store.write_page(1, b"\x00" * PAGE_SIZE)
        meter.reset()
        store.read_page_unmetered(1)
        assert meter.counters == {}

    def test_len_and_iteration(self, store):
        for page_id in (3, 1, 2):
            store.write_page(page_id, b"\x00" * PAGE_SIZE)
        assert len(store) == 3
        assert sorted(store.page_ids()) == [1, 2, 3]


class TestRedoLog:
    def test_lsns_monotonic(self, redo):
        lsns = [redo.append(1, 0, b"x") for _ in range(5)]
        assert lsns == [1, 2, 3, 4, 5]

    def test_flush_moves_buffer_to_durable(self, redo):
        redo.append(1, 0, b"a")
        redo.append(2, 8, b"b")
        assert redo.buffered_records == 2
        assert redo.durable_max_lsn == 0
        max_lsn = redo.flush()
        assert max_lsn == 2
        assert redo.buffered_records == 0
        assert len(redo.records_since(0)) == 2

    def test_flush_charges_wal_pipe(self, redo, meter):
        redo.append(1, 0, b"data")
        redo.flush()
        assert meter.counters["wal_ops"] == 1
        assert meter.counters["wal_bytes"] > len(b"data")

    def test_empty_flush_is_free(self, redo, meter):
        redo.flush()
        assert "wal_ops" not in meter.counters

    def test_crash_drops_buffer_only(self, redo):
        redo.append(1, 0, b"durable")
        redo.flush()
        redo.append(1, 8, b"lost")
        assert redo.crash() == 1
        records = redo.records_since(0)
        assert [record.data for record in records] == [b"durable"]

    def test_recover_lsn_counter(self, redo):
        redo.append(1, 0, b"a")
        redo.flush()
        redo.append(1, 0, b"b")  # lsn 2, lost
        redo.crash()
        redo.recover_lsn_counter()
        assert redo.append(1, 0, b"c") == 2  # reuses the lost LSN slot

    def test_records_since_filters(self, redo):
        for i in range(5):
            redo.append(1, i, bytes([i]))
        redo.flush()
        assert [record.lsn for record in redo.records_since(3)] == [4, 5]

    def test_checkpoint_prunes(self, redo):
        for i in range(4):
            redo.append(1, i, b"x")
        redo.flush()
        redo.set_checkpoint(2)
        assert [record.lsn for record in redo.records_since(0)] == [3, 4]
        assert redo.checkpoint_lsn == 2

    def test_checkpoint_cannot_regress(self, redo):
        redo.set_checkpoint(5)
        with pytest.raises(ValueError):
            redo.set_checkpoint(3)

    def test_durable_max_respects_checkpoint_when_empty(self, redo):
        redo.append(1, 0, b"x")
        redo.flush()
        redo.set_checkpoint(1)
        assert redo.durable_max_lsn == 1

    def test_ordering_invariant(self, redo):
        for i in range(10):
            redo.append(i % 3, 0, b"r")
        redo.flush()
        assert redo.verify_ordered()

    def test_a_reused_lsn_is_out_of_order(self, redo):
        redo.append(1, 0, b"a")
        redo.recover_lsn_counter()  # no crash: buffered LSN 1 is handed out again
        redo.append(1, 0, b"b")
        redo.flush()
        assert [record.lsn for record in redo.records_since(0)] == [1, 1]
        assert not redo.verify_ordered()

    def test_record_size_includes_header(self):
        record = RedoRecord(1, 2, 3, b"abcd")
        assert record.size_bytes == 24 + 4


class _FakePool:
    def __init__(self):
        self.flushes = 0

    def flush_dirty_pages(self):
        self.flushes += 1
        return 3


class TestCheckpointer:
    def test_checkpoint_flushes_then_advances(self, redo):
        pool = _FakePool()
        checkpointer = Checkpointer(redo, pool)
        redo.append(1, 0, b"x")
        lsn = checkpointer.checkpoint()
        assert lsn == 1
        assert pool.flushes == 1
        assert redo.checkpoint_lsn == 1
        assert redo.records_since(0) == []
        assert checkpointer.checkpoints_taken == 1

    def test_checkpoint_forces_buffer_flush_first(self, redo):
        pool = _FakePool()
        checkpointer = Checkpointer(redo, pool)
        redo.append(1, 0, b"buffered")
        # Without an explicit flush, the buffered record must still be
        # durable before the checkpoint advances past it.
        lsn = checkpointer.checkpoint()
        assert lsn == 1
        assert redo.buffered_records == 0
