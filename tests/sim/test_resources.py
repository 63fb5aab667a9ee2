"""Pipes (bandwidth), mutexes and readers/writers locks."""

import pytest

from repro.sim.core import SimError
from repro.sim.resources import Pipe, RWLock


class TestPipe:
    def test_occupancy_matches_rate(self, sim):
        pipe = Pipe(sim, bytes_per_second=1e9)  # 1 GB/s = 1 B/ns
        assert pipe.occupancy_ns(1000) == 1000

    def test_single_transfer_time(self, sim):
        pipe = Pipe(sim, 1e9)

        def proc():
            yield pipe.transfer(500, base_ns=100)
            return sim.now

        assert sim.run_process(proc()) == 600

    def test_fifo_serialization_builds_backlog(self, sim):
        pipe = Pipe(sim, 1e9)
        done = []

        def proc(tag):
            yield pipe.transfer(1000)
            done.append((tag, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        # Second transfer queues behind the first.
        assert done == [("a", 1000), ("b", 2000)]

    def test_backlog_reported(self, sim):
        pipe = Pipe(sim, 1e9)
        pipe.transfer(5000)
        assert pipe.backlog_ns == 5000

    def test_window_bandwidth(self, sim):
        pipe = Pipe(sim, 1e9)

        def proc():
            pipe.reset_window()
            yield pipe.transfer(4000)
            return pipe.window_bandwidth()

        bw = sim.run_process(proc())
        assert bw == pytest.approx(1e9)

    def test_negative_transfer_rejected(self, sim):
        pipe = Pipe(sim, 1e9)
        with pytest.raises(SimError):
            pipe.transfer(-1)

    def test_zero_bandwidth_rejected(self, sim):
        with pytest.raises(SimError):
            Pipe(sim, 0)

    def test_totals_accumulate(self, sim):
        pipe = Pipe(sim, 1e9)
        pipe.transfer(100)
        pipe.transfer(200)
        assert pipe.total_bytes == 300
        assert pipe.total_transfers == 2


class TestRWLock:
    def test_concurrent_readers(self, sim):
        lock = RWLock(sim)
        times = []

        def reader():
            yield lock.acquire_read()
            yield sim.timeout(100)
            times.append(sim.now)
            lock.release_read()

        sim.process(reader())
        sim.process(reader())
        sim.run()
        assert times == [100, 100]  # both held the lock simultaneously

    def test_writer_excludes_readers(self, sim):
        lock = RWLock(sim)
        log = []

        def writer():
            yield lock.acquire_write()
            yield sim.timeout(100)
            log.append(("w", sim.now))
            lock.release_write()

        def reader():
            yield sim.timeout(1)
            yield lock.acquire_read()
            log.append(("r", sim.now))
            lock.release_read()

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert log == [("w", 100), ("r", 100)]

    def test_waiting_writer_blocks_new_readers(self, sim):
        lock = RWLock(sim)
        log = []

        def first_reader():
            yield lock.acquire_read()
            yield sim.timeout(100)
            lock.release_read()

        def writer():
            yield sim.timeout(1)
            yield lock.acquire_write()
            log.append(("w", sim.now))
            yield sim.timeout(50)
            lock.release_write()

        def late_reader():
            yield sim.timeout(2)
            yield lock.acquire_read()
            log.append(("r", sim.now))
            lock.release_read()

        sim.process(first_reader())
        sim.process(writer())
        sim.process(late_reader())
        sim.run()
        # Writer goes before the late reader despite the reader arriving
        # while the first read lock was held.
        assert log == [("w", 100), ("r", 150)]

    def test_would_block_predicates(self, sim):
        lock = RWLock(sim)
        assert not lock.read_would_block()
        assert not lock.write_would_block()
        lock.acquire_read()
        assert not lock.read_would_block()
        assert lock.write_would_block()
        lock.release_read()
        lock.acquire_write()
        assert lock.read_would_block()
        assert lock.write_would_block()

    def test_release_errors(self, sim):
        lock = RWLock(sim)
        with pytest.raises(SimError):
            lock.release_read()
        with pytest.raises(SimError):
            lock.release_write()
