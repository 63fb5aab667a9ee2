"""DES kernel: events, timeouts, processes, ordering, all_of."""

import pytest

from repro.sim.core import SimError, Timeout


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("hello")
        sim.run()
        assert seen == ["hello"]

    def test_succeed_twice_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimError):
            event.succeed()

    def test_delayed_succeed_fires_at_right_time(self, sim):
        event = sim.event()
        fired_at = []
        event.callbacks.append(lambda e: fired_at.append(sim.now))
        event.succeed(delay=500)
        sim.run()
        assert fired_at == [500]


class TestTimeout:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            Timeout(sim, -1)

    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(1000)
            return sim.now

        assert sim.run_process(proc()) == 1000

    def test_zero_timeout_allowed(self, sim):
        def proc():
            yield sim.timeout(0)
            return "done"

        assert sim.run_process(proc()) == "done"


class TestProcess:
    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(10)
            yield sim.timeout(20)
            yield sim.timeout(30)
            return sim.now

        assert sim.run_process(proc()) == 60

    def test_process_return_value_via_parent(self, sim):
        def child():
            yield sim.timeout(5)
            return 42

        def parent():
            value = yield sim.process(child())
            return value + 1

        assert sim.run_process(parent()) == 43

    def test_yielding_non_event_raises(self, sim):
        def proc():
            yield 123

        with pytest.raises(SimError):
            sim.run_process(proc())

    def test_two_processes_interleave_by_time(self, sim):
        log = []

        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((name, sim.now))

        sim.process(worker("fast", 10))
        sim.process(worker("slow", 25))
        sim.run()
        assert log == [
            ("fast", 10),
            ("fast", 20),
            ("slow", 25),
            ("fast", 30),
            ("slow", 50),
            ("slow", 75),
        ]

    def test_fifo_order_for_simultaneous_events(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(10)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestRun:
    def test_run_until_stops_the_clock(self, sim):
        def proc():
            yield sim.timeout(1000)

        sim.process(proc())
        sim.run(until=300)
        assert sim.now == 300

    def test_run_until_past_queue_sets_now(self, sim):
        sim.run(until=5000)
        assert sim.now == 5000

    def test_deadlock_detected(self, sim):
        def proc():
            yield sim.event()  # never succeeds

        with pytest.raises(SimError, match="deadlock"):
            sim.run_process(proc())


class TestAllOf:
    def test_waits_for_every_event(self, sim):
        def proc():
            events = [sim.timeout(30, value="x"), sim.timeout(10, value="y")]
            values = yield sim.all_of(events)
            return sim.now, values

        now, values = sim.run_process(proc())
        assert now == 30
        assert values == ["x", "y"]

    def test_empty_list_fires_immediately(self, sim):
        def proc():
            values = yield sim.all_of([])
            return values

        assert sim.run_process(proc()) == []
