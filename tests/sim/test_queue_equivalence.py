"""Property tests: the bucketed calendar queue vs a plain-heap reference.

The kernel's event queue was rewritten from a ``(time, seq, event)``
heap to a bucketed calendar (heap of distinct ticks + per-tick FIFO
batches). These tests drive *identical* random streams of
schedule/succeed operations — with heavy same-tick collisions
and cascades scheduled from inside callbacks — through the real
:class:`repro.sim.core.Simulator` and an in-test plain-heap kernel, and
require bit-identical firing logs and clocks. Boundary cases
(same-tick ordering, negative delays, ``run(until)`` edges) are pinned
explicitly.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Event, SchedulerHook, SimError, Simulator


# ---------------------------------------------------------------------------
# The reference: the pre-rewrite one-heap kernel.
# ---------------------------------------------------------------------------


class _HeapEvent:
    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self.value = None
        self.triggered = False
        self.fired = False

    def succeed(self, value=None, delay=0):
        if self.triggered:
            raise SimError("event already triggered")
        if delay < 0:
            raise SimError(f"negative delay: {delay}")
        self.triggered = True
        self.value = value
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._queue, (sim.now + delay, sim._seq, self))
        return self


class _HeapSim:
    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0

    def event(self):
        return _HeapEvent(self)

    def run(self, until=None):
        queue = self._queue
        while queue:
            at, _, event = queue[0]
            if until is not None and at > until:
                self.now = until
                return
            heapq.heappop(queue)
            self.now = at
            event.fired = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
        if until is not None:
            self.now = max(self.now, until)


# ---------------------------------------------------------------------------
# A common driver both kernels execute verbatim.
# ---------------------------------------------------------------------------

# An op stream is a list of ("s", delay): schedule a new logging event
# at now+delay. Delays are drawn 0..6 so ticks collide constantly — the
# regime the bucketed queue reorders in if it has a bug.
_OPS = st.lists(
    st.tuples(st.just("s"), st.integers(min_value=0, max_value=6)),
    min_size=1,
    max_size=80,
)


def _drive(sim, ops, until=None):
    """Apply the op stream and run; returns (firing log, final clock)."""
    log = []
    events = []

    def on_fire(event):
        log.append(("fire", sim.now, event.value))
        if event.value % 3 == 0:
            # Cascade from inside a callback: zero-delay for multiples
            # of 6 (re-entrant same-tick path), short delay otherwise.
            follow = sim.event()
            follow.callbacks.append(
                lambda e: log.append(("cascade", sim.now, e.value))
            )
            follow.succeed(event.value + 1_000, delay=0 if event.value % 6 else 2)

    for _, delay in ops:
        event = sim.event()
        event.callbacks.append(on_fire)
        event.succeed(len(events), delay=delay)
        events.append(event)
    sim.run(until)
    sim.run()
    return log, sim.now


@settings(max_examples=120, deadline=None)
@given(ops=_OPS, until=st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
def test_random_streams_fire_identically(ops, until):
    opt_log, opt_now = _drive(Simulator(), ops, until)
    ref_log, ref_now = _drive(_HeapSim(), ops, until)
    assert opt_log == ref_log
    assert opt_now == ref_now


def test_long_lcg_stream_fires_identically_hooked_or_not():
    """One long deterministic stream: 5,000 events at LCG-spread delays
    ``% 37`` (ticks collide heavily), every 7th value scheduling a
    follow-up from inside its callback, zero-delay or 5 ticks out —
    through the plain kernel, the kernel behind a default
    :class:`SchedulerHook` (the hooked path) and the heap reference."""

    def drive(sim):
        log = []

        def cascade(event):
            log.append(("fire", sim.now, event.value))
            if event.value % 7 == 0:
                follow = sim.event()
                follow.callbacks.append(lambda e: log.append(("follow", sim.now, e.value)))
                follow.succeed(event.value + 1_000_000, delay=0 if event.value % 14 else 5)

        lcg = 99991
        for i in range(5_000):
            lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
            event = sim.event()
            event.callbacks.append(cascade)
            event.succeed(i, delay=lcg % 37)
        sim.run()
        return log, sim.now

    hooked = Simulator()
    hooked.scheduler = SchedulerHook()
    reference = drive(_HeapSim())
    assert len(reference[0]) == 5_000 + 715  # every 7th value cascaded
    assert drive(Simulator()) == reference
    assert drive(hooked) == reference


# ---------------------------------------------------------------------------
# Boundary cases, pinned explicitly.
# ---------------------------------------------------------------------------


def test_same_tick_fires_in_scheduling_order():
    sim = Simulator()
    log = []
    for i in range(6):
        sim.event().succeed(None, delay=10).callbacks.append(
            lambda e, i=i: log.append(i)
        )
    sim.run()
    assert log == [0, 1, 2, 3, 4, 5]
    assert sim.now == 10


def test_interleaved_ticks_keep_scheduling_order_within_tick():
    sim = Simulator()
    log = []
    for i, delay in enumerate([5, 3, 5, 3, 5]):
        sim.event().succeed(None, delay=delay).callbacks.append(
            lambda e, i=i: log.append(i)
        )
    sim.run()
    assert log == [1, 3, 0, 2, 4]


def test_negative_delay_rejected_everywhere():
    sim = Simulator()
    with pytest.raises(SimError, match="negative"):
        sim.timeout(-1)
    with pytest.raises(SimError, match="negative"):
        sim.event().succeed(delay=-3)


def test_run_until_between_ticks_parks_the_clock():
    sim = Simulator()
    fired = []
    sim.timeout(10).callbacks.append(lambda e: fired.append(sim.now))
    sim.run(until=7)
    assert sim.now == 7 and fired == []
    sim.run(until=10)  # inclusive boundary: the tick at exactly `until` fires
    assert sim.now == 10 and fired == [10]


def test_run_until_past_drain_advances_the_clock():
    sim = Simulator()
    sim.timeout(3)
    sim.run(until=50)
    assert sim.now == 50


def test_event_double_fire_guard_survives():
    sim = Simulator()
    event = Event(sim)
    event.succeed()
    sim.run()
    with pytest.raises(SimError, match="already triggered"):
        event.succeed()
