"""The column rings of the tracer against a naive executable spec.

``SpecTracer`` below is the tracer's ring written the plain way: one
list of ``(seq, t, subsystem, name, fields)`` tuples per subsystem,
the oldest popped when it is full. A hypothesis state machine drives it
and the real :class:`~repro.obs.trace.Tracer` through the same calls —
emits of zero to three fields in repeated and new shapes, counts, a
clock attached late or never, reads of every subsystem or a few — at
ring capacities of one to four events, so rings wrap and drop, and
after every step requires the same events, drops and counters. A size
guard pins what an event costs.
"""

import gc
import tracemalloc

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.obs import Tracer


class SpecTracer:
    """The tracer's ring semantics, spelt out over lists."""

    def __init__(self, capacity, clock=None):
        self.capacity, self.clock = capacity, clock
        self.rings, self.dropped, self.counts, self.seq = {}, {}, {}, 0

    def emit(self, subsystem, name, **fields):
        ring = self.rings.setdefault(subsystem, [])
        if len(ring) == self.capacity:
            ring.pop(0)
            self.dropped[subsystem] = self.dropped.get(subsystem, 0) + 1
        self.seq += 1
        t = self.clock() if self.clock is not None else 0.0
        ring.append((self.seq, t, subsystem, name, dict(fields)))

    def count(self, name, amount=1.0):
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def attach_clock(self, clock):
        self.clock = clock

    def events(self, *subsystems):
        chosen = subsystems or list(self.rings)
        return sorted((e for sub in chosen for e in self.rings.get(sub, [])), key=lambda e: e[0])

    @property
    def total_dropped(self):
        return sum(self.dropped.values())


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _read(events):
    return [(e.seq, e.t, e.subsystem, e.name, list(e.fields.items()), e.key) for e in events]


def _spec_read(events):
    return [(seq, t, sub, name, list(fields.items()), f"{sub}.{name}")
            for seq, t, sub, name, fields in events]


SUBSYSTEMS = st.sampled_from(["sharing", "wal", "lock", "mem"])
FIELDS = st.dictionaries(
    st.sampled_from(["page", "node", "lsn", "lines"]),
    st.one_of(st.integers(-5, 70000), st.sampled_from(["n0", "n1", None, (1, 2)])),
    max_size=3,
)


class TraceRingMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(1, 4), with_clock=st.booleans())
    def start(self, capacity, with_clock):
        self.clock = Clock()
        clock = self.clock if with_clock else None
        self.real = Tracer(capacity_per_subsystem=capacity, clock=clock)
        self.spec = SpecTracer(capacity, clock=clock)
        self.held = []

    @rule(subsystem=SUBSYSTEMS, name=st.sampled_from(["flush", "append", "x"]), fields=FIELDS)
    def emit(self, subsystem, name, fields):
        self.real.emit(subsystem, name, **fields)
        self.spec.emit(subsystem, name, **fields)

    @rule(name=st.sampled_from(["a.b", "c"]), amount=st.sampled_from([1.0, 2, 0.5]))
    def count(self, name, amount):
        self.real.count(name, amount)
        self.spec.count(name, amount)

    @rule()
    def attach_clock(self):
        self.real.attach_clock(self.clock)
        self.spec.attach_clock(self.clock)

    @rule(dt=st.sampled_from([0.5, 3.0, 250.0]))
    def tick(self, dt):
        self.clock.now += dt

    @rule(subsystems=st.lists(SUBSYSTEMS | st.just("absent"), max_size=3))
    def read(self, subsystems):
        real, spec = self.real.events(*subsystems), self.spec.events(*subsystems)
        assert len(real) == len(spec)
        assert _read(real) == _spec_read(spec)
        assert _read(real[i] for i in range(-len(real), len(real))) == _spec_read(spec + spec)
        assert _read(real[1::2]) == _spec_read(spec[1::2])
        self.held.append((real, len(spec)))

    @invariant()
    def same_everything(self):
        real, spec = self.real, self.spec
        assert _read(real.events()) == _spec_read(spec.events())
        assert (real.dropped, real.total_dropped) == (spec.dropped, spec.total_dropped)
        assert real.counters.snapshot() == dict(sorted(spec.counts.items()))
        assert real.subsystems() == sorted(spec.rings)
        # A sequence taken earlier keeps the length it had.
        assert [len(events) for events, _ in self.held] == [n for _, n in self.held]


TraceRingMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestTraceRingAgainstSpec = TraceRingMachine.TestCase


def test_two_field_events_retain_at_most_128_bytes_each():
    """10,000 ``sharing.drop``-shaped emits, each with a fresh page
    number, stay within 128 B an event; an object, a float and the
    kwargs dict per event took 328."""
    nodes = [f"n{i}" for i in range(4)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracer = Tracer()
        for page in range(10_000):
            tracer.emit("sharing", "drop", node=nodes[page % 4], page=70_000 + page)
        gc.collect()
        per_event = (tracemalloc.get_traced_memory()[0] - before) / 10_000
    finally:
        tracemalloc.stop()
    assert len(tracer.events()) == 10_000
    assert per_event <= 128, f"{per_event:.0f} B per event"
