"""Discrete-event simulation kernel.

A small, dependency-free, simpy-flavoured event loop. Simulated time is an
integer number of nanoseconds. Model code runs inside *processes*: plain
Python generators that yield :class:`Event` objects (timeouts, resource
grants, ...) and are resumed when the event fires.

The kernel is deliberately minimal: events fire exactly once, processes
wait on exactly one event at a time, and everything is deterministic given
a deterministic model. That is all the reproduction needs, and it keeps
the scheduler fast enough to push millions of events per benchmark run.

The hot path is tuned for CPython (see PERFORMANCE.md). The event queue
is a *bucketed calendar*: a heap of distinct fire times plus a dict
mapping each time to the events due then (a bare event for the common
singleton case, a list once a second event lands on the same tick).
Real workloads schedule most events in same-tick batches — the settle
layer's batched pipe transfers, zero-delay resource grants, process
bootstraps — so one heap operation typically retires a whole batch, and
batch members cost one list append instead of a tuple push. Within a
tick events fire in scheduling order, which is exactly the ``(time,
seq)`` order of a plain heap: the firing order is bit-identical to the
heap reference kernel (asserted by
``tests/sim/test_queue_equivalence``). On top of that,
:class:`Timeout` construction writes the event slots directly instead of
chaining through ``Event.__init__`` + :meth:`Event.succeed`, the
:meth:`Simulator.run` loop fires events inline without a per-event
method call, and each :class:`Process` caches one bound resume callback
for its whole life instead of materialising a new bound method per
yield.

Example — two processes racing on a shared clock::

    >>> sim = Simulator()
    >>> log = []
    >>> def worker(name, delay):
    ...     yield sim.timeout(delay)
    ...     log.append((sim.now, name))
    ...     return name
    >>> p1 = sim.process(worker("slow", 30))
    >>> p2 = sim.process(worker("fast", 10))
    >>> sim.run()
    >>> log
    [(10, 'fast'), (30, 'slow')]
    >>> (p1.value, p2.value)
    ('slow', 'fast')
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "SchedulerHook",
    "Simulator",
    "SimError",
]


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class SchedulerHook:
    """Pluggable scheduling strategy for controllable runs.

    Installed via :attr:`Simulator.scheduler` *before* ``run()``, the
    hook turns every same-tick multi-ready batch into a *decision
    point*: the kernel fires one event at a time and asks
    :meth:`choose` which of the runnable continuations goes next.
    Same-tick cascades (zero-delay chains scheduled from inside a
    firing callback) join the open decision scope of their tick, so RPC
    admission order, lock grant order, and plain bucket ties are all
    the same kind of choice.

    The base class is the default strategy: always pick the head of the
    ready list, which reproduces the uninstrumented kernel's scheduling
    order bit-for-bit (pinned by ``tests/sim/test_scheduler_hook`` and
    ``tests/sim/test_queue_equivalence``). Subclasses override
    :meth:`choose` to explore alternative interleavings and
    :meth:`admit`/:meth:`step` to observe arrivals and firings —
    ``repro.analysis.explore`` builds its DFS model checker on exactly
    these three methods.
    """

    def admit(self, sim: "Simulator", events: list["Event"]) -> None:
        """Events joined the current tick's ready list, in arrival order."""

    def choose(self, sim: "Simulator", ready: list["Event"]) -> int:
        """Pick the index of the next event to fire (``len(ready) >= 2``)."""
        return 0

    def step(self, sim: "Simulator", event: "Event") -> None:
        """``event`` is about to fire (its callbacks run next)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` schedules it to fire
    at the current simulation time, after which every registered callback
    runs with the event as argument. Events carry an optional value that is
    delivered to the waiting process as the result of its ``yield``.

    >>> sim = Simulator()
    >>> event = sim.event()
    >>> event.triggered
    False
    >>> _ = event.succeed("payload", delay=5)
    >>> sim.run()
    >>> (sim.now, event.value)
    (5, 'payload')
    """

    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_fired")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._fired = False

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Schedule this event to fire ``delay`` ns from now.

        ``delay`` must be non-negative: an event may not fire in the
        simulated past (time travel would silently reorder work that
        already happened).
        """
        if self._triggered:
            raise SimError("event already triggered")
        if delay < 0:
            raise SimError(f"negative delay: {delay}")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        at = sim.now + delay
        buckets = sim._buckets
        existing = buckets.setdefault(at, self)
        if existing is self:
            heapq.heappush(sim._times, at)
        elif type(existing) is list:
            existing.append(self)
        else:
            buckets[at] = [existing, self]
        return self


class Timeout(Event):
    """An event that fires after a fixed delay.

    >>> sim = Simulator()
    >>> _ = sim.timeout(25, value="done")
    >>> sim.run()
    >>> sim.now
    25
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        # Fast path: a timeout is born triggered, so skip Event.__init__ +
        # succeed() and write the slots directly (one call frame instead
        # of three on the kernel's single hottest allocation site).
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._triggered = True
        self._fired = False
        sim._seq += 1
        at = sim.now + int(delay)
        buckets = sim._buckets
        existing = buckets.setdefault(at, self)
        if existing is self:
            heapq.heappush(sim._times, at)
        elif type(existing) is list:
            existing.append(self)
        else:
            buckets[at] = [existing, self]


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator may yield any :class:`Event`. When the yielded event
    fires, the generator is resumed with the event's value. The process's
    own value (visible to a parent waiting on it) is the generator's
    return value.

    >>> sim = Simulator()
    >>> def child():
    ...     yield sim.timeout(7)
    ...     return 42
    >>> def parent():
    ...     result = yield sim.process(child())
    ...     return result * 2
    >>> sim.run_process(parent())
    84
    """

    __slots__ = ("generator", "name", "_step")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # One bound method for the process's whole life: every yield
        # re-registers the same callback object instead of building a
        # fresh bound method per resumption.
        self._step = self._resume
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._step)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        try:
            target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target._fired:
            raise SimError(
                f"process {self.name!r} waits on an event that already fired"
            )
        target.callbacks.append(self._step)


class Simulator:
    """The event loop: a bucketed calendar of per-tick event batches.

    ``_times`` is a heap of distinct fire times; ``_buckets`` maps each
    time to either a single event or the list of events due then, in
    scheduling order. ``_seq`` counts every scheduled event (statistics
    and the tie-break contract both survive from the plain-heap kernel:
    within a tick, scheduling order is firing order).

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(100)
    ...     return "hello at %d" % sim.now
    >>> sim.run_process(hello())
    'hello at 100'
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._times: list[int] = []
        self._buckets: dict[int, Union[Event, list[Event]]] = {}
        self._seq = 0
        self._processes = 0
        # Controllable-scheduling strategy; None keeps the tuned fast
        # path below byte-identical to the pre-hook kernel.
        self.scheduler: Optional[SchedulerHook] = None

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> tuple[int, int, int]:
        """Clock, sequence and process count of a *quiescent* simulator:
        pending events hold generators and callbacks, which no snapshot
        can own."""
        if self._times:
            raise SimError("cannot snapshot a simulator with pending events")
        return self.now, self._seq, self._processes

    def restore(self, state: tuple[int, int, int]) -> None:
        if self._times:
            raise SimError("cannot restore into a simulator with pending events")
        self.now, self._seq, self._processes = state

    # -- construction helpers -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        self._processes += 1
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every listed event has fired."""
        events = list(events)
        done = self.event()
        remaining = len(events)
        if remaining == 0:
            return done.succeed([])
        if remaining == 1:
            # Common case (one batched pipe transfer per settle): a single
            # wrapper callback, no per-index closure bookkeeping.
            event = events[0]
            if event._fired:
                raise SimError("all_of: event already fired")
            event.callbacks.append(lambda e: done.succeed([e._value]))
            return done
        values: list[Any] = [None] * remaining

        def mark(index: int) -> Callable[[Event], None]:
            def _cb(event: Event) -> None:
                nonlocal remaining
                values[index] = event._value
                remaining -= 1
                if remaining == 0:
                    done.succeed(values)

            return _cb

        for i, event in enumerate(events):
            if event._fired:
                raise SimError("all_of: event already fired")
            event.callbacks.append(mark(i))
        return done

    # -- scheduling -----------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if self.scheduler is not None:
            self._run_hooked(until)
            return
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        # The event-firing logic is inlined: one Python call frame per
        # event is the dominant kernel cost at millions of events per
        # benchmark run. Each heap pop retires a whole tick;
        # events scheduled *at* the tick being fired (zero-delay chains)
        # open a fresh bucket for the same time, which re-enters the heap
        # and is drained next — preserving exact scheduling order.
        while times:
            at = times[0]
            if until is not None and at > until:
                self.now = until
                return
            heappop(times)
            self.now = at
            entry = buckets.pop(at)
            if type(entry) is list:
                for event in entry:
                    if event._fired:
                        raise SimError("event fired twice")
                    event._fired = True
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = []
                        for callback in callbacks:
                            callback(event)
            else:
                event = entry
                if event._fired:
                    raise SimError("event fired twice")
                event._fired = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
        if until is not None:
            self.now = max(self.now, until)

    def _run_hooked(self, until: Optional[int]) -> None:
        """The controllable loop: one event per step, strategy-chosen.

        Semantics match :meth:`run` exactly under the default
        head-choice strategy: the original batch fires in scheduling
        order and same-tick cascades append behind it, which is the
        same total order the fast path produces by draining the batch
        and then the cascades' fresh bucket. The only difference is
        observability — every arrival, choice, and firing flows through
        the installed :class:`SchedulerHook`.
        """
        hook = self.scheduler
        assert hook is not None
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        while times:
            at = times[0]
            if until is not None and at > until:
                self.now = until
                return
            heappop(times)
            self.now = at
            entry = buckets.pop(at)
            ready = entry if type(entry) is list else [entry]
            hook.admit(self, ready)
            while ready:
                if len(ready) == 1:
                    event = ready.pop()
                else:
                    index = hook.choose(self, ready)
                    if not 0 <= index < len(ready):
                        raise SimError(
                            f"scheduler chose index {index} of {len(ready)}"
                        )
                    event = ready.pop(index)
                hook.step(self, event)
                if event._fired:
                    raise SimError("event fired twice")
                event._fired = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                # Same-tick cascades opened a fresh bucket for `at` (and
                # re-pushed the tick); merge them into this decision
                # scope so their ordering is a choice too.
                extra = buckets.pop(at, None)
                if extra is not None:
                    popped = heappop(times)
                    assert popped == at
                    extra_list = extra if type(extra) is list else [extra]
                    hook.admit(self, extra_list)
                    ready.extend(extra_list)
        if until is not None:
            self.now = max(self.now, until)

    def run_process(self, generator: Generator[Event, Any, Any]) -> Any:
        """Spawn ``generator`` and run the loop until it completes."""
        proc = self.process(generator)
        self.run()
        if not proc.triggered:
            raise SimError("process did not complete (deadlock?)")
        return proc.value
