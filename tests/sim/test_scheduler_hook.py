"""The controllable scheduler: default strategy ≡ the tuned fast path.

`SchedulerHook` is the explorer's entry into the kernel (DESIGN.md
§14): with a hook installed the run loop fires one event at a time and
asks the strategy which of several same-tick runnable continuations
goes next. These tests pin the contract the explorer's replay tokens
depend on:

* the default strategy (``choose`` → index 0) is **bit-identical** to
  the no-hook fast path on adversarial random streams (hypothesis
  differential, same driver as ``test_queue_equivalence``);
* ``choose`` is consulted exactly at multi-runnable decisions, never
  for forced singletons;
* same-tick cascades join the *open* decision scope (their ordering is
  a choice too, not a hidden FIFO);
* out-of-range strategy choices fail loudly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import SchedulerHook, SimError, Simulator

from .test_queue_equivalence import _OPS, _drive


def _hooked_sim():
    sim = Simulator()
    sim.scheduler = SchedulerHook()
    return sim


@settings(max_examples=120, deadline=None)
@given(ops=_OPS, until=st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
def test_default_hook_is_bit_identical_to_fast_path(ops, until):
    fast_log, fast_now = _drive(Simulator(), ops, until)
    hook_log, hook_now = _drive(_hooked_sim(), ops, until)
    assert hook_log == fast_log
    assert hook_now == fast_now


def test_choose_called_only_for_multi_runnable_ticks():
    calls = []

    class Spy(SchedulerHook):
        def choose(self, sim, ready):
            calls.append(len(ready))
            return 0

    sim = Simulator()
    sim.scheduler = Spy()
    sim.timeout(1)  # singleton tick: no choice to make
    sim.timeout(5)
    sim.timeout(5)
    sim.timeout(5)  # three-way tie at t=5
    sim.run()
    assert calls == [3, 2]  # 3 runnable, then the remaining 2


def test_choice_reorders_same_tick_firing():
    class LIFO(SchedulerHook):
        def choose(self, sim, ready):
            return len(ready) - 1

    log = []
    sim = Simulator()
    sim.scheduler = LIFO()
    for i in range(4):
        sim.timeout(7).callbacks.append(lambda e, i=i: log.append(i))
    sim.run()
    assert log == [3, 2, 1, 0]
    assert sim.now == 7


def test_cascade_joins_open_decision_scope():
    # A fires at t=3 and schedules C at zero delay; B is already in the
    # bucket. The strategy must see C become choosable alongside B.
    seen = []

    class Spy(SchedulerHook):
        def choose(self, sim, ready):
            seen.append(sorted(e._value for e in ready))
            return 0

    sim = Simulator()
    sim.scheduler = Spy()
    log = []

    def fire_a(event):
        log.append("a")
        c = sim.event()
        c.callbacks.append(lambda e: log.append("c"))
        c.succeed("c", delay=0)

    a = sim.event()
    a.callbacks.append(fire_a)
    a.succeed("a", delay=3)
    b = sim.event()
    b.callbacks.append(lambda e: log.append("b"))
    b.succeed("b", delay=3)
    sim.run()
    assert log == ["a", "b", "c"]  # default order: FIFO, cascade last
    assert seen == [["a", "b"], ["b", "c"]]
    assert sim.now == 3


def test_out_of_range_choice_raises():
    class Bad(SchedulerHook):
        def choose(self, sim, ready):
            return len(ready)

    sim = Simulator()
    sim.scheduler = Bad()
    sim.timeout(2)
    sim.timeout(2)
    with pytest.raises(SimError, match="scheduler chose index"):
        sim.run()


def test_hooked_run_until_parks_and_resumes():
    sim = _hooked_sim()
    fired = []
    sim.timeout(10).callbacks.append(lambda e: fired.append(sim.now))
    sim.run(until=7)
    assert sim.now == 7 and fired == []
    sim.run(until=10)
    assert sim.now == 10 and fired == [10]
    sim.run(until=50)
    assert sim.now == 50


def test_step_sees_every_fired_event():
    stepped = []

    class Spy(SchedulerHook):
        def step(self, sim, event):
            stepped.append(event._value)

    sim = Simulator()
    sim.scheduler = Spy()
    sim.event().succeed("x", delay=1)
    sim.event().succeed("y", delay=1)
    sim.event().succeed("z", delay=4)
    sim.run()
    assert stepped == ["x", "y", "z"]


def test_hook_removable_mid_run():
    # The explorer uninstalls itself before the deterministic tail
    # (failover + convergence reads); both halves must run.
    sim = _hooked_sim()
    log = []
    sim.timeout(3).callbacks.append(lambda e: log.append("hooked"))
    sim.run()
    sim.scheduler = None
    sim.timeout(3).callbacks.append(lambda e: log.append("fast"))
    sim.run()
    assert log == ["hooked", "fast"]
