"""Tracer and counter-registry unit tests."""

import pytest

from repro.obs import Tracer
from repro.obs.counters import CounterRegistry
from repro.obs.probes import PROBES


class TestTracerEvents:
    def test_emit_records_fields_and_key(self):
        tracer = Tracer()
        tracer.emit("sharing", "flush", node="n0", page=7)
        (event,) = tracer.events()
        assert event.key == "sharing.flush"
        assert event.fields == {"node": "n0", "page": 7}
        assert event.seq == 1

    def test_global_sequence_spans_subsystems(self):
        tracer = Tracer()
        tracer.emit("a", "x")
        tracer.emit("b", "y")
        tracer.emit("a", "z")
        assert [e.seq for e in tracer.events()] == [1, 2, 3]
        assert [e.key for e in tracer.events()] == ["a.x", "b.y", "a.z"]
        assert [e.key for e in tracer.events("b")] == ["b.y"]
        assert tracer.subsystems() == ["a", "b"]

    def test_ring_bound_drops_oldest_and_counts(self):
        tracer = Tracer(capacity_per_subsystem=4)
        for i in range(7):
            tracer.emit("mem", "access", i=i)
        events = tracer.events("mem")
        assert len(events) == 4
        assert [e.fields["i"] for e in events] == [3, 4, 5, 6]
        assert tracer.dropped == {"mem": 3}
        assert tracer.total_dropped == 3

    def test_chatty_subsystem_cannot_evict_another(self):
        tracer = Tracer(capacity_per_subsystem=4)
        tracer.emit("lock", "write_acquire", node="n0", page=1)
        for _ in range(100):
            tracer.emit("mem", "access")
        assert len(tracer.events("lock")) == 1
        assert "lock" not in tracer.dropped

    def test_clock_stamps_events(self):
        now = {"t": 0.0}
        tracer = Tracer(clock=lambda: now["t"])
        tracer.emit("a", "x")
        now["t"] = 2.5
        tracer.emit("a", "y")
        assert [e.t for e in tracer.events()] == [0.0, 2.5]

    def test_attach_clock_later(self):
        tracer = Tracer()
        tracer.emit("a", "x")
        tracer.attach_clock(lambda: 9.0)
        tracer.emit("a", "y")
        assert [e.t for e in tracer.events()] == [0.0, 9.0]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity_per_subsystem=0)


class TestInstallation:
    def test_disabled_by_default(self):
        assert PROBES.tracer is None

    def test_install_uninstall(self):
        tracer = Tracer()
        PROBES.install("tracer", tracer)
        try:
            assert PROBES.tracer is tracer
        finally:
            PROBES.uninstall("tracer", tracer)
        assert PROBES.tracer is None

    def test_context_manager(self):
        with Tracer() as tracer:
            assert PROBES.tracer is tracer
        assert PROBES.tracer is None

    def test_double_install_rejected(self):
        with Tracer():
            with pytest.raises(RuntimeError):
                Tracer().__enter__()
        assert PROBES.tracer is None

    def test_reinstalling_same_tracer_is_fine(self):
        with Tracer() as tracer:
            assert tracer.__enter__() is tracer
        assert PROBES.tracer is None

    def test_uninstall_wrong_tracer_rejected(self):
        with Tracer():
            with pytest.raises(RuntimeError):
                PROBES.uninstall("tracer", Tracer())
        assert PROBES.tracer is None

    def test_uninstall_idempotent(self):
        PROBES.uninstall("tracer")
        PROBES.uninstall("tracer", Tracer())  # nothing installed: no-op

    def test_installed_tracer_collects_counts(self):
        with Tracer() as tracer:
            current = PROBES.tracer
            assert current is not None
            current.count("x.y", 2)
            current.emit("s", "e", a=1)
        assert tracer.counters.get("x.y") == 2
        assert len(tracer.events("s")) == 1


class TestCounterRegistry:
    def test_add_and_snapshot_sorted(self):
        reg = CounterRegistry()
        reg.add("b", 2)
        reg.add("a")
        reg.add("b", 0.5)
        assert reg.snapshot() == {"a": 1.0, "b": 2.5}
        assert list(reg.snapshot()) == ["a", "b"]

    def test_get_missing_is_zero(self):
        assert CounterRegistry().get("nope") == 0.0

    def test_reset(self):
        reg = CounterRegistry()
        reg.add("c", 5)
        reg.reset()
        assert reg.snapshot() == {}

    def test_tracer_count_survives_a_registry_reset(self):
        # Tracer.count adds into the registry's dict directly; a reset
        # must empty what it adds into, not strand it on an old dict.
        tracer = Tracer()
        tracer.count("c", 5)
        tracer.counters.reset()
        tracer.count("c")
        tracer.counters.add("d", 2)
        assert tracer.counters.snapshot() == {"c": 1.0, "d": 2.0}
        assert tracer.counters.get("c") == 1.0
