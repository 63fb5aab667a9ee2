"""All five instruments install through one probe slot, one contract.

``FaultInjector``, ``Tracer``, ``SpanTracer``, ``MetricsPipeline`` and
``MemSan`` have no install code of their own: each one's context manager
calls ``PROBES.install(name, self)`` / ``PROBES.uninstall(name, self)``.
Harnesses (and ``CheckedRun``) treat them interchangeably, so the
contract is pinned once, for all of them: re-installing the installed
object is fine, installing a second object is refused, uninstalling
someone else's object is refused, and uninstalling with nothing
installed is a no-op. ``PROBES.any`` — the one flag the metered access
path reads — follows the tracer, the span tracer and memsan only.
"""

import itertools

import pytest

from repro.analysis.memsan import MemSan
from repro.faults.injector import FaultInjector
from repro.obs.metrics import MetricsPipeline
from repro.obs.probes import PROBE_NAMES, PROBES
from repro.obs.spans import SpanTracer
from repro.obs.trace import Tracer

HOOKS = [
    ("injector", FaultInjector),
    ("tracer", Tracer),
    ("spans", SpanTracer),
    ("metrics", MetricsPipeline),
    ("memsan", MemSan),
]
#: The instruments the metered access path consults.
ON_ACCESS_PATH = {"tracer", "spans", "memsan"}


def _installed() -> set[str]:
    return {name for name in PROBE_NAMES if getattr(PROBES, name) is not None}


def test_hooks_cover_every_slot_name():
    assert sorted(name for name, _ in HOOKS) == sorted(PROBE_NAMES)


@pytest.mark.parametrize(
    "name, make", HOOKS, ids=[make.__name__ for _, make in HOOKS]
)
def test_install_contract(name, make):
    assert getattr(PROBES, name) is None
    first = make()
    with first as entered:
        assert entered is first
        assert getattr(PROBES, name) is first
        assert _installed() == {name}
        assert first.__enter__() is first  # same object: idempotent
        with pytest.raises(RuntimeError, match="already installed"):
            make().__enter__()
        with pytest.raises(RuntimeError, match="different"):
            make().__exit__(None, None, None)
        assert getattr(PROBES, name) is first  # refused calls changed nothing
        assert PROBES.any is (name in ON_ACCESS_PATH)
    assert getattr(PROBES, name) is None
    assert PROBES.any is False
    PROBES.uninstall(name)  # nothing installed: no-op
    make().__exit__(None, None, None)
    assert getattr(PROBES, name) is None


@pytest.mark.parametrize("make", [FaultInjector, MetricsPipeline])
def test_injector_or_pipeline_alone_leaves_any_false(make):
    with make():
        assert PROBES.any is False
        with Tracer():
            assert PROBES.any is True
        assert PROBES.any is False
    assert PROBES.any is False


def test_any_is_restored_under_every_nesting_order():
    for order in itertools.permutations(HOOKS):
        tools = [(name, make()) for name, make in order]
        for depth, (name, tool) in enumerate(tools, 1):
            tool.__enter__()
            entered = {n for n, _ in tools[:depth]}
            assert _installed() == entered
            assert PROBES.any is bool(entered & ON_ACCESS_PATH)
        for depth in range(len(tools) - 1, -1, -1):
            name, tool = tools[depth]
            tool.__exit__(None, None, None)
            left = {n for n, _ in tools[:depth]}
            assert _installed() == left
            assert PROBES.any is bool(left & ON_ACCESS_PATH)
    # Non-LIFO removal too: any must not depend on exit order.
    with FaultInjector(), MetricsPipeline():
        tracer, memsan = Tracer(), MemSan()
        tracer.__enter__()
        memsan.__enter__()
        tracer.__exit__(None, None, None)
        assert PROBES.any is True  # memsan is still there
        memsan.__exit__(None, None, None)
        assert PROBES.any is False


def test_suspended_recomputes_any_and_restores_on_exception():
    with Tracer() as tracer, MetricsPipeline() as mp:
        with pytest.raises(ValueError):
            with PROBES.suspended("metrics") as seen:
                assert seen is mp and PROBES.metrics is None
                assert PROBES.any is True  # the tracer is untouched
                raise ValueError("boom")
        assert PROBES.metrics is mp
        with PROBES.suspended("tracer") as seen:
            assert seen is tracer and PROBES.tracer is None
            assert PROBES.any is False
        assert PROBES.tracer is tracer and PROBES.any is True
    assert _installed() == set() and PROBES.any is False
