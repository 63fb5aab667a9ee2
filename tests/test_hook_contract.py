"""All five global hooks share one install contract.

``faults.injector``, ``obs.trace``, ``obs.spans``, ``obs.metrics`` and
``analysis.memsan`` each expose ``active`` / ``install`` / ``uninstall``
plus a context manager. Harnesses (and ``CheckedRun``) treat them
interchangeably, so the contract is pinned once, for all of them:
re-installing the installed object is fine, installing a second object
is refused, uninstalling someone else's object is refused, and
uninstalling with nothing installed is a no-op.
"""

import pytest

from repro.analysis import memsan
from repro.faults import injector
from repro.obs import metrics, spans, trace

HOOKS = [
    (injector, injector.FaultInjector),
    (trace, trace.Tracer),
    (spans, spans.SpanTracer),
    (metrics, metrics.MetricsPipeline),
    (memsan, memsan.MemSan),
]


@pytest.mark.parametrize(
    "hook, make", HOOKS, ids=[make.__name__ for _, make in HOOKS]
)
def test_install_contract(hook, make):
    assert hook.active() is None
    first = make()
    with first:
        assert hook.active() is first
        assert hook.install(first) is first  # same object: idempotent
        with pytest.raises(RuntimeError, match="already installed"):
            hook.install(make())
        with pytest.raises(RuntimeError, match="different"):
            hook.uninstall(make())
        assert hook.active() is first  # refused calls changed nothing
    assert hook.active() is None
    hook.uninstall()  # nothing installed: no-op
    hook.uninstall(make())
    assert hook.active() is None
