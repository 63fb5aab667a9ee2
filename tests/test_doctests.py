"""Run the API-reference doctests as part of tier-1.

Every example in a docstring is executable documentation; if it drifts
from the code, this fails. CI additionally runs the full
``pytest --doctest-modules src/repro`` sweep; this curated list keeps
the guarantee inside the plain test run too.
"""

import doctest

import pytest

import repro.analysis.checked
import repro.bench.scale
import repro.core.block
import repro.core.directory
import repro.core.shard_router
import repro.faults.injector
import repro.hardware.cache
import repro.hardware.memory
import repro.obs.counters
import repro.obs.metrics
import repro.obs.probes
import repro.obs.slo
import repro.obs.spans
import repro.obs.trace
import repro.sim.core
import repro.sim.latency
import repro.sim.resources

DOCUMENTED_MODULES = [
    repro.sim.core,
    repro.sim.latency,
    repro.sim.resources,
    repro.hardware.memory,
    repro.hardware.cache,
    repro.core.block,
    repro.core.directory,
    repro.core.shard_router,
    repro.bench.scale,
    repro.analysis.checked,
    repro.obs.trace,
    repro.obs.counters,
    repro.obs.metrics,
    repro.obs.probes,
    repro.obs.slo,
    repro.obs.spans,
    repro.faults.injector,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert result.failed == 0
