"""Spawn-safety regression: workers start clean, hooks and RNG stay per-process.

The runner's whole determinism story rests on spawn (never fork): a
worker begins with *no* installed global hooks regardless of the
parent's state, installs and removes its own independently, and draws
exactly the serial per-seed RNG streams. These tests pin that down with
the parent's hooks deliberately installed while the pool runs.
"""

from repro.analysis.memsan import MemSan
from repro.faults.injector import FaultInjector
from repro.obs.metrics import MetricsPipeline
from repro.obs.probes import PROBE_NAMES
from repro.obs.spans import SpanTracer
from repro.obs.trace import Tracer
from repro.parallel import WorkUnit, run_units
from repro.parallel.probes import probe_rng_stream
from repro.sim.rng import WorkloadRng


def test_workers_start_with_clean_hooks_despite_parent_installs():
    units = [
        WorkUnit("repro.parallel.probes:probe_hooks", (True,)) for _ in range(2)
    ]
    # Install every global hook in the parent, then observe the workers.
    injector = FaultInjector(seed=3).arm("parent.point", 1)
    with injector, Tracer(), SpanTracer(), MetricsPipeline(), MemSan():
        results = run_units(units, jobs=2)
    for result in results:
        assert result.ok, result.describe_failure()
        report = result.value
        for name in PROBE_NAMES:
            assert report[f"{name}_preinstalled"] is False
        # The worker could install, use, and cleanly remove its own.
        assert report["own_injector_armed"] is True
        assert report["own_injector_active"] is True
        assert report["own_counter"] == 3
        assert report["hooks_clear_after"] is True


def test_parent_hooks_survive_a_pool_run():
    units = [WorkUnit("repro.parallel.probes:probe_hooks", (True,))]
    with Tracer() as tracer:
        tracer.counters.add("parent.counter", 7)
        run_units(units * 2, jobs=2)
        # The workers' own tracers must not have bled into ours.
        assert tracer.counters.snapshot().get("parent.counter") == 7
        assert "probe.counter" not in tracer.counters.snapshot()


def test_worker_rng_streams_match_serial():
    seeds = [11, 12, 13]
    units = [
        WorkUnit("repro.parallel.probes:probe_rng_stream", (seed, 16))
        for seed in seeds
    ]
    parallel = [r.value for r in run_units(units, jobs=2)]
    serial = [probe_rng_stream(seed, 16) for seed in seeds]
    assert parallel == serial


def test_worker_rng_fork_streams_match_serial():
    (result,) = run_units(
        [WorkUnit("repro.parallel.probes:probe_rng_stream", (21, 8, 4))],
        jobs=1,
    )
    assert result.value == probe_rng_stream(21, 8, fork_salt=4)


def test_parent_rng_state_is_not_consumed_by_workers():
    rng = WorkloadRng(99)
    before = [rng.uniform_int(0, 1 << 30) for _ in range(4)]
    units = [
        WorkUnit("repro.parallel.probes:probe_rng_stream", (99, 8))
        for _ in range(2)
    ]
    run_units(units, jobs=2)
    # A fresh parent RNG replays the identical prefix: the workers drew
    # from their own streams, not ours.
    replay = WorkloadRng(99)
    assert [replay.uniform_int(0, 1 << 30) for _ in range(4)] == before
