"""The five workloads. Each is a closed loop of simulated workers driven
from one host thread, built and run only through the repository's public
functions (the API surface is listed in README.md).

A workload object offers::

    build(seed)                      -> world (None for crash_sweep)
    rep(world, seed, index, timed)   -> Rep; ``with timed:`` wraps exactly
                                        the timed call, everything around
                                        it (meter reset, counter
                                        snapshots) is outside the clock
    check(world, seed, reps)         -> Check; reps[0] is the warm-up

``index`` numbers the reps of one world from 0 (the warm-up) upwards;
together with ``seed`` it is the only input to workload generation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field

from repro.analysis.memsan import MemSan
from repro.bench.harness import (
    build_pooling_setup,
    build_sharing_setup,
    counter_snapshot,
    reset_meters,
)
from repro.faults.sweep import (
    report_to_json,
    sweep_recovery_points,
    sweep_workload_points,
)
from repro.hardware.memory import MappedMemory
from repro.obs import (
    MetricsPipeline,
    SpanTracer,
    Tracer,
    assert_span_invariants,
    assert_trace_invariants,
)
from repro.sim.rng import WorkloadRng
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

# Entry points of the metered access path; the traced pass counts calls
# to them (hardware.memory.accesses_per_unit).
ACCESS_CODES = (MappedMemory.read.__code__, MappedMemory.write.__code__)


class Timed:
    """Times exactly the enclosed call. Garbage is collected before the
    clock starts; with a profile (the traced pass) the call also runs
    under ``cProfile``."""

    def __init__(self, profile=None) -> None:
        self.profile = profile
        self.seconds = 0.0

    def __enter__(self) -> "Timed":
        gc.collect()
        if self.profile is not None:
            self.profile.enable()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.profile is not None:
            self.profile.disable()


@dataclass
class Rep:
    """One rep: what it completed, what the simulation reported, and the
    modelled-component counts it added (all exact for a fixed seed)."""

    units: int
    expected: int
    sim: dict  # simulated results; empty for crash_sweep
    counters: dict  # counter deltas of this rep
    # Instrument volumes stay out of ``counters`` and so out of the
    # digest: a checked rep's digest must equal the unchecked one.
    instruments: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # one line per failed unit
    seconds: float = 0.0  # host time of the timed call, set by the runner
    digest: str = ""

    def __post_init__(self) -> None:
        canonical = json.dumps([self.sim, self.counters], sort_keys=True)
        self.digest = hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Check:
    """Output checks after the last rep."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    # Host seconds of the checked workload's reps replayed uninstrumented.
    twin_rep_seconds: list = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _snapshot(setup) -> dict:
    """Cumulative modelled-component counters, read through public
    attributes only; a rep's contribution is the difference of two."""
    snap = counter_snapshot(setup)
    snap["sim.events"] = setup.sim._seq  # documented in EXPERIMENTS.md
    lock_service = getattr(setup, "lock_service", None)
    if lock_service is not None:
        snap["sim.lock_waits"] = lock_service.contended_acquires
    return snap


def _driver_rep(result, before: dict, after: dict, expected: int) -> Rep:
    delta = {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }
    return Rep(result.txns, expected, result.to_dict(), delta)


class PoolWorkload:
    """Four single-primary instances on one host (paper Fig. 7-9)."""

    unit = "txn"
    ROWS = 3000
    INSTANCES = 4
    WORKERS = 16
    SCAN_CHUNK = 100  # a single full scan pins every LBP page

    def __init__(self, system: str, mix: str, measure_txns: int) -> None:
        self.system = system
        self.mix = mix
        self.measure_txns = measure_txns
        self.expected = self.INSTANCES * self.WORKERS * measure_txns
        self.sysbench = SysbenchWorkload(rows=self.ROWS)

    def build(self, seed: int):
        return build_pooling_setup(
            self.system, self.INSTANCES, self.sysbench, lbp_fraction=0.3, seed=seed
        )

    def rep(self, world, seed: int, index: int, timed) -> Rep:
        reset_meters(world.instances)
        before = _snapshot(world)
        with timed:
            result = PoolingDriver(
                world.sim,
                world.instances,
                self.sysbench.txn_fn(self.mix),
                workers_per_instance=self.WORKERS,
                warmup_txns=1,
                measure_txns=self.measure_txns,
            ).run()
        return _driver_rep(result, before, _snapshot(world), self.expected)

    def check(self, world, seed: int, reps: list) -> Check:
        """A chunked full scan per instance returns every id once, sorted."""
        check = Check()
        for index, ictx in enumerate(world.instances):
            table = ictx.engine.tables["sbtest1"]
            ids: list = []
            while True:
                mtr = ictx.engine.mtr()
                rows = table.range(mtr, ids[-1] + 1 if ids else 0, self.SCAN_CHUNK)
                mtr.commit()
                if not rows:
                    break
                ids.extend(row["id"] for row in rows)
            check.expect(
                ids == list(range(1, self.ROWS + 1)),
                f"instance {index}: scan returned {len(ids)} ids, "
                f"{len(set(ids))} distinct, expected 1..{self.ROWS} in order",
            )
        return check


@dataclass
class _SharingWorld:
    setup: object
    memsan: object = None  # installed around the build and every rep when set


class ShareWorkload:
    """Four multi-primary nodes updating a skewed shared table (paper
    Fig. 11/13); ``checked`` runs the identical traffic with every
    instrument installed and every invariant checked inside the rep."""

    unit = "txn"
    ROWS = 1500
    NODES = 4
    WORKERS = 8
    MEASURE_TXNS = 12
    CHECK_KEYS = 40
    TWIN_REPS = 3

    def __init__(self, checked: bool) -> None:
        self.checked = checked
        self.expected = self.NODES * self.WORKERS * self.MEASURE_TXNS
        self.sysbench = SysbenchWorkload(
            rows=self.ROWS, n_nodes=self.NODES, key_dist="zipf", zipf_theta=0.9
        )

    def build(self, seed: int) -> _SharingWorld:
        if not self.checked:
            return _SharingWorld(self._build(seed))
        memsan = MemSan()
        with memsan:
            return _SharingWorld(self._build(seed), memsan)

    def _build(self, seed: int):
        return build_sharing_setup("cxl", self.NODES, self.sysbench, seed=seed)

    def _drive(self, setup, seed: int, index: int):
        return SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            self.sysbench.sharing_txn_fn("point_update"),
            shared_pct=40,
            cost=setup.cost,
            rng=WorkloadRng(seed * 1000 + index),
            workers_per_node=self.WORKERS,
            warmup_txns=1,
            measure_txns=self.MEASURE_TXNS,
        ).run()

    def rep(self, world: _SharingWorld, seed: int, index: int, timed) -> Rep:
        setup, memsan = world.setup, world.memsan
        reset_meters(setup.nodes)
        before = _snapshot(setup)
        if memsan is None:
            with timed:
                result = self._drive(setup, seed, index)
        else:
            checked_before = memsan.accesses_checked
            with timed:
                with memsan, Tracer() as tracer, SpanTracer() as spans:
                    with MetricsPipeline() as pipeline:
                        result = self._drive(setup, seed, index)
                        pipeline.flush(setup.sim.now)
                assert_trace_invariants(tracer)
                assert_span_invariants(spans)
                pipeline.check_consistent()
                memsan.check()
        rep = _driver_rep(result, before, _snapshot(setup), self.expected)
        if memsan is not None:
            rep.instruments = {
                "obs.trace_events": len(tracer.events()) + tracer.total_dropped,
                "obs.spans": len(spans.spans()),
                "obs.metrics_samples": pipeline.samples_published,
                "analysis.memsan_accesses": memsan.accesses_checked - checked_before,
            }
        return rep

    def check(self, world: _SharingWorld, seed: int, reps: list) -> Check:
        """Every node reads the same seeded keys of the shared table and
        all agree; the checked variant also replays its first reps on an
        uninstrumented twin world and must match them digest for digest."""
        check = Check()
        setup = world.setup
        keys = sorted(random.Random(seed).sample(range(1, self.ROWS + 1), self.CHECK_KEYS))
        for key in keys:
            seen = [
                setup.sim.run_process(node.point_select("sbtest_shared", key))["k"]
                for node in setup.nodes
            ]
            check.expect(
                len(set(seen)) == 1, f"sbtest_shared key {key}: nodes disagree: {seen}"
            )
        if self.checked:
            twin = ShareWorkload(checked=False)
            twin_world = twin.build(seed)
            # The twin replays the warm-up too, so that rep 1 starts
            # from the same world state on both sides.
            for index, rep in enumerate(reps[: 1 + self.TWIN_REPS]):
                timed = Timed()
                twin_rep = twin.rep(twin_world, seed, index, timed)
                if index == 0:
                    continue
                check.twin_rep_seconds.append(timed.seconds)
                if twin_rep.digest != rep.digest:
                    check.failed += rep.expected
                    check.notes.append(
                        f"rep {index}: instrumented digest {rep.digest[:12]} != "
                        f"uninstrumented {twin_rep.digest[:12]}"
                    )
        return check


def _crash_repro(scenario: str, seed: int, outcome) -> str:
    return (
        f"{scenario} {outcome.point}#{outcome.hit}: {outcome.detail or 'did not crash'} "
        f"[repro: PYTHONPATH=src python -m repro.parallel sweep --scenario {scenario} "
        f"--seed {seed} --point {outcome.point} --hit {outcome.hit}]"
    )


class CrashSweepWorkload:
    """Many tiny worlds: every coordinate of the single-node workload
    sweep and the recovery re-entrancy sweep builds a cluster, crashes
    it, recovers it and checks the exact committed state."""

    unit = "coordinate"
    expected = 0  # the sweep enumerates its own coordinates

    def build(self, seed: int) -> None:
        return None

    def rep(self, world, seed: int, index: int, timed) -> Rep:
        # Which points a sweep reaches depends on its seed; a different
        # one per rep makes the run's median an average over inputs.
        sweep_seed = seed * 1000 + index
        with timed:
            reports = {
                "workload": sweep_workload_points(seed=sweep_seed),
                "recovery": sweep_recovery_points(seed=sweep_seed),
            }
        outcomes = [o for report in reports.values() for o in report.outcomes]
        points = {p for report in reports.values() for p in report.distinct_points}
        return Rep(
            units=sum(outcome.ok for outcome in outcomes),
            expected=len(outcomes),
            sim={},
            counters={
                "faults.coords": len(outcomes),
                "faults.distinct_points": len(points),
                "faults.report_sha256": hashlib.sha256(
                    "".join(report_to_json(r) for r in reports.values()).encode()
                ).hexdigest(),
            },
            failures=[
                _crash_repro(scenario, sweep_seed, outcome)
                for scenario, report in reports.items()
                for outcome in report.failures()
            ],
        )

    def check(self, world, seed: int, reps: list) -> Check:
        """Nothing more: every coordinate's verdict is in its rep's units
        and a non-ok one is in the rep's ``failures`` with its serial repro."""
        return Check()


WORKLOADS = {
    "pool_cxl_read": PoolWorkload("cxl", "read_only", measure_txns=5),
    "pool_rdma_write": PoolWorkload("rdma", "write_only", measure_txns=30),
    "share_cxl_update": ShareWorkload(checked=False),
    "share_cxl_update_checked": ShareWorkload(checked=True),
    "crash_sweep": CrashSweepWorkload(),
}
