"""Sharded seeded-random coherency stress on the work-unit runner.

The sharing stress drives randomized schedules of point reads/writes,
range scans, DBP recycling and metadata evictions across the
multi-primary nodes, against the committed-state oracle
(:class:`~repro.analysis.checked.CommittedState`) of the shared column —
checking coherency, MemSan cleanliness, and the trace/span protocol
invariants after every schedule (see ``tests/core/test_sharing_stress``
for the original serial form).

Seeds are grouped into *shards*: each shard builds its own cluster from
scratch, seeds its own oracle, and runs a consecutive block of seeds
serially (oracle state carries across the seeds of one shard, exactly as
the serial loop did). Shards share nothing, so they are work units: a
parallel run of the shards merges to byte-identical results as a serial
run of the same shards, and a failing seed surfaces with the one-line
serial command that replays its shard.

Checks raise :class:`StressCheckError`; per-seed check failures are
caught and recorded on the shard result (with the offending seed) so one
bad seed doesn't mask the rest of its shard.
"""

from __future__ import annotations

import json
import random
from contextlib import closing
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from .runner import WorkUnit, run_units

if TYPE_CHECKING:
    from ..analysis.checked import CommittedState, Op
    from ..obs.world import SharingSetup

__all__ = [
    "StressCheckError",
    "StressReport",
    "StressShardResult",
    "run_sharing_stress",
    "stress_repro_cmd",
]

# Every shard's cluster and schedule shape.
_NODES = 3
_ROWS = 240
_OPS_PER_SEED = 14


class StressCheckError(AssertionError):
    """A stress check (coherency, MemSan, invariant) failed."""


@dataclass
class StressShardResult:
    """Outcome of one shard: a consecutive block of seeds on a fresh cluster."""

    system: str
    seed_start: int
    n_seeds: int
    converged: bool = True
    failures: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.converged and not self.failures


@dataclass
class StressReport:
    """Deterministically merged shard results (shards in seed order)."""

    system: str
    base_seed: int
    n_seeds: int
    shard_size: int
    shards: list[StressShardResult] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        return [failure for shard in self.shards for failure in shard.failures]

    @property
    def ok(self) -> bool:
        return all(shard.ok for shard in self.shards)

    def totals(self) -> dict[str, int]:
        """Sum each per-shard counter across shards."""
        totals: dict[str, int] = {}
        for shard in self.shards:
            for name, value in shard.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, fixed layout.

        The differential suite compares serial and parallel runs on
        these exact bytes.
        """
        payload: dict[str, Any] = {
            "system": self.system,
            "base_seed": self.base_seed,
            "n_seeds": self.n_seeds,
            "shard_size": self.shard_size,
            "ok": self.ok,
            "totals": self.totals(),
            "shards": [asdict(shard) for shard in self.shards],
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def stress_repro_cmd(
    system: str, seed_start: int, n_seeds: int
) -> str:
    """The one-line serial command that replays one shard exactly."""
    return (
        "PYTHONPATH=src python -m repro.parallel stress "
        f"--system {system} --base-seed {seed_start} --seeds {n_seeds} "
        f"--shard-size {n_seeds} --jobs 1"
    )


def _run_schedule(
    setup: SharingSetup,
    rng: random.Random,
    oracle: CommittedState,
    keys: range,
) -> None:
    """One randomized schedule; raises StressCheckError on the first
    problem an op reports."""
    from ..analysis.checked import run_op

    next_value = rng.randrange(1 << 20)
    for _ in range(_OPS_PER_SEED):
        via = rng.randrange(len(setup.nodes))
        node = setup.nodes[via]
        draw = rng.random()
        key = rng.choice(list(keys))
        if draw < 0.92:
            if draw < 0.45:
                op: Op = ("select", key, via, None)
            elif draw < 0.80:
                next_value += 1
                op = ("update", key, via, next_value)
            else:
                op = ("range", rng.choice(list(keys)), via, rng.randrange(1, 8))
            if problem := setup.sim.run_process(run_op(setup, op, oracle)):
                raise StressCheckError(problem)
        elif draw < 0.97 and setup.fusion is not None:
            # Recycle the globally-coldest DBP pages: pushes removal
            # flags every node must observe before reusing the entry,
            # then run the nodes' background reclaim scans.
            setup.fusion.recycle(
                rng.randrange(1, 3), node.engine.meter, setup.lock_service
            )
            for other in setup.nodes:
                other.engine.buffer_pool.scan_and_reclaim_removed()
        else:
            # Evict node-local state, forcing re-registration/refetch on
            # the next access.
            pool = node.engine.buffer_pool
            if hasattr(pool, "_evict_entry"):
                # CXL: the register-pressure eviction path (invalidate
                # cached lines, deregister from fusion, drop the entry).
                if pool.resident_page_ids():
                    pool._evict_entry()
            else:
                # RDMA: the DBP-recycle handler drops the local copy.
                resident = pool.resident_page_ids()
                if resident:
                    pool.drop_local(rng.choice(resident))


def _stress_shard(
    system: str,
    seed_start: int,
    n_seeds: int,
    fail_seed: Optional[int] = None,
) -> StressShardResult:
    """Run one shard on a fresh cluster; never raises for check failures.

    ``fail_seed`` forces a :class:`StressCheckError` on that seed — the
    forced-failure path the differential suite uses to prove a red
    shard surfaces its exact seed and serial repro.
    """
    from ..analysis.checked import CheckedRun, CommittedState, run_op
    from ..analysis.memsan import MemSanError
    from ..obs import MetricsError
    from ..obs.world import build_sharing_setup
    from ..workloads.sysbench import SysbenchWorkload

    keys = range(1, _ROWS + 1)
    workload = SysbenchWorkload(rows=_ROWS, n_nodes=_NODES)
    setup = build_sharing_setup(system, _NODES, workload)
    with closing(setup.cluster):
        oracle = CommittedState(SysbenchWorkload.loaded_row)
        for key in keys:  # node 0 reads every key once before the first seed
            if problem := setup.sim.run_process(
                run_op(setup, ("select", key, 0, None), oracle)
            ):
                raise StressCheckError(problem)
        result = StressShardResult(
            system=system, seed_start=seed_start, n_seeds=n_seeds
        )
        repro = stress_repro_cmd(system, seed_start, n_seeds)
        accesses = releases = spans_checked = ms_accesses = 0
        metrics_scrapes = metrics_samples = 0
        for seed in range(seed_start, seed_start + n_seeds):
            # Fresh instruments per schedule: a fresh MemSan also exercises
            # its mid-run install (pre-existing cache copies are adopted,
            # not reported), and a fresh pipeline's deterministic scrape and
            # sample totals are part of the merged serial-vs-jobs
            # byte-identity contract.
            run = CheckedRun(trace=True, spans=True, metrics=True, memsan=True)
            try:
                if fail_seed == seed:
                    raise StressCheckError("forced failure (fail_seed)")
                with run:
                    run.watch(setup)
                    _run_schedule(setup, random.Random(seed), oracle, keys)
                    run.flush(setup.sim.now)
            except StressCheckError as exc:
                result.failures.append(f"seed {seed}: {exc} [repro: {repro}]")
                continue
            ms, pipeline = run.memsan, run.metrics
            assert ms is not None and pipeline is not None
            ms_accesses += ms.accesses_checked
            try:
                run.check()
            except MemSanError:
                detail = "; ".join(map(str, ms.reports))
                result.failures.append(
                    f"seed {seed}: memsan: {detail} [repro: {repro}]"
                )
            except (AssertionError, MetricsError) as exc:
                result.failures.append(
                    f"seed {seed}: invariant: {exc} [repro: {repro}]"
                )
                continue
            assert run.trace_stats is not None and run.span_stats is not None
            accesses += run.trace_stats.accesses_checked
            releases += run.trace_stats.releases_checked
            spans_checked += run.span_stats.spans
            metrics_scrapes += pipeline.scrapes
            metrics_samples += pipeline.samples_published
        result.counters = {
            "accesses": accesses,
            "releases": releases,
            "spans": spans_checked,
            "memsan_accesses": ms_accesses,
            "metrics_scrapes": metrics_scrapes,
            "metrics_samples": metrics_samples,
        }
        # Convergence: every node agrees with the oracle at the end.
        sample = sorted(
            random.Random(seed_start).sample(list(keys), 40)
        )
        for via in range(len(setup.nodes)):
            for key in sample:
                if problem := setup.sim.run_process(
                    run_op(setup, ("select", key, via, None), oracle)
                ):
                    result.converged = False
                    result.failures.append(f"convergence: {problem} [repro: {repro}]")
        return result


def run_sharing_stress(
    system: str = "cxl",
    n_seeds: int = 200,
    shard_size: int = 50,
    jobs: int = 1,
    base_seed: int = 1000,
    fail_seed: Optional[int] = None,
) -> StressReport:
    """Run seeds ``base_seed .. base_seed + n_seeds - 1`` in shards.

    ``jobs <= 1`` runs the shards inline in order; ``jobs > 1`` fans
    them over a spawn pool. Either way the report lists shards in seed
    order and serializes identically (:meth:`StressReport.to_json`).
    """
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    report = StressReport(
        system=system,
        base_seed=base_seed,
        n_seeds=n_seeds,
        shard_size=shard_size,
    )
    units = []
    for seed_start in range(base_seed, base_seed + n_seeds, shard_size):
        count = min(shard_size, base_seed + n_seeds - seed_start)
        units.append(
            WorkUnit(
                task="repro.parallel.stress:_stress_shard",
                payload=(system, seed_start, count, fail_seed),
                label=(
                    f"stress:{system}:seeds[{seed_start}.."
                    f"{seed_start + count - 1}]"
                ),
                repro=stress_repro_cmd(system, seed_start, count),
            )
        )
    for result in run_units(units, jobs=jobs):
        if result.ok:
            report.shards.append(result.value)
        else:
            # A shard that *errored* (not a check failure) still takes
            # its slot, so the merged report shape is deterministic.
            seed_start = int(result.label.split("[")[1].split("..")[0])
            report.shards.append(
                StressShardResult(
                    system=system,
                    seed_start=seed_start,
                    n_seeds=0,
                    converged=False,
                    failures=[
                        f"shard error {result.error_type}: {result.error}"
                        f" [repro: {result.repro}]"
                    ],
                )
            )
    return report
