"""Drivers: run workloads inside the discrete-event simulation.

Two drivers cover the paper's experiment classes:

* :class:`PoolingDriver` — N database instances on one (or more) hosts,
  each with worker "threads" executing functional transactions and
  settling their metered cost into simulated time and pipe traffic.
  Produces the throughput / latency / bandwidth numbers of Figures
  1, 3, 7, 8 and 9.
* :class:`SharingDriver` — N multi-primary nodes executing
  :class:`~repro.workloads.base.Op` lists through the distributed-lock
  + coherency protocol generators. Produces Figures 11–13 and Table 3.

Both run a warmup phase, then a barrier resets the measurement windows
of every pipe, then a fixed number of measured transactions per worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.sharing import MultiPrimaryNode
from ..db.engine import Engine
from ..hardware.host import Host
from ..hardware.memory import AccessMeter
from ..obs.probes import PROBES
from ..sim.core import Event, Simulator
from ..sim.latency import CostModel
from ..sim.resources import Pipe
from ..sim.rng import WorkloadRng
from ..sim.settle import ChargeSettler
from ..sim.stats import LatencyRecorder, TimeSeries
from .base import Op, TxnStats

__all__ = [
    "InstanceCtx",
    "RunResult",
    "PoolingDriver",
    "SharingDriver",
]


@dataclass
class InstanceCtx:
    """One database instance wired to its host for the pooling driver."""

    engine: Engine
    host: Host
    rng: WorkloadRng
    settler: ChargeSettler = field(init=False)

    def __post_init__(self) -> None:
        self.settler = ChargeSettler(
            self.host.sim, self.engine.meter, self.host.pipes
        )


@dataclass
class RunResult:
    """Measured outcome of one driver run."""

    txns: int
    queries: int
    elapsed_ns: int
    avg_latency_ns: float
    p95_latency_ns: float
    pipe_bandwidth: dict[str, float]
    counters: dict[str, float]
    lock_waits: int = 0

    @property
    def tps(self) -> float:
        return self.txns * 1e9 / self.elapsed_ns if self.elapsed_ns else 0.0

    @property
    def qps(self) -> float:
        return self.queries * 1e9 / self.elapsed_ns if self.elapsed_ns else 0.0

    def to_dict(self) -> dict:
        """Flat dict for programmatic consumption (CSV/JSON exports)."""
        out = {
            "txns": self.txns,
            "queries": self.queries,
            "elapsed_ns": self.elapsed_ns,
            "tps": self.tps,
            "qps": self.qps,
            "avg_latency_ns": self.avg_latency_ns,
            "p95_latency_ns": self.p95_latency_ns,
            "lock_waits": self.lock_waits,
        }
        for key, value in self.pipe_bandwidth.items():
            out[f"bw_{key}_gbps"] = value / 1e9
        return out


class _Barrier:
    """All workers arrive, pipes reset, measurement begins."""

    def __init__(self, sim: Simulator, parties: int, pipes: Sequence[Pipe]) -> None:
        self.sim = sim
        self.parties = parties
        self.pipes = pipes
        self._arrived = 0
        self._event = sim.event()
        self.start_ns: Optional[int] = None

    def arrive(self) -> Event:
        self._arrived += 1
        if self._arrived == self.parties:
            for pipe in self.pipes:
                pipe.reset_window()
            self.start_ns = self.sim.now
            self._event.succeed()
        return self._event


def _collect_pipes(hosts: Sequence[Host]) -> dict[str, list[Pipe]]:
    """Unique pipes by key across hosts (for bandwidth reporting)."""
    out: dict[str, list[Pipe]] = {}
    seen: set[int] = set()
    for host in hosts:
        for key, pipes in host.pipes.items():
            for pipe in pipes:
                if id(pipe) not in seen:
                    seen.add(id(pipe))
                    out.setdefault(key, []).append(pipe)
    return out


def _bandwidths(pipes_by_key: dict[str, list[Pipe]]) -> dict[str, float]:
    return {
        key: sum(pipe.window_bandwidth() for pipe in pipes)
        for key, pipes in pipes_by_key.items()
    }


class _ClosedLoopDriver:
    """The closed loop both drivers run: staggered workers execute their
    warm-up transactions, meet at a barrier that resets every pipe's
    measurement window, then execute the measured transactions.

    Subclasses own their constructor, the ``driver`` metrics label,
    ``_one_txn(*args)`` — a generator that runs one transaction and
    returns its query count — and their worker list: per worker, in
    spawn order, its process name, worker id, extra labels of its
    latency metric, and ``_one_txn`` arguments.
    """

    _driver: str
    timeline: Optional[TimeSeries] = None

    def _run(
        self,
        hosts: Sequence[Host],
        meters: Sequence[AccessMeter],
        workers: Sequence[tuple[str, int, dict[str, str], tuple]],
    ) -> RunResult:
        spans = PROBES.spans
        if spans is not None:
            # Rebind unconditionally: one session-wide tracer may span
            # several simulators, and a stale clock from a previous sim
            # would stamp nonsense wall times on this run's spans.
            spans.attach_clock(lambda: self.sim.now)
        mp = PROBES.metrics
        if mp is not None:
            # Same reasoning as the span clock: a pipeline shared across
            # simulators must re-align its scrape grid to this run.
            mp.anchor(self.sim.now)
        pipes_by_key = _collect_pipes(hosts)
        all_pipes = [pipe for pipes in pipes_by_key.values() for pipe in pipes]
        barrier = _Barrier(self.sim, len(workers), all_pipes)
        for name, worker_id, labels, args in workers:
            self.sim.process(
                self._worker(barrier, worker_id, labels, args), name=name
            )
        self.sim.run()
        elapsed = max(1, self._end_ns - (barrier.start_ns or 0))
        return RunResult(
            txns=self._txns,
            queries=self._queries,
            elapsed_ns=elapsed,
            avg_latency_ns=self.latency.mean_ns,
            p95_latency_ns=self.latency.p95_ns if self.latency.count else 0.0,
            pipe_bandwidth=_bandwidths(pipes_by_key),
            counters=_merge_counters(meters),
        )

    def _worker(
        self, barrier: _Barrier, worker_id: int, labels: dict[str, str], args: tuple
    ):
        # Stagger worker starts so identical service times don't
        # phase-lock completions into bursty buckets.
        if worker_id:
            yield self.sim.timeout(worker_id * 9_700)
        for _ in range(self.warmup_txns):
            yield from self._one_txn(*args)
        yield barrier.arrive()
        for _ in range(self.measure_txns):
            start = self.sim.now
            queries = yield from self._one_txn(*args)
            self.latency.add(self.sim.now - start)
            self._txns += 1
            self._queries += queries
            if self.timeline is not None:
                self.timeline.record(self.sim.now, queries)
            mp = PROBES.metrics
            if mp is not None:
                mp.observe(
                    "txn.latency_ns", self.sim.now - start,
                    driver=self._driver, **labels,
                )
                mp.count("txn.completions", 1.0, driver=self._driver)
            self._end_ns = max(self._end_ns, self.sim.now)


class PoolingDriver(_ClosedLoopDriver):
    """Single-primary instances under a functional-transaction workload."""

    _driver = "pooling"

    def __init__(
        self,
        sim: Simulator,
        instances: Sequence[InstanceCtx],
        txn_fn: Callable[[Engine, WorkloadRng], TxnStats],
        workers_per_instance: int = 48,
        warmup_txns: int = 4,
        measure_txns: int = 16,
        timeline: Optional[TimeSeries] = None,
    ) -> None:
        self.sim = sim
        self.instances = list(instances)
        self.txn_fn = txn_fn
        self.workers_per_instance = workers_per_instance
        self.warmup_txns = warmup_txns
        self.measure_txns = measure_txns
        self.timeline = timeline
        self.latency = LatencyRecorder()
        self._queries = 0
        self._txns = 0
        self._end_ns = 0

    def run(self) -> RunResult:
        workers = [
            (f"inst{index}.w{worker_id}", worker_id, {},
             (ictx, ictx.rng.fork(worker_id + 1)))
            for index, ictx in enumerate(self.instances)
            for worker_id in range(self.workers_per_instance)
        ]
        return self._run(
            [ictx.host for ictx in self.instances],
            [ictx.engine.meter for ictx in self.instances],
            workers,
        )

    def _one_txn(self, ictx: InstanceCtx, rng: WorkloadRng):
        spans = PROBES.spans
        if spans is None:
            stats = self.txn_fn(ictx.engine, rng)
            yield from ictx.settler.settle()
            return stats.queries
        root = spans.begin(
            "txn", "pooling_txn", meter=ictx.engine.meter, push=False
        )
        with spans.attached(root):
            stats = self.txn_fn(ictx.engine, rng)
        yield from ictx.settler.settle(span=root)
        spans.end(root)
        return stats.queries


class SharingDriver(_ClosedLoopDriver):
    """Multi-primary nodes under an Op-list workload."""

    _driver = "sharing"

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[MultiPrimaryNode],
        hosts: Sequence[Host],
        txn_ops_fn: Callable[[WorkloadRng, int, float], list[Op]],
        shared_pct: float,
        cost: CostModel,
        rng: Optional[WorkloadRng] = None,
        workers_per_node: int = 16,
        warmup_txns: int = 2,
        measure_txns: int = 8,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.hosts = list(hosts)
        self.txn_ops_fn = txn_ops_fn
        self.shared_pct = shared_pct
        self.cost = cost
        self.rng = rng or WorkloadRng()
        self.workers_per_node = workers_per_node
        self.warmup_txns = warmup_txns
        self.measure_txns = measure_txns
        self.latency = LatencyRecorder()
        self._queries = 0
        self._txns = 0
        self._end_ns = 0

    def run(self) -> RunResult:
        workers = [
            (f"{node.node_id}.w{worker_id}", worker_id, {"node": node.node_id},
             (node, node_index, self.rng.fork(node_index * 1000 + worker_id + 1)))
            for node_index, node in enumerate(self.nodes)
            for worker_id in range(self.workers_per_node)
        ]
        meters = [node.engine.meter for node in self.nodes]
        result = self._run(self.hosts, meters, workers)
        result.lock_waits = self.nodes[0].lock_service.contended_acquires
        return result

    def _one_txn(self, node: MultiPrimaryNode, node_index: int, rng: WorkloadRng):
        ops = self.txn_ops_fn(rng, node_index, self.shared_pct)
        spans = PROBES.spans
        root = (
            spans.begin("txn", "sharing_txn", meter=node.engine.meter, push=False)
            if spans is not None
            else None
        )
        for op in ops:
            node.engine.meter.charge_ns(self.cost.query_fixed_ns)
            if op.kind == "select":
                yield from node.point_select(op.table, op.key, span_parent=root)
            elif op.kind == "update":
                yield from node.point_update(
                    op.table, op.key, op.field, op.value, span_parent=root
                )
            elif op.kind == "range":
                rows = yield from node.range_select(
                    op.table, op.key, op.count, span_parent=root
                )
                node.engine.meter.charge_ns(self.cost.range_row_ns * len(rows))
                yield from node.settler.settle(span=root)
            else:
                raise ValueError(f"unknown op kind {op.kind!r}")
        if root is not None:
            spans.end(root)
        return len(ops)


def _merge_counters(meters: Sequence[AccessMeter]) -> dict[str, float]:
    merged: dict[str, float] = {}
    for meter in meters:
        for key, value in meter.counters.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged
