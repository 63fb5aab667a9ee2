"""Fleet HA scenarios: scripted failure choreography over the injector.

Five scenarios exercise the sharing fleet's availability story end to
end, each under the full monitoring stack (MemSan, trace invariants,
span crash-abandon semantics) and an exact fleet-wide committed-state
oracle:

* :func:`run_rolling_crash` — rolling crashes across an N-node fleet
  while a deterministic op stream stays applied; each crash is followed
  by fusion failover, log retirement, epoch alignment, and a routing
  handover to the ring successor.
* :func:`run_join_leave` — graceful departure of a primary, then a
  fresh primary attaching to the surviving CXL pool and inheriting the
  warm DBP; the warm attach is timed in simulated ms against the
  PolarRecv / RDMA-assisted / ARIES recovery baselines.
* :func:`run_failover_storm` — repeated crash-during-failover: the
  failover coordinator itself dies at successive crash points (including
  a torn hardening write) until an attempt finally completes.
* :func:`run_degraded_mode` — a fusion RPC outage trips a circuit
  breaker; writes are shed to a drainable backlog while warm reads keep
  being served (degraded read-only mode); after the outage the breaker
  half-opens, a probe closes it, and the backlog drains.
* :func:`run_sharded_failover` — on a two-shard fusion tier the
  failover coordinator dies inside the victim page's owning shard, and
  the other shard's pages keep being served until the retry converges.

The fleet routes each op to its preferred node, or past dead nodes to
the ring successor, and runs it on that node directly; crashes are
pinned to op positions in the scenario body. Ops, crashes and
failovers run through the scenario core of :mod:`repro.analysis.checked`
(:func:`~repro.analysis.checked.run_op`, :func:`~repro.analysis.checked.crash`,
:func:`~repro.analysis.checked.fail_over`). Each node writes only its
own leaf-disjoint key partition — the single-writer-per-page
ownership discipline that, combined with log retirement at every
failover (:func:`~repro.core.recovery.retire_log`), makes the
storage+log page rebuild sound across arbitrarily many successive
owners.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from ..analysis.checked import TABLE, CheckedRun, CommittedState, Op, crash, fail_over, run_op
from ..bench import register_metric_sources
from ..bench.recovery_exp import run_recovery_experiment
from ..core.fusion import RpcExhaustedError
from ..core.sharing import MultiPrimaryNode
from ..faults.injector import FaultInjector, InjectedCrash, crash_point
from ..hardware.memory import AccessMeter
from ..obs.metrics import MetricsPipeline
from ..obs.probes import PROBES
from ..obs.slo import HealthTimeline, SLOMonitor, check_alignment
from ..obs.world import SharingSetup, add_sharing_node, build_sharing_setup
from ..workloads.sysbench import SysbenchWorkload
from .policy import CircuitBreaker
from .timeline import AvailabilityTimeline

__all__ = [
    "FleetOracleError",
    "FleetResult",
    "run_rolling_crash",
    "run_join_leave",
    "run_failover_storm",
    "run_degraded_mode",
    "run_sharded_failover",
    "SCENARIOS",
]


class FleetOracleError(AssertionError):
    """A fleet scenario's committed-state oracle (or choreography
    precondition) was violated."""


@dataclass
class FleetResult:
    """Outcome of one fleet scenario run.

    ``slo`` is the run's burn-rate monitor. ``metrics`` and ``health``
    are the run's own pipeline and the health timeline derived from it;
    both are None under a caller's pipeline, whose series mix in stamps
    from other runs.
    """

    scenario: str
    seed: int
    timeline: AvailabilityTimeline
    oracle_checks: int
    failovers: int
    memsan_reports: int
    detail: dict[str, Any]
    slo: SLOMonitor
    metrics: Optional[MetricsPipeline]
    health: Optional[HealthTimeline]

    def summary_lines(self) -> list[str]:
        lines = self.timeline.summary_lines()
        lines.append(
            f"  oracle: {self.oracle_checks} committed-state check(s), "
            f"{self.failovers} failover(s), "
            f"{self.memsan_reports} memsan report(s)"
        )
        lines.extend(self.slo.summary_lines())
        if self.health is not None:
            lines.extend(self.health.summary_lines())
        for key, value in sorted(self.detail.items()):
            lines.append(f"  {key}: {value}")
        return lines

    def to_dict(self) -> dict[str, Any]:
        """The run's canonical telemetry document: every scraped series,
        the SLO state, the health arcs and the availability timeline."""
        if self.metrics is None or self.health is None:
            raise ValueError(f"{self.scenario}: ran under a caller's pipeline")
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "metrics": json.loads(self.metrics.to_json()),
            "slo": self.slo.to_dict(),
            "health": self.health.to_dict(),
            "timeline": self.timeline.to_dict(),
        }


class _Fleet:
    """Shared scenario machinery: membership and ring routing, one op
    at a time run on the routed node, partitioned load, the
    committed-state oracle, and the crash → failover → retirement →
    handover dance."""

    def __init__(
        self,
        scenario: str,
        n_nodes: int,
        rows: int,
        seed: int,
        injector: FaultInjector,
        run: CheckedRun,
        n_shards: int = 1,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.rows = rows
        self.run = run
        self.workload = SysbenchWorkload(rows=rows, n_nodes=n_nodes)
        self.setup: SharingSetup = build_sharing_setup(
            "cxl", n_nodes, self.workload, n_shards=n_shards
        )
        self.sim = self.setup.sim
        self.injector = injector
        self.live: set[int] = set(range(n_nodes))
        self.ops_run = 0
        spans = PROBES.spans
        if spans is not None:
            spans.attach_clock(lambda: self.sim.now)
        mp = PROBES.metrics
        if mp is not None:
            mp.anchor(self.sim.now)
        self._gauge_live()
        register_metric_sources(self.setup)
        self.timeline = AvailabilityTimeline(scenario, seed, n_nodes)
        self.oracle = CommittedState(SysbenchWorkload.loaded_row)
        self.failovers = 0
        self.last_failover: dict[str, Any] = {}
        self.next_value = 1000
        self.write_keys: dict[int, list[int]] = {}
        self.key_leaf: dict[int, int] = {}
        self.spare_keys: list[int] = []

    # -- membership and routing --------------------------------------------------

    def _gauge_live(self) -> None:
        mp = PROBES.metrics
        if mp is not None:
            mp.gauge("fleet.live_nodes", float(len(self.live)))

    def mark_dead(self, index: int) -> None:
        self.live.discard(index)
        self._gauge_live()

    def add_node(self, node: MultiPrimaryNode) -> int:
        """Register a node already appended to ``setup.nodes`` (a fleet
        join) and return its routing index."""
        index = self.setup.nodes.index(node)
        self.live.add(index)
        self._gauge_live()
        return index

    def route(self, preferred: int) -> int:
        """The live node that serves ops preferring ``preferred``: the
        node itself, else the next live one in ring order — how
        partition ownership passes to a single successor at failover."""
        n = len(self.setup.nodes)
        for step in range(n):
            candidate = (preferred + step) % n
            if candidate in self.live:
                return candidate
        raise RuntimeError("fleet has no live nodes left to route to")

    def run_op(self, op: Op) -> int:
        """Route one op, run it to completion on the executor and return
        the executor's index; a problem the op reports is a
        :class:`FleetOracleError`.

        An :class:`InjectedCrash` is counted as ``status=crashed`` and
        re-raised; an :class:`RpcExhaustedError` propagates uncounted —
        degradation policy is the scenario's job.
        """
        kind, key, preferred, value = op
        target = self.route(preferred)
        self.ops_run += 1
        try:
            problem = self.sim.run_process(
                run_op(self.setup, (kind, key, target, value), self.oracle)
            )
        except InjectedCrash:
            self._count_op(kind, "crashed")
            raise
        self._count_op(kind, "ok")
        if problem:
            raise FleetOracleError(f"{self.scenario}: {problem}")
        return target

    def _count_op(self, kind: str, status: str) -> None:
        mp = PROBES.metrics
        if mp is not None:
            mp.count("fleet.client_ops", 1.0, kind=kind, status=status)
            mp.maybe_scrape(self.sim.now)

    # -- op stream -------------------------------------------------------------

    def partition_writes(self, keys_per_node: int = 3) -> None:
        """Give each node a leaf-disjoint write partition.

        Every fifth key is probed for its leaf through node0's btree and
        whole leaves are dealt round-robin, so no two nodes ever write the
        same page — the single-writer-per-page ownership the failover
        rebuild (storage + dead node's log) relies on. Keys on leaves
        nobody ended up writing become ``spare_keys``: fresh coordinates
        other nodes have never registered, which the degraded-mode
        scenario uses to force fusion RPCs.
        """
        node0 = self.setup.nodes[0]
        by_leaf: dict[int, list[int]] = {}
        leaf_order: list[int] = []
        with PROBES.scoped_actor(node0.node_id):
            for key in range(1, self.rows + 1, 5):
                leaf = node0._leaf_of(TABLE, key)
                self.key_leaf[key] = leaf
                if leaf not in by_leaf:
                    by_leaf[leaf] = []
                    leaf_order.append(leaf)
                by_leaf[leaf].append(key)
        self.sim.run_process(node0.settler.settle())
        n = len(self.setup.nodes)
        if len(leaf_order) < n:
            raise FleetOracleError(
                f"{len(leaf_order)} leaves cannot partition {n} writers"
            )
        assigned: dict[int, list[int]] = {i: [] for i in range(n)}
        for pos, leaf in enumerate(leaf_order):
            assigned[pos % n].extend(by_leaf[leaf])
        self.write_keys = {i: keys[:keys_per_node] for i, keys in assigned.items()}
        used_leaves = {
            self.key_leaf[k] for keys in self.write_keys.values() for k in keys
        }
        self.spare_keys = [
            k for k in sorted(self.key_leaf) if self.key_leaf[k] not in used_leaves
        ]

    def mixed_ops(self, rounds: int) -> list[Op]:
        """Per round, each partition owner updates one of its keys and
        cross-reads its ring *predecessor*'s key — so every partition is
        continuously read by the node that would inherit it at failover.
        That keeps the successor registered on the victim's pages, which
        is what routes the failover rebuild's invalid-flag pushes to it
        (and doubles as coherency traffic plus a continuous oracle check
        on every read)."""
        ops: list[Op] = []
        owners = sorted(self.write_keys)
        for r in range(rounds):
            for pos, owner in enumerate(owners):
                keys = self.write_keys[owner]
                self.next_value += 1
                ops.append(("update", keys[r % len(keys)], owner, self.next_value))
                okeys = self.write_keys[owners[(pos - 1) % len(owners)]]
                ops.append(("select", okeys[r % len(okeys)], owner, None))
        return ops

    def note(self, result: str, n: int = 1) -> None:
        """Record an op outcome on the availability timeline *and* as a
        ``fleet.ops{result=...}`` metric — the single bookkeeping point
        that keeps the SLO monitor's burn-rate input 1:1 with the
        timeline counters the scenarios already assert on."""
        self.timeline.count(result, n)
        mp = PROBES.metrics
        if mp is not None:
            mp.count("fleet.ops", float(n), result=result)

    def pump(self, ops: list[Op]) -> None:
        """Apply ops in order; a crash here is unplanned and propagates."""
        for op in ops:
            self.run_op(op)
            self.note("ok")

    # -- fault choreography ------------------------------------------------------

    def crash_node(
        self,
        victim: int,
        point: str,
        storm: tuple[str, ...] = (),
        between_attempts=None,
    ) -> None:
        """Kill ``victim`` inside one designated update, then fail over.

        The update is armed at the next hit of ``point``, so the node
        dies at an exact protocol coordinate; the crash step resolves it
        by the node's durable LSN.
        """
        node = self.setup.nodes[victim]
        if self.route(victim) != victim:
            raise FleetOracleError(f"crash target node{victim} is not live")
        self.next_value += 1
        op = ("update", self.write_keys[victim][0], victim, self.next_value)
        self.injector.arm(point, self.injector.hits.get(point, 0) + 1)
        self.timeline.begin_phase(
            f"crash {node.node_id}", "down", self.sim.now,
            node=node.node_id, point=point,
        )
        mp = PROBES.metrics
        if mp is not None:
            # Wedged from the moment the crash is armed until failover
            # converges; the health timeline derives per-node state from
            # this gauge.
            mp.gauge("ha.failover_inflight", 1.0, node=node.node_id)
        try:
            self.run_op(op)
        except InjectedCrash:
            pass
        else:
            raise FleetOracleError(
                f"armed crash at {point!r} did not kill node{victim}"
            )
        finally:
            self.injector.disarm()
        committed = crash(self.run, self.setup, self.oracle, op)
        self.note("failed")
        self.timeline.event(
            "crash_injected", self.sim.now,
            node=node.node_id, point=point, committed=committed,
        )
        self.fail_over(victim, arm_points=storm, between_attempts=between_attempts)
        if mp is not None:
            mp.gauge("ha.failover_inflight", 0.0, node=node.node_id)
        self.timeline.begin_phase(
            f"recovered ({len(self.live)} live)", "up", self.sim.now,
            live=len(self.live),
        )
        self.probe_write(victim)
        self.verify()

    def fail_over(
        self,
        victim: int,
        arm_points: tuple[str, ...],
        between_attempts,
    ) -> None:
        """Fusion failover (log retirement and epoch seal included) +
        handover of the crashed ``victim``.

        ``arm_points`` crash the failover itself, one attempt per point
        (a failover storm); each crashed attempt's MemSan actor is
        inherited by the next, and the final attempt must converge.
        ``between_attempts(attempt)``, if given, runs after each
        *crashed* attempt — the sharded-failover scenario uses it to
        prove the rest of the fleet keeps serving while one shard's
        recovery is wedged.
        """
        node = self.setup.nodes[victim]
        self.mark_dead(victim)
        spans = PROBES.spans
        dead_actor = node.node_id
        self.timeline.begin_phase(
            f"failover {node.node_id}", "failover", self.sim.now, node=node.node_id
        )
        attempt = 0
        while True:
            attempt += 1
            actor = f"failover-{node.node_id}-a{attempt}"
            if attempt <= len(arm_points):
                point = arm_points[attempt - 1]
                self.injector.arm(point, self.injector.hits.get(point, 0) + 1)
            meter = AccessMeter()
            span = (
                spans.begin("ha", "failover", meter=meter,
                            node=node.node_id, attempt=attempt)
                if spans is not None
                else None
            )
            try:
                rebuilt, retired = fail_over(
                    self.setup, node, meter, actor=actor, inherits=dead_actor
                )
            except InjectedCrash:
                self.injector.disarm()
                self.run.crashed(self.sim.now)
                dead_actor = actor
                self.timeline.event(
                    "failover_crashed", self.sim.now,
                    node=node.node_id, attempt=attempt,
                )
                self._advance_ns(meter.ns)
                if between_attempts is not None:
                    between_attempts(attempt)
                continue
            self.injector.disarm()
            break
        # The coordinator's metered work is the failover latency; elapse
        # it so the phase (and the span) has its true simulated width.
        self._advance_ns(meter.ns)
        if span is not None:
            spans.end(span, rebuilt=rebuilt, retired=retired)
        self.failovers += 1
        self.last_failover = {
            "attempts": attempt,
            "pages_rebuilt": rebuilt,
            "pages_retired": retired,
            "failover_ns": int(meter.ns),
        }
        self.timeline.annotate(**self.last_failover)
        self.timeline.event(
            "failover_done", self.sim.now, node=node.node_id, attempts=attempt
        )

    def probe_write(self, victim: int) -> None:
        """The ring successor updates the dead node's in-flight key —
        proving the force-released lock really is acquirable (a leaked
        lock would deadlock right here)."""
        self.next_value += 1
        self.run_op(("update", self.write_keys[victim][0], victim, self.next_value))
        self.note("ok")

    def verify(self) -> None:
        """Read back every key the run read or wrote through a live node."""
        reader = self.route(0)
        for key in sorted(self.oracle.history):
            self.run_op(("select", key, reader, None))

    # -- degraded-mode ops -------------------------------------------------------

    def degraded_select(
        self, key: int, executor: int, breaker: CircuitBreaker, probe: bool = False
    ) -> None:
        """A read under outage policy. Warm reads need no fusion RPC and
        always go through; a fresh key forces ``fusion.request_page``
        and, during an outage, burns the whole retry budget before
        surfacing the typed :class:`RpcExhaustedError`."""
        try:
            self.run_op(("select", key, executor, None))
        except RpcExhaustedError as exc:
            # An exhausted op unwinds like a crash: its spans never end.
            self.run.crashed(self.sim.now)
            # The op raised before settling; elapse its timeout+backoff
            # budget so breaker cooldown runs on honest simulated time.
            self._advance_ns(exc.spent_ns)
            breaker.on_failure(self.sim.now)
            self.note("failed")
            self.note("retried", max(exc.attempts - 1, 0))
            self.timeline.event(
                "rpc_exhausted", self.sim.now,
                op=exc.op, key=key, attempts=exc.attempts,
            )
            return
        if probe:
            breaker.on_success()
        self.note("ok")

    def degraded_update(
        self, op: Op, breaker: CircuitBreaker, backlog: list[Op]
    ) -> None:
        """A write under outage policy: shed to the backlog while the
        breaker is open, applied normally otherwise."""
        if not breaker.allows(self.sim.now):
            backlog.append(op)
            self.note("shed")
            return
        self.run_op(op)
        breaker.on_success()
        self.note("ok")

    # -- plumbing ---------------------------------------------------------------

    def _advance_ns(self, ns: float) -> None:
        """Elapse charged-but-unsettled work (failover meters, burnt
        retry budgets) on the simulator clock."""
        if ns <= 0:
            return
        sim = self.sim

        def waiter():
            yield sim.timeout(int(ns))

        sim.run_process(waiter())
        # Cooldowns and failover meters elapse time without settling, so
        # pull scrapes here or alert clearing would stall mid-cooldown.
        mp = PROBES.metrics
        if mp is not None:
            mp.maybe_scrape(sim.now)


def _run_scenario(
    name: str, seed: int, n_nodes: int, rows: int, body, n_shards: int = 1
) -> FleetResult:
    """Run ``body`` on a fresh fleet as one fully instrumented
    :class:`CheckedRun` (so scenarios compose under an outer harness)
    plus a fresh injector. After the body the whole battery must be
    clean, crash-abandoned spans allowed — and the SLO monitor's fired
    alerts must align with the availability timeline (alerts during
    injected degradation, silence in steady state, everything cleared
    by the end).
    """
    injector = FaultInjector(seed=seed)
    with CheckedRun(trace=True, spans=True, metrics=True, memsan=True) as run, injector:
        pipeline = PROBES.metrics
        assert pipeline is not None
        monitor = SLOMonitor()
        monitor.attach(pipeline)
        try:
            fleet = _Fleet(
                name, n_nodes, rows, seed, injector, run, n_shards=n_shards
            )
            run.watch(fleet.setup)
            detail = body(fleet) or {}
            fleet.timeline.end(fleet.sim.now)
            run.flush(fleet.sim.now)
        finally:
            # A shared outer pipeline outlives this scenario;
            # never leave a stale monitor listening on it.
            pipeline.remove_listener(monitor.record_window)
    run.check(allow_abandoned=True)
    if run.trace_stats is not None:
        detail.setdefault("trace_events", run.trace_stats.events)
    problems = check_alignment(
        monitor, fleet.timeline.phases, pipeline.scrape_interval_ns
    )
    if problems:
        raise FleetOracleError(
            f"{name}: alert/timeline misalignment: " + "; ".join(problems)
        )
    return FleetResult(
        scenario=name,
        seed=seed,
        timeline=fleet.timeline,
        oracle_checks=fleet.oracle.checks,
        failovers=fleet.failovers,
        memsan_reports=len(run.memsan.reports) if run.memsan is not None else 0,
        detail=detail,
        slo=monitor,
        metrics=run.metrics,
        # Only a pipeline this run owns end-to-end has single-scenario
        # series (a shared one mixes stamps from earlier runs).
        health=HealthTimeline.derive(run.metrics) if run.metrics is not None else None,
    )


# ---------------------------------------------------------------------------
# Scenario (a): rolling crashes under live load
# ---------------------------------------------------------------------------


def run_rolling_crash(seed: int = 11) -> FleetResult:
    """Crash two of three primaries one after another while the op
    stream keeps flowing: victim ``v`` dies right after op
    ``(v + 1) * per_segment`` of the stream."""
    n_nodes = 3
    crash_points = ("node.update.logged", "mtr.write.applied", "sharing.flush.lines")

    def body(fleet: _Fleet) -> dict[str, Any]:
        tl, sim = fleet.timeline, fleet.sim
        tl.begin_phase("warmup", "up", sim.now, live=n_nodes)
        fleet.partition_writes()
        ops = fleet.mixed_ops(2 * n_nodes)
        per_segment = len(ops) // n_nodes
        tl.begin_phase("healthy", "up", sim.now, live=n_nodes)
        done = 0
        for victim in range(n_nodes - 1):
            cut = (victim + 1) * per_segment + 1
            fleet.pump(ops[done:cut])
            fleet.crash_node(victim, crash_points[victim % len(crash_points)])
            done = cut
        fleet.pump(ops[done:])
        fleet.verify()
        return {"live_nodes": len(fleet.live), "ops_run": fleet.ops_run}

    result = _run_scenario("rolling-crash", seed, n_nodes, 240, body)
    if result.failovers != n_nodes - 1:
        raise FleetOracleError(
            f"expected {n_nodes - 1} failovers, saw {result.failovers}"
        )
    return result


# ---------------------------------------------------------------------------
# Scenario (b): graceful leave, warm join, recovery baselines
# ---------------------------------------------------------------------------


def run_join_leave(seed: int = 13, with_baselines: bool = True) -> FleetResult:
    """A primary leaves gracefully; a fresh primary joins and inherits
    the warm CXL buffer pool (PolarRecv-style warm attach: zero storage
    reads). With ``with_baselines`` the attach time is compared against
    full recovery under polarrecv / rdma / vanilla-ARIES, which must
    order CXL fastest."""

    def body(fleet: _Fleet) -> dict[str, Any]:
        tl, sim, setup = fleet.timeline, fleet.sim, fleet.setup
        tl.begin_phase("warmup", "up", sim.now, live=2)
        fleet.partition_writes()
        tl.begin_phase("healthy", "up", sim.now, live=2)
        fleet.pump(fleet.mixed_ops(2))

        # Graceful leave: node1 stops serving, the fusion server drops
        # its registrations, its partition routes to the ring successor.
        leaver = setup.nodes[1]
        tl.begin_phase("leave node1", "up", sim.now, node=leaver.node_id)
        dropped = setup.fusion.deregister_node(leaver.node_id)
        fleet.mark_dead(1)
        tl.event("leave", sim.now, node=leaver.node_id, entries_dropped=dropped)
        fleet.pump(fleet.mixed_ops(1))
        fleet.verify()

        # Warm join: a fresh primary attaches to the surviving pool,
        # reusing the leaver's flag-slab extent.
        tl.begin_phase("join node2 (warm attach)", "join", sim.now)
        join_start = sim.now
        loaded_before = setup.fusion.pages_loaded
        with PROBES.scoped_actor(f"node{len(setup.nodes)}"):
            joiner = add_sharing_node(
                setup, reuse_slab=leaver.engine.buffer_pool.flag_slab
            )
            # Crash (of the joiner) here: it is registered with nothing
            # yet and holds no locks — the fleet just carries on without it.
            crash_point("sharing.join.warm")
            joiner_index = fleet.add_node(joiner)
            sim.run_process(joiner.settler.settle())
        warm_keys = sorted(k for keys in fleet.write_keys.values() for k in keys)
        for key in warm_keys:
            if fleet.run_op(("select", key, joiner_index, None)) != joiner_index:
                raise FleetOracleError("joiner failed a warm read")
            fleet.note("ok")
        attach_ns = sim.now - join_start
        if setup.fusion.pages_loaded != loaded_before:
            raise FleetOracleError(
                "join was not warm: fusion loaded pages from storage"
            )
        tl.annotate(attach_ms=attach_ns / 1e6, warm_reads=len(warm_keys))

        # The joiner inherits the leaver's write partition and serves it.
        tl.begin_phase("joined steady state", "up", sim.now, live=2)
        fleet.pump(fleet.mixed_ops(1))
        fleet.verify()

        detail: dict[str, Any] = {
            "attach_ms": attach_ns / 1e6,
            "warm_reads": len(warm_keys),
        }
        if with_baselines:
            # Recovery baselines run their own simulators; re-anchor the
            # span clock to the fleet sim afterwards.
            tl.begin_phase("recovery baselines", "up", sim.now)
            baseline_ms: dict[str, float] = {}
            warm_fraction = 0.0
            for scheme in ("polarrecv", "rdma", "vanilla"):
                timeline = run_recovery_experiment(
                    scheme,
                    rows=2400,
                    workers=4,
                    phase1_txns=2,
                    phase2_txns=6,
                    seed=seed,
                )
                baseline_ms[scheme] = timeline.recovery_seconds * 1e3
                if scheme == "polarrecv" and timeline.detail is not None:
                    warm_fraction = timeline.detail.warm_fraction
            spans = PROBES.spans
            if spans is not None:
                spans.attach_clock(lambda: fleet.sim.now)
            if baseline_ms["polarrecv"] >= min(
                baseline_ms["rdma"], baseline_ms["vanilla"]
            ):
                raise FleetOracleError(
                    f"polarrecv recovery must be the fastest baseline: {baseline_ms}"
                )
            if attach_ns / 1e6 >= baseline_ms["rdma"]:
                raise FleetOracleError(
                    "warm CXL attach must beat RDMA-assisted recovery"
                )
            detail["baseline_recovery_ms"] = {
                k: round(v, 3) for k, v in baseline_ms.items()
            }
            detail["polarrecv_warm_fraction"] = round(warm_fraction, 3)
            tl.annotate(
                baseline_recovery_ms=detail["baseline_recovery_ms"],
                polarrecv_warm_fraction=detail["polarrecv_warm_fraction"],
            )
        return detail

    return _run_scenario("join-leave", seed, 2, 200, body)


# ---------------------------------------------------------------------------
# Scenario (c): fusion failover storm
# ---------------------------------------------------------------------------


def run_failover_storm(
    seed: int = 17,
    storm_points: tuple[str, ...] = (
        "fusion.failover.rebuilt",
        "pagestore.write_page",
        "fusion.failover.released",
    ),
) -> FleetResult:
    """Crash-during-failover, repeatedly: the writer dies mid-flush with
    its release RPC unsent, then each failover attempt dies at the next
    storm point (including a torn hardening write) before one finally
    converges. Every attempt inherits the previous attempt's MemSan
    actor, so the force-apply rebuild must be re-entrant at each
    coordinate."""

    def body(fleet: _Fleet) -> dict[str, Any]:
        tl, sim = fleet.timeline, fleet.sim
        tl.begin_phase("warmup", "up", sim.now, live=2)
        fleet.partition_writes()
        tl.begin_phase("healthy", "up", sim.now, live=2)
        fleet.pump(fleet.mixed_ops(2))
        fleet.crash_node(0, "sharing.flush.lines", storm=storm_points)
        fleet.pump(fleet.mixed_ops(1))
        fleet.verify()
        return dict(fleet.last_failover)

    result = _run_scenario("failover-storm", seed, 2, 200, body)
    expected_attempts = len(storm_points) + 1
    if result.detail.get("attempts") != expected_attempts:
        raise FleetOracleError(
            f"storm should take {expected_attempts} attempts, "
            f"took {result.detail.get('attempts')}"
        )
    return result


# ---------------------------------------------------------------------------
# Scenario (d): graceful degradation under an RPC outage
# ---------------------------------------------------------------------------


def run_degraded_mode(seed: int = 19) -> FleetResult:
    """A fusion RPC outage trips the circuit breaker after two exhausted
    retry budgets; the fleet degrades to read-only (warm reads served,
    writes shed to a backlog), then recovers: cooldown, half-open probe,
    breaker closes, backlog drains in order, oracle verifies."""

    def body(fleet: _Fleet) -> dict[str, Any]:
        tl, sim = fleet.timeline, fleet.sim
        breaker = CircuitBreaker(name="fusion")
        tl.begin_phase("warmup", "up", sim.now, live=2)
        fleet.partition_writes()
        tl.begin_phase("healthy", "up", sim.now, live=2)
        fleet.pump(fleet.mixed_ops(2))
        if len(fleet.spare_keys) < 3:
            raise FleetOracleError("need 3 spare (never-registered) keys")

        outage = ("fusion.request_page", "fusion.on_write_release")
        for rpc in outage:
            fleet.injector.outage_rpcs(rpc)
            tl.event("outage_begin", sim.now, rpc=rpc)
        tl.begin_phase("outage: tripping breaker", "degraded", sim.now)
        # Two fresh-key reads burn their full retry budgets and trip the
        # breaker (failure_threshold=2). Exhaustion fires inside the
        # btree walk, before any lock is taken — a clean unwind.
        fleet.degraded_select(fleet.spare_keys[0], 1, breaker)
        fleet.degraded_select(fleet.spare_keys[1], 1, breaker)
        if breaker.state != "open":
            raise FleetOracleError(f"breaker should be open, is {breaker.state}")
        tl.event("breaker_open", sim.now, failures=breaker.failure_threshold)

        tl.begin_phase("degraded read-only", "degraded", sim.now)
        backlog: list[Op] = []
        owners = sorted(fleet.write_keys)
        for r in range(2):
            for owner in owners:
                keys = fleet.write_keys[owner]
                fleet.next_value += 1
                op = ("update", keys[r % len(keys)], owner, fleet.next_value)
                fleet.degraded_update(op, breaker, backlog)
            # Warm reads keep being served without a single fusion RPC.
            fleet.degraded_select(fleet.write_keys[0][0], 1, breaker)
            fleet.degraded_select(fleet.write_keys[1][0], 0, breaker)

        for rpc in outage:
            fleet.injector.restore_rpcs(rpc)
            tl.event("outage_end", sim.now, rpc=rpc)
        tl.begin_phase("cooldown", "degraded", sim.now)
        fleet._advance_ns(breaker.cooldown_ns + 1e6)

        tl.begin_phase("probe + drain", "drain", sim.now)
        if not breaker.allows(sim.now):
            raise FleetOracleError("breaker did not half-open after cooldown")
        fleet.degraded_select(fleet.spare_keys[2], 1, breaker, probe=True)
        if breaker.state != "closed":
            raise FleetOracleError(
                f"probe should close the breaker, state={breaker.state}"
            )
        tl.event("breaker_closed", sim.now, probes=breaker.probes)
        for op in backlog:
            fleet.run_op(op)
            fleet.note("drained")
        tl.begin_phase("recovered", "up", sim.now, live=2)
        fleet.verify()
        return {
            "breaker_opens": breaker.opens,
            "breaker_probes": breaker.probes,
            "shed": len(backlog),
        }

    result = _run_scenario("degraded-mode", seed, 2, 260, body)
    if result.timeline.degraded_ns <= 0:
        raise FleetOracleError("degraded phases recorded no time")
    if result.timeline.downtime_ns != 0:
        raise FleetOracleError("degradation must not count as downtime")
    if result.detail.get("shed", 0) <= 0:
        raise FleetOracleError("no writes were shed during the outage")
    return result


# ---------------------------------------------------------------------------
# Scenario (e): sharded fusion tier — one shard's failover wedges, the
# rest of the fleet keeps serving
# ---------------------------------------------------------------------------


def run_sharded_failover(seed: int = 23) -> FleetResult:
    """Crash one of four primaries on a two-shard fusion tier, then
    crash the failover coordinator mid-rebuild — inside the victim
    page's *owning shard* — and prove the fleet keeps serving reads on
    pages owned by the other shard while that one shard's recovery is
    wedged. The retry
    converges, and log retirement runs shard by shard (each shard
    hardens only the pages it owns; the union equals a full
    retirement)."""
    n_nodes, n_shards = 4, 2

    def body(fleet: _Fleet) -> dict[str, Any]:
        tl, sim, setup = fleet.timeline, fleet.sim, fleet.setup
        tl.begin_phase("warmup", "up", sim.now, live=n_nodes)
        fleet.partition_writes()
        tl.begin_phase("healthy", "up", sim.now, live=n_nodes)
        fleet.pump(fleet.mixed_ops(2))

        # The victim dies mid-flush on its first partition key; that
        # page's owning shard is the one whose failover will be stormed.
        victim_key = fleet.write_keys[0][0]
        victim_shard = setup.fusion.owner_index(fleet.key_leaf[victim_key])
        served = {"mid_failover_reads": 0}

        def keep_serving(attempt: int) -> None:
            # Shard `victim_shard`'s recovery just crashed mid-rebuild.
            # Every page owned by another shard must still serve — its
            # shard's metadata, directory and locks are untouched.
            tl.begin_phase(
                f"shard {victim_shard} wedged (attempt {attempt})",
                "degraded",
                sim.now,
            )
            for owner in sorted(fleet.write_keys)[1:]:
                for key in fleet.write_keys[owner]:
                    leaf = fleet.key_leaf.get(key)
                    if leaf is None or setup.fusion.owner_index(leaf) == victim_shard:
                        continue
                    fleet.run_op(("select", key, owner, None))
                    fleet.note("ok")
                    served["mid_failover_reads"] += 1

        mp = PROBES.metrics
        if mp is not None:
            # Per-shard health: the victim page's owning shard is wedged
            # for the whole crash -> stormed-failover -> retry arc.
            mp.gauge("ha.failover_inflight", 1.0, shard=str(victim_shard))
        fleet.crash_node(
            0,
            "sharing.flush.lines",
            storm=("fusion.failover.rebuilt",),
            between_attempts=keep_serving,
        )
        if mp is not None:
            mp.gauge("ha.failover_inflight", 0.0, shard=str(victim_shard))
        fleet.pump(fleet.mixed_ops(1))
        fleet.verify()
        detail = dict(fleet.last_failover)
        detail.update(served)
        detail["n_shards"] = setup.n_shards
        detail["victim_shard"] = victim_shard
        detail["per_shard_resident"] = [
            shard.resident_count for shard in setup.fusion_shards
        ]
        return detail

    result = _run_scenario(
        "sharded-failover", seed, n_nodes, 320, body, n_shards=n_shards
    )
    if result.detail.get("attempts") != 2:
        raise FleetOracleError(
            f"sharded storm should converge on attempt 2, "
            f"took {result.detail.get('attempts')}"
        )
    if result.detail.get("mid_failover_reads", 0) <= 0:
        raise FleetOracleError(
            "no reads were served by healthy shards mid-failover"
        )
    if len(result.detail.get("per_shard_resident", [])) != n_shards:
        raise FleetOracleError("fusion tier was not sharded")
    return result


SCENARIOS = {
    "rolling-crash": run_rolling_crash,
    "join-leave": run_join_leave,
    "failover-storm": run_failover_storm,
    "degraded-mode": run_degraded_mode,
    "sharded-failover": run_sharded_failover,
}
