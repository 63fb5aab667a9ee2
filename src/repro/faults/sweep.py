"""Crash-anywhere recovery sweeps over the fault-injection crash points.

The FoundationDB-style argument for trusting recovery is exhaustive,
deterministic crash coverage: enumerate every crash point a canonical
workload actually reaches (one golden run with the injector installed
but nothing armed), then for each ``(point, hit)`` coordinate re-run the
identical workload (armed from the last transaction boundary before the
coordinate; the prefix is the golden run's), kill the process there, run
recovery, and check that the recovered database contains **exactly the
committed state** — the state as of the largest durable LSN at crash
time, nothing more, nothing less. Fixed seeds make every coordinate
reproducible in isolation.

Four sweeps live here:

* :func:`sweep_workload_points` — single-node PolarCXLMem engine. Crash
  anywhere in mtr commit, WAL append/flush, page flush, LRU relink,
  eviction, allocation; recover with PolarRecv; compare against the
  golden run's committed-state oracle.
* :func:`sweep_recovery_points` — crash *recovery itself* at each of its
  internal points, then recover again (re-entrancy: a half-finished
  PolarRecv must leave the extent recoverable).
* :func:`sweep_sharing_points` — two multi-primary nodes over the buffer
  fusion server. Crash either node anywhere in the update/select/flush/
  RPC protocol, run fusion failover (page rebuild from storage + the
  dead node's durable redo, then force-release of its distributed
  locks), and verify the survivor reads exactly the committed values —
  and, when the writer survives, that it can still write (the locks
  really were released; a leak would deadlock the simulator).
* :func:`sweep_failover_storm_points` — crash *failover itself* at every
  point the coordinator reaches (fusion rebuild, hardening writes, lock
  breaking, log retirement — including torn storage writes), then run
  failover again: the retry must converge on exactly the committed
  state (the fleet failover-storm guarantee of :mod:`repro.ha`).

The single-node oracle is a map ``durable_max_lsn -> {key: k}``
snapshotted after every transaction of the golden run. The canonical
workloads use single-mtr transactions, so every durable log prefix is
transaction atomic and the crash-time ``durable_max_lsn`` always equals
one of the snapshot keys (mtr records enter the log buffer atomically at
commit; flushes move the whole buffer). The sharing sweeps check their
own runs with :class:`~repro.analysis.checked.CommittedState`, and run,
crash and fail over through the scenario core beside it
(:func:`~repro.analysis.checked.run_op`, :func:`~repro.analysis.checked.crash`,
:func:`~repro.analysis.checked.fail_over`).

This module deliberately lives in ``src`` (not ``tests``) so the sweep
is usable as a library — from pytest, from a REPL while debugging a
failing coordinate, or from future CI runs sweeping larger workloads.
"""

from __future__ import annotations

import json
import random
import traceback
from bisect import bisect_right
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable

from ..analysis.checked import CheckedRun, CommittedState, Op, crash, fail_over, run_op
from ..analysis.memsan import MemSanError
from ..core.block import pool_bytes_needed
from ..core.memmgr import CxlMemoryManager
from ..db.btree import BTreeCorruptionError
from ..db.constants import PAGE_SIZE
from ..db.engine import Engine
from ..db.record import Field, RecordCodec
from ..hardware.cache import LineCacheModel
from ..hardware.host import Cluster, Host
from ..hardware.memory import AccessMeter
from ..obs.image import IMAGES, materialize
from ..obs.world import SharingSetup, build_cxl_engine, build_sharing_setup, recover_cxl_engine
from ..sim.core import Simulator
from ..sim.latency import CostModel
from ..storage.pagestore import PageStore
from ..storage.wal import RedoLog
from ..workloads.sysbench import SysbenchWorkload
from .injector import FaultInjector, InjectedCrash

__all__ = [
    "SCENARIOS",
    "CrashSweepError",
    "SweepOutcome",
    "SweepReport",
    "report_to_json",
    "sweep_workload_points",
    "sweep_recovery_points",
    "sweep_sharing_points",
    "sweep_failover_storm_points",
]

SWEEP_CODEC = RecordCodec(
    [Field("id", 8), Field("k", 4), Field("payload", 1500, "bytes")]
)

_BASE_ROWS = 100  # ~10 rows per leaf: tail inserts split leaves quickly
_WORKLOAD_TXNS = 36
_CHECKPOINT_EVERY = 9
_N_BLOCKS = 22  # one free block at workload start, then eviction pressure


class CrashSweepError(AssertionError):
    """A sweep coordinate recovered the wrong state (or never crashed)."""


@dataclass
class SweepOutcome:
    """Result of one crash-and-recover run at one coordinate."""

    point: str
    hit: int
    crashed: bool
    recovered_ok: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.crashed and self.recovered_ok


@dataclass
class SweepReport:
    """All outcomes of one sweep plus the points it enumerated."""

    scenario: str
    outcomes: list[SweepOutcome] = field(default_factory=list)
    distinct_points: list[str] = field(default_factory=list)

    def failures(self) -> list[SweepOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def raise_for_failures(self) -> None:
        bad = self.failures()
        if bad:
            lines = ", ".join(
                f"{o.point}#{o.hit}: {o.detail or 'did not crash'}" for o in bad
            )
            raise CrashSweepError(
                f"{self.scenario} sweep: {len(bad)} failing coordinate(s): {lines}"
            )


def report_to_json(report: SweepReport) -> str:
    """Canonical JSON for a sweep report (sorted keys, fixed layout).

    Pinned digests of these bytes (``tests/integration/test_world_image.py``)
    hold a sweep to *exactly* its earlier report, not merely an
    equivalent one.
    """
    payload = {
        "scenario": report.scenario,
        "distinct_points": list(report.distinct_points),
        "outcomes": [
            {
                "point": outcome.point,
                "hit": outcome.hit,
                "crashed": outcome.crashed,
                "recovered_ok": outcome.recovered_ok,
                "detail": outcome.detail,
            }
            for outcome in report.outcomes
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _sweep_coordinates(
    title: str,
    scenario: str,
    unit: Callable[..., SweepOutcome],
    seed: int,
    trace: list[tuple[str, int]],
    extra: tuple,
    max_hits_per_point: int,
    limit: int | None,
    only: tuple[str, int] | None,
) -> SweepReport:
    """Sweep the coordinates an enumeration ``trace`` reached: one
    ``unit(seed, point, hit, *extra)`` call each, run in the order the
    trace reached them (so a sweep that resumes from prefix images never
    rolls backwards), reported in enumeration order. A unit that raises
    is a red outcome naming the exception and the one-line serial repro."""
    coordinates = _select_hits(trace, max_hits_per_point)[:limit]
    if only is not None:
        coordinates = [only]
    reached = {coordinate: index for index, coordinate in enumerate(trace)}
    outcomes: dict[tuple[str, int], SweepOutcome] = {}
    for point, hit in sorted(coordinates, key=lambda c: reached.get(c, 0)):
        try:
            outcomes[point, hit] = unit(seed, point, hit, *extra)
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            outcomes[point, hit] = SweepOutcome(
                point, hit, False, False,
                f"unit error {type(exc).__name__}: {exc} at {frame.name}:"
                f"{frame.lineno} [repro: "
                "PYTHONPATH=src python -m repro.parallel sweep "
                f"--scenario {scenario} --seed {seed} --point {point} --hit {hit}]",
            )
    return SweepReport(
        title,
        [outcomes[coordinate] for coordinate in coordinates],
        sorted({name for name, _ in trace}),
    )


def _select_hits(
    trace: list[tuple[str, int]], max_hits_per_point: int
) -> list[tuple[str, int]]:
    """Sample coordinates per point name: first, last, and (optionally)
    middle hit — crash points inside loops fire hundreds of times and the
    interesting states are the boundaries."""
    totals: dict[str, int] = {}
    for name, hit in trace:
        totals[name] = max(totals.get(name, 0), hit)
    coordinates: list[tuple[str, int]] = []
    for name in sorted(totals):
        total = totals[name]
        picks = {1, total}
        if max_hits_per_point >= 3:
            picks.add((total + 1) // 2)
        coordinates.extend((name, hit) for hit in sorted(picks))
    return coordinates


def _expected_at(snapshots: dict[int, dict], durable_lsn: int) -> dict:
    """Committed state as of ``durable_lsn``: the snapshot at the largest
    recorded LSN not exceeding it."""
    eligible = [lsn for lsn in snapshots if lsn <= durable_lsn]
    if not eligible:
        raise CrashSweepError(
            f"no oracle snapshot at or below durable LSN {durable_lsn}"
        )
    return snapshots[max(eligible)]


# ---------------------------------------------------------------------------
# Single-node scenario
# ---------------------------------------------------------------------------


@dataclass
class _Scenario:
    """One PolarCXLMem engine plus the plumbing recovery needs."""

    sim: Simulator
    cluster: Cluster
    host: Host
    engine: Engine
    store: PageStore
    redo: RedoLog
    manager: CxlMemoryManager
    extent: object
    # The stateful components as built, by name: what a world image of
    # the scenario snapshots and restores.
    parts: dict[str, object]


@dataclass
class _GoldenRun:
    trace: list[tuple[str, int]]
    snapshots: dict[int, dict]
    model: dict
    # Index into ``trace`` where each workload transaction starts: the
    # hits of every point before a boundary are that prefix, counted.
    starts: list[int]


@dataclass
class _Workload:
    """The canonical workload between two transactions: what it carries
    from one to the next besides the scenario."""

    txn: int
    model: dict
    rng: random.Random
    next_key: int


def _row(key: int) -> dict:
    return {"id": key, "k": key % 97, "payload": bytes([key % 251]) * 1500}


def _build_scenario() -> _Scenario:
    """Fresh components, wired and empty: nothing is formatted or
    written. :func:`_setup_baseline` starts a world from here; every
    other path restores one from an image."""
    sim = Simulator()
    cluster = Cluster(sim)
    host = cluster.add_host("h0")
    meter = AccessMeter()
    store = PageStore(PAGE_SIZE, meter)
    redo = RedoLog(meter)
    assert cluster.fabric is not None
    manager = CxlMemoryManager(
        cluster.fabric, pool_bytes_needed(_N_BLOCKS) + (4 << 21)
    )
    line_cache = LineCacheModel()
    engine, extent = build_cxl_engine(
        "sweep", host, manager, _N_BLOCKS, meter, store, redo, line_cache, CostModel(),
        lru_move_period=1,
    )
    parts = {
        "sim": sim,
        "host": host,
        "manager": manager,  # with the pool region's contents
        "meter": meter,
        "line_cache": line_cache,
        "store": store,
        "redo": redo,
        "pool": engine.buffer_pool,
        "engine": engine,
    }
    return _Scenario(
        sim, cluster, host, engine, store, redo, manager, extent, parts
    )


def _setup_baseline(scenario: _Scenario) -> dict:
    """Uninjected setup from an empty world: pool format, meta page,
    table, baseline rows, durable checkpoint. The baseline image's
    build, the one path that formats the pool.

    Runs *before* the injector is installed so crash-point hit counts
    start at the workload — (point, hit) coordinates stay stable whether
    or not setup internals change."""
    scenario.engine.buffer_pool.format()
    scenario.engine.initialize()
    table = scenario.engine.create_table("t", SWEEP_CODEC)
    model: dict[int, int] = {}
    for key in range(1, _BASE_ROWS + 1):
        mtr = scenario.engine.mtr()
        table.insert(mtr, key, _row(key))
        mtr.commit()
        model[key] = key % 97
    scenario.engine.redo_log.flush()
    scenario.engine.checkpoint()
    return model


def _run_workload(
    scenario: _Scenario,
    work: _Workload,
    until: int = _WORKLOAD_TXNS,
    snapshots: dict[int, dict] | None = None,
) -> None:
    """The canonical seeded workload, transactions ``work.txn`` up to
    ``until``: single-mtr insert/update/delete transactions with
    periodic checkpoints; the golden run snapshots committed state
    after every commit."""
    engine = scenario.engine
    table = engine.tables["t"]
    rng, model = work.rng, work.model
    while work.txn < until:
        txn = engine.begin()
        mtr = txn.mtr()
        op = rng.choice(("insert", "insert", "update", "update", "delete"))
        if op == "insert":
            key = work.next_key
            work.next_key += 1
            table.insert(mtr, key, _row(key))
            model[key] = key % 97
        elif op == "update":
            key = rng.choice(sorted(model))
            value = (key + work.txn) % 97
            if table.update_field(mtr, key, "k", value):
                model[key] = value
        else:
            key = rng.choice(sorted(model))
            if table.delete(mtr, key):
                model.pop(key)
        mtr.commit()
        txn.commit()
        if snapshots is not None:
            snapshots[scenario.redo.durable_max_lsn] = dict(model)
        work.txn += 1
        if work.txn % _CHECKPOINT_EVERY == 0:
            engine.checkpoint()


def _retire(*kinds: str) -> None:
    """Drop the world images of these kinds: they die with their sweep."""
    for key in [key for key in IMAGES if key[0] in kinds]:
        del IMAGES[key]


def _roll_to(scenario: _Scenario, seed: int, txn: int) -> _Workload:
    """Bring the fresh ``scenario`` to the start of workload transaction
    ``txn``; returns the workload's own state there.

    Boundary 0 is the baseline image every seed shares. A later one
    restores the live boundary image if that is at or before ``txn``
    (else the baseline), rolls forward *uninstrumented* — the golden run
    put this very prefix through the whole :class:`CheckedRun` battery —
    and becomes the live image: at most one is alive."""
    if txn == 0:
        model = materialize(
            ("sweep.baseline",), scenario.parts, lambda: _setup_baseline(scenario)
        )
        return _Workload(0, dict(model), random.Random(seed), _BASE_ROWS + 1)
    key = ("sweep.boundary", seed, txn)

    def roll_forward() -> tuple:
        live = [k[2] for k in IMAGES if k[:2] == key[:2] and k[2] < txn]
        work = _roll_to(scenario, seed, max(live, default=0))
        _retire("sweep.boundary")
        _run_workload(scenario, work, txn)
        return work.model, work.rng.getstate(), work.next_key

    model, rng_state, next_key = materialize(key, scenario.parts, roll_forward)
    rng = random.Random()
    rng.setstate(rng_state)
    return _Workload(txn, dict(model), rng, next_key)


def _roll_before(
    scenario: _Scenario, seed: int, golden: _GoldenRun, point: str, hit: int
) -> tuple[_Workload, FaultInjector]:
    """Bring the fresh ``scenario`` to the last transaction boundary
    before (point, hit) — boundary 0 for a coordinate the golden run
    never reached — and arm an injector that counts on from the hits
    the golden run had seen there."""
    coordinate = (point, hit)
    index = golden.trace.index(coordinate) if coordinate in golden.trace else 0
    txn = bisect_right(golden.starts, index) - 1
    hits = dict(golden.trace[: golden.starts[txn]])  # a point's last hit is its count
    injector = FaultInjector(seed=seed).resume_after(hits).arm(point, hit)
    return _roll_to(scenario, seed, txn), injector


def _read_contents(engine: Engine) -> dict:
    """``{key: k}`` for every row. The tree walk fixes each page once, in
    its own mtr (so pins never exceed the small pool), and raises
    :class:`BTreeCorruptionError` for a tree out of key order."""
    table = engine.tables["t"]
    decode = table.codec.decode
    contents: dict[int, int] = {}
    for _, payload in table.btree.checked_scan(engine.mtr):
        row = decode(payload)
        contents[row["id"]] = row["k"]
    return contents


def _recover(scenario: _Scenario) -> Engine:
    """The documented recovery path, :func:`recover_cxl_engine`, with a
    fresh line cache."""
    engine, _stats = recover_cxl_engine(
        "recovered", scenario.host, scenario.manager, scenario.extent, _N_BLOCKS,
        scenario.store, scenario.redo, LineCacheModel(), scenario.engine.cost,
        [("t", SWEEP_CODEC)],
    )
    return engine


def _verdict(
    point: str, hit: int, engine: Engine, redo: RedoLog, expected: dict
) -> SweepOutcome:
    """A crashed-and-recovered coordinate is green when the rows read
    back are exactly the committed ones, from a tree in key order, and
    the durable log that survived is strictly LSN-increasing."""
    try:
        actual = _read_contents(engine)
    except BTreeCorruptionError as exc:
        detail = f"recovered tree is corrupt: {exc}"
    else:
        detail = "" if actual == expected else (
            f"recovered {len(actual)} rows != committed {len(expected)} "
            f"(durable LSN {redo.durable_max_lsn})"
        )
    if not redo.verify_ordered():
        detail = "durable log is not strictly LSN-increasing after recovery"
    return SweepOutcome(point, hit, True, not detail, detail)


def _crashes(
    run: CheckedRun,
    injector: FaultInjector,
    sim: Simulator,
    phase: Callable[[], object],
) -> bool:
    """Run one injected ``phase``; True if it died at the armed point
    (the installed instruments then get their crash semantics)."""
    try:
        with injector:
            phase()
    except InjectedCrash:
        run.crashed(sim.now)
        return True
    return False


def _golden_run(seed: int) -> _GoldenRun:
    """The enumeration pass doubles as a protocol-invariant check: its
    full trace (WAL LSN order), span tree and metrics timeline go
    through the whole :class:`CheckedRun` battery. One per seed and
    process: both single-node sweeps read the same (read-only) run."""
    return materialize(("sweep.golden", seed), {}, lambda: _enumerate(seed))


def _enumerate(seed: int) -> _GoldenRun:
    scenario = _build_scenario()
    with closing(scenario.cluster):
        work = _roll_to(scenario, seed, 0)
        snapshots = {scenario.redo.durable_max_lsn: dict(work.model)}
        starts: list[int] = []
        injector = FaultInjector(seed=seed)
        with CheckedRun(trace=True, spans=True, metrics=True) as run, injector:
            while work.txn < _WORKLOAD_TXNS:
                starts.append(len(injector.trace))
                _run_workload(scenario, work, work.txn + 1, snapshots)
            run.flush(scenario.sim.now)
        run.check()
        if _read_contents(scenario.engine) != work.model:
            raise CrashSweepError("golden run is internally inconsistent")
    return _GoldenRun(list(injector.trace), snapshots, work.model, starts)


def _crash_workload(
    run: CheckedRun, scenario: _Scenario, work: _Workload, injector: FaultInjector
) -> bool:
    """Run the rest of the canonical workload under the armed injector;
    True if it crashed (the scenario is then power-cycled)."""
    if not _crashes(
        run, injector, scenario.sim, lambda: _run_workload(scenario, work)
    ):
        return False
    _power_cycle(scenario)
    return True


def _power_cycle(scenario: _Scenario) -> None:
    scenario.engine.crash()
    scenario.host.crash()
    scenario.host.restart()


def _crash_and_recover(
    seed: int, point: str, hit: int, golden: _GoldenRun
) -> SweepOutcome:
    """One unit: crash at (point, hit), recover, check oracle.

    Every coordinate doubles as a span-balance and crash-safe-scrape
    check: the crash must leave no span ``open``, the recovered run's
    spans must nest, and the timeline scraped across the crash must
    hold only complete samples."""
    scenario = _build_scenario()
    with closing(scenario.cluster):
        work, injector = _roll_before(scenario, seed, golden, point, hit)
        with CheckedRun(spans=True, metrics=True) as run:
            if not _crash_workload(run, scenario, work, injector):
                return SweepOutcome(point, hit, False, False, "armed point never fired")
            engine = _recover(scenario)
            run.flush(scenario.sim.now)
        run.check(allow_abandoned=True)
        expected = _expected_at(golden.snapshots, scenario.redo.durable_max_lsn)
        return _verdict(point, hit, engine, scenario.redo, expected)


def sweep_workload_points(
    seed: int = 7,
    max_hits_per_point: int = 2,
    limit: int | None = None,
    only: tuple[str, int] | None = None,
) -> SweepReport:
    """Crash the single-node engine at every reached point; verify
    PolarRecv restores exactly the committed state each time.

    ``limit`` caps the coordinate count (tests and smoke runs sweep a
    prefix of the full enumeration); ``only=(point, hit)`` replays one
    coordinate — the CLI's repro mode."""
    golden = _golden_run(seed)
    try:
        return _sweep_coordinates(
            "single-node", "workload", _crash_and_recover, seed, golden.trace,
            (golden,), max_hits_per_point, limit, only,
        )
    finally:
        _retire("sweep.boundary")


# ---------------------------------------------------------------------------
# Recovery re-entrancy
# ---------------------------------------------------------------------------

# Crashing at the last applied-but-unlogged page write guarantees blocks
# with persisted lock state, so recovery exercises its rebuild path.
_REENTRY_FIRST_POINT = "mtr.write.applied"
# What of a scenario survives a power cycle (recovery reads nothing else).
_SURVIVORS = ("sim", "host", "manager", "store", "redo")


def _crash_first(scenario: _Scenario, seed: int, golden: _GoldenRun) -> None:
    """Bring the fresh ``scenario`` to a power cycle after its workload
    died at the last hit of the first-crash point.

    The first call of a sweep runs that crash, checked, and keeps the
    image of what survived — taken with every instrument uninstalled
    and the host restarted: the half-done state *is* the subject. Later
    calls restore it into the freshly wired scenario and power-cycle it."""
    first_hit = max(  # never reached: hit 1 never fires, and first_crash says so
        (h for name, h in golden.trace if name == _REENTRY_FIRST_POINT), default=1
    )

    def first_crash() -> None:
        work, injector = _roll_before(
            scenario, seed, golden, _REENTRY_FIRST_POINT, first_hit
        )
        with CheckedRun(spans=True) as run:
            if not _crash_workload(run, scenario, work, injector):
                raise CrashSweepError(
                    f"re-entrancy sweep: {_REENTRY_FIRST_POINT!r} never fired"
                )
        run.check(allow_abandoned=True)

    survivors = {name: scenario.parts[name] for name in _SURVIVORS}
    materialize(("sweep.crashed", seed), survivors, first_crash)
    _power_cycle(scenario)  # idempotent: what a restore was wired with is dead too


def _recovery_unit(
    seed: int, point: str, hit: int, golden: _GoldenRun, expected: dict
) -> SweepOutcome:
    """One re-entrancy unit: crash recovery at (point, hit), recover again."""
    scenario = _build_scenario()
    with closing(scenario.cluster):
        _crash_first(scenario, seed, golden)
        injector = FaultInjector(seed=seed).arm(point, hit)
        with CheckedRun(spans=True) as run:
            if not _crashes(run, injector, scenario.sim, lambda: _recover(scenario)):
                return SweepOutcome(point, hit, False, False, "armed point never fired")
            # Recovery itself died: power-cycle again, recover from scratch.
            scenario.host.crash()
            scenario.host.restart()
            engine = _recover(scenario)
        run.check(allow_abandoned=True)
        return _verdict(point, hit, engine, scenario.redo, expected)


def sweep_recovery_points(
    seed: int = 7,
    max_hits_per_point: int = 2,
    limit: int | None = None,
    only: tuple[str, int] | None = None,
) -> SweepReport:
    """Crash PolarRecv at each of its own points, power-cycle, recover
    again — a half-finished recovery must itself be recoverable."""
    golden = _golden_run(seed)
    try:
        # Golden recovery: enumerate recovery's own crash points and pin
        # the expected state down once.
        scenario = _build_scenario()
        with closing(scenario.cluster):
            _crash_first(scenario, seed, golden)
            recovery_injector = FaultInjector(seed=seed)
            with recovery_injector:
                engine = _recover(scenario)
            expected = _expected_at(golden.snapshots, scenario.redo.durable_max_lsn)
            if _read_contents(engine) != expected:
                raise CrashSweepError("re-entrancy sweep: golden recovery inconsistent")
        return _sweep_coordinates(
            "recovery-reentrancy", "recovery", _recovery_unit, seed,
            list(recovery_injector.trace), (golden, expected),
            max_hits_per_point, limit, only,
        )
    finally:
        _retire("sweep.boundary", "sweep.crashed")


# ---------------------------------------------------------------------------
# Multi-primary sharing failover
# ---------------------------------------------------------------------------

_SHARED_KEYS = (5, 17, 33, 49)  # all on the first leaf
# A key on a leaf nobody touches during the warm-up, so its first-ever
# DBP load (``fusion.request.loaded``) happens inside the injected phase.
_FRESH_KEY = 190
_SHARED_ROWS = 200  # ~3 leaves of sysbench rows
_SHARING_ROUNDS = 3


def _sharing_ops() -> list[Op]:
    """Interleaved writer (node 0) updates and reader (node 1) selects on
    the shared table."""
    ops: list[Op] = []
    value = 100
    for round_no in range(_SHARING_ROUNDS):
        for key in _SHARED_KEYS:
            value += 1
            ops.append(("update", key, 0, value))
            ops.append(("select", key, 1, None))
        if round_no == 0:
            value += 1
            ops.append(("update", _FRESH_KEY, 0, value))
            ops.append(("select", _FRESH_KEY, 1, None))
    return ops


def _build_sharing(n_shards: int = 1) -> SharingSetup:
    workload = SysbenchWorkload(rows=_SHARED_ROWS, n_nodes=2)
    return build_sharing_setup("cxl", 2, workload, n_shards=n_shards)


def _sharing_prephase(setup: SharingSetup) -> CommittedState:
    """Uninjected warm-up: the reader touches every sweep key (registers
    the pages with the fusion server); the oracle checks the loaded
    values it reads."""
    oracle = CommittedState(SysbenchWorkload.loaded_row)
    for key in _SHARED_KEYS:
        if problem := setup.sim.run_process(run_op(setup, ("select", key, 1, None), oracle)):
            raise CrashSweepError(problem)
    return oracle


def _enumerate_sharing(seed: int) -> list[tuple[str, int]]:
    """The crash points the sharing ops reach, in a checked run."""
    setup = _build_sharing()
    with closing(setup.cluster):
        oracle = _sharing_prephase(setup)
        injector = FaultInjector(seed=seed)
        with CheckedRun(trace=True, spans=True, memsan=True) as run:
            run.watch(setup)
            with injector:
                for op in _sharing_ops():
                    if problem := setup.sim.run_process(run_op(setup, op, oracle)):
                        raise CrashSweepError(problem)
            if detail := _survivor_mismatch(setup, 1, oracle):
                raise CrashSweepError(f"sharing golden run inconsistent: {detail}")
        run.check()
    return list(injector.trace)


def _survivor_mismatch(setup: SharingSetup, via: int, oracle: CommittedState) -> str:
    """Empty if the survivor ``setup.nodes[via]`` reads exactly the
    committed state of every key the run read or wrote."""
    return oracle.read_back(
        lambda key: setup.sim.run_process(run_op(setup, ("select", key, via, None), oracle))
    )


def _write_probe(setup: SharingSetup, via: int, oracle: CommittedState, value: int) -> str:
    """Prove the survivor's write path still works: the dead node held
    the first leaf's lock at crash time, and if failover leaked it
    ``lock_write`` would never be granted (the simulator reports a
    deadlock). Empty if the survivor then reads its write back."""
    return setup.sim.run_process(
        run_op(setup, ("update", _SHARED_KEYS[0], via, value), oracle)
    ) or setup.sim.run_process(run_op(setup, ("select", _SHARED_KEYS[0], via, None), oracle))


def _failover_outcome(
    run: CheckedRun, point: str, hit: int, detail: str
) -> SweepOutcome:
    """The verdict of a crashed-and-failed-over coordinate: span
    violations raise; a MemSan report on an otherwise green coordinate
    becomes its failure."""
    try:
        run.check(allow_abandoned=True)
    except MemSanError:
        assert run.memsan is not None
        detail = detail or f"memsan: {run.memsan.reports[0]}"
    return SweepOutcome(point, hit, True, not detail, detail)


def _crash_sharing_node(
    run: CheckedRun, setup: SharingSetup, oracle: CommittedState, seed: int, point: str, hit: int
) -> int | None:
    """Run the canonical ops armed at (point, hit); returns the index of
    the node that died there (through the crash step), or None if the
    point never fired."""
    with FaultInjector(seed=seed).arm(point, hit):
        for op in _sharing_ops():
            try:
                problem = setup.sim.run_process(run_op(setup, op, oracle))
            except InjectedCrash:
                break
            if problem:
                raise CrashSweepError(problem)
        else:
            return None
    crash(run, setup, oracle, op)
    return op[2]


def _sharing_crash_and_failover(seed: int, point: str, hit: int) -> SweepOutcome:
    """One sharing-failover unit: crash a node, fail over, check survivor."""
    setup = _build_sharing()
    with closing(setup.cluster):
        oracle = _sharing_prephase(setup)
        with CheckedRun(spans=True, memsan=True) as run:
            run.watch(setup)
            dead_index = _crash_sharing_node(run, setup, oracle, seed, point, hit)
            if dead_index is None:
                return SweepOutcome(point, hit, False, False, "armed point never fired")
            dead = setup.nodes[dead_index]
            survivor = 1 - dead_index
            fail_over(
                setup, dead, AccessMeter(), actor="failover", inherits=dead.node_id
            )
            detail = _survivor_mismatch(setup, survivor, oracle)
            # The writer survived a reader crash: its write path must still work.
            if not detail and survivor == 0:
                detail = _write_probe(setup, survivor, oracle, 7777)
        return _failover_outcome(run, point, hit, detail)


def sweep_sharing_points(
    seed: int = 7,
    max_hits_per_point: int = 2,
    limit: int | None = None,
    only: tuple[str, int] | None = None,
) -> SweepReport:
    """Crash either sharing node anywhere in the protocol; fusion
    failover must leave the survivor seeing exactly the committed state
    and the distributed locks serviceable."""
    trace = materialize(
        ("sweep.sharing_golden", seed), {}, lambda: _enumerate_sharing(seed)
    )
    return _sweep_coordinates(
        "sharing-failover", "sharing", _sharing_crash_and_failover, seed,
        trace, (), max_hits_per_point, limit, only,
    )


# ---------------------------------------------------------------------------
# Failover-storm sweep: crash the failover coordinator itself
# ---------------------------------------------------------------------------

# Kill the writer mid-flush a few updates in: the update is durable, the
# page write lock is held, the release RPC was never sent — so failover
# has real work (rebuild + hardening + lock breaking + log retirement)
# at every one of its crash points.
_STORM_CRASH = ("sharing.flush.lines", 5)


def _storm_crash_and_refailover(
    seed: int, point: str, hit: int, n_shards: int
) -> SweepOutcome:
    """One storm unit: crash failover itself at (point, hit), retry it."""
    setup = _build_sharing(n_shards=n_shards)
    with closing(setup.cluster):
        oracle = _sharing_prephase(setup)
        dead = setup.nodes[0]
        with CheckedRun(spans=True, memsan=True) as run:
            run.watch(setup)
            if _crash_sharing_node(run, setup, oracle, seed, *_STORM_CRASH) is None:
                return SweepOutcome(point, hit, False, False, "writer crash never fired")
            # Attempt 1: armed at the storm coordinate — failover itself dies.
            storm_injector = FaultInjector(seed=seed).arm(point, hit)
            if not _crashes(
                run,
                storm_injector,
                setup.sim,
                lambda: fail_over(
                    setup, dead, AccessMeter(), actor="failover1", inherits=dead.node_id
                ),
            ):
                return SweepOutcome(
                    point, hit, False, False, "storm point never fired during failover"
                )
            if n_shards > 1:
                # Sharded coordinate: one shard's failover just died half-done
                # (the dead writer's locked page is the fresh key's leaf). The
                # shared keys' leaves belong to a *different* shard, whose
                # metadata, directory, and locks are untouched by the wedged
                # recovery — it must keep serving reads right now.
                mid_storm_read = ("select", _SHARED_KEYS[0], 1, None)
                if problem := setup.sim.run_process(run_op(setup, mid_storm_read, oracle)):
                    return SweepOutcome(
                        point, hit, True, False,
                        f"healthy shard failed to serve mid-storm read: {problem}",
                    )
            # Attempt 2: the half-done failover crashed; a clean re-run must
            # converge — force-apply rebuilds and idempotent retirement make
            # every coordinate (including torn hardening writes) retryable.
            fail_over(
                setup, dead, AccessMeter(), actor="failover2", inherits="failover1"
            )
            detail = _survivor_mismatch(setup, 1, oracle)
            detail = detail or _write_probe(setup, 1, oracle, 8888)
        return _failover_outcome(run, point, hit, detail)


def sweep_failover_storm_points(
    seed: int = 7,
    max_hits_per_point: int = 2,
    limit: int | None = None,
    only: tuple[str, int] | None = None,
    n_shards: int = 1,
) -> SweepReport:
    """Crash failover at every coordinate it reaches, then re-run it.

    Enumeration runs one clean failover (after the canonical writer
    crash) with a passive injector; every ``(point, hit)`` it records —
    fusion rebuild/release/done, the hardening ``pagestore.write_page``
    (torn), ``recovery.retire.page`` — becomes a coordinate where a
    fresh run arms the failover, watches it die, and requires the retry
    to converge on exactly the committed state.

    ``n_shards > 1`` runs every coordinate against a sharded fusion
    tier: the wedged attempt is confined to the owning shard, the other
    shard must serve a read mid-storm, and retirement runs shard by
    shard."""
    probe_setup = _build_sharing(n_shards=n_shards)
    with closing(probe_setup.cluster):
        probe_oracle = _sharing_prephase(probe_setup)
        dead = probe_setup.nodes[0]
        failover_injector = FaultInjector(seed=seed)
        with CheckedRun(spans=True, memsan=True) as run:
            run.watch(probe_setup)
            if _crash_sharing_node(run, probe_setup, probe_oracle, seed, *_STORM_CRASH) is None:
                raise CrashSweepError("storm sweep: the writer crash never fired")
            with failover_injector:
                fail_over(
                    probe_setup, dead, AccessMeter(), actor="failover", inherits=dead.node_id
                )
        run.check(allow_abandoned=True)
    trace = list(failover_injector.trace)
    if not trace:
        raise CrashSweepError("storm sweep enumerated no failover points")
    return _sweep_coordinates(
        "failover-storm", "storm", _storm_crash_and_refailover, seed, trace,
        (n_shards,), max_hits_per_point, limit, only,
    )


#: The sweeps by scenario name: the ``--scenario`` vocabulary of
#: ``python -m repro.parallel sweep`` and of the docs check.
SCENARIOS: dict[str, Callable[..., SweepReport]] = {
    "workload": sweep_workload_points,
    "recovery": sweep_recovery_points,
    "sharing": sweep_sharing_points,
    "storm": sweep_failover_storm_points,
}
