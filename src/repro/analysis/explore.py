"""CXL-Explore: exhaustive schedule exploration of the sharing protocol.

The third leg of the sanitizer stack. MemSan (:mod:`.memsan`) checks
the schedules a run happens to take; the protocol lint checks static
shape; *Explore* checks **all** schedules of a small configuration, by
driving the simulation kernel through a controllable scheduler
(:class:`repro.sim.core.SchedulerHook`) and enumerating every same-tick
firing order with a stateless DFS.

Model
-----
A *decision point* is a simulator tick whose ready list holds more than
one runnable continuation — which is exactly where RPC admission order,
lock grant order, and plain event-bucket ties live (equal ``lock_rpc_ns``
timeouts from different nodes collide on a tick; ``RWLock`` grants
succeed at the current tick). A *schedule* is the sequence of choices
taken at those points. Replaying a choice sequence against a freshly
built world reproduces the run bit-for-bit, which is what makes the
one-line repro tokens work.

Pruning
-------
Exploring every choice order is factorial; most orders are equivalent.
Two steps *commute* when their happens-before footprints are disjoint —
the same access/sync vocabulary MemSan's vector clocks order:
cache-line reads and writes, flag stores and reads, lock and RPC
acquire/release (recorded by :class:`RecordingMemSan`, a MemSan
subclass that taps the identical hook surface). Schedules that differ
only in the order of commuting steps form one Mazurkiewicz trace, and
the explorer visits each trace once using *sleep sets*: after exploring
choice ``t`` at a state, ``t`` is put to sleep for the sibling
branches, and stays asleep until some step conflicts with it. A run
whose only runnable continuations are all asleep is redundant and is
abandoned (counted as pruned). ``tests/analysis/test_explore.py``
pins the closed form: a k-writer toy program explores exactly
``prod(g!) ** m`` schedules for dependency groups ``g`` over ``m``
rounds, against ``k! ** m``-and-change naive interleavings.

Soundness caveat: footprints are recorded from the *executed* schedule,
so "unordered in MemSan's vector clocks" is an observation, not a
proof, of commutativity. Steps with no shared-memory footprint at all
are additionally serialized per node (two streams on one primary share
engine state invisible to MemSan), which keeps the reduction
conservative for everything the protocol configs exercise.

Run ``python -m repro.analysis explore --list`` for configs, and see
DESIGN.md §14 for the decision-point model and the replay token format.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from math import factorial
from typing import Any, Callable, Generator, Optional

from ..sim.core import Event, Process, SchedulerHook, Simulator
from .checked import CommittedState, Op, run_op
from .memsan import MemSan, MemSanError, line_range

__all__ = [
    "CONFIGS",
    "TOYS",
    "MUTATIONS",
    "Decision",
    "ExploreError",
    "ExploreReport",
    "ExplorerStrategy",
    "Footprint",
    "ProtocolConfig",
    "RecordingMemSan",
    "ToyConfig",
    "build_parser",
    "decode_token",
    "encode_token",
    "explore_config",
    "explore_mutations",
    "main",
    "replay_token",
    "toy_min_traces",
    "toy_naive_interleavings",
]

Location = tuple  # ("cxl", region, line) | ("flag", region, addr) | ...


class ExploreError(RuntimeError):
    """Explorer misuse or a broken determinism contract."""


class _SleepBlocked(Exception):
    """Every runnable continuation is asleep: the run is redundant."""


# ---------------------------------------------------------------------------
# Footprints and commutativity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Footprint:
    """What one scheduler step touched, in MemSan's vocabulary.

    ``reads``/``writes`` hold shared locations (cache lines, flags,
    DBP pages); ``sync`` holds mutual-exclusion keys (locks, RPC
    serialization, per-node engine state). Two steps conflict — i.e.
    their order is observable, MemSan's vector clocks would order them —
    iff a write meets an access to the same location or they share a
    sync key.
    """

    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    sync: frozenset = frozenset()

    def is_empty(self) -> bool:
        return not (self.reads or self.writes or self.sync)

    def conflicts(self, other: "Footprint") -> bool:
        if self.writes & (other.writes | other.reads):
            return True
        if other.writes & self.reads:
            return True
        return bool(self.sync & other.sync)


# ---------------------------------------------------------------------------
# The exploring strategy (one run = one schedule)
# ---------------------------------------------------------------------------


@dataclass
class Decision:
    """One decision point of a run: who was enabled, who was picked."""

    enabled: list[int]  # stable event ids, in ready-list order
    choice: int  # index into ``enabled``
    sleep: frozenset  # event ids asleep on entry


# Steps one schedule may take before it is reported as a runaway.
_MAX_STEPS = 500_000


class ExplorerStrategy(SchedulerHook):
    """Drives one schedule: prescribed choices, then sleep-guided.

    ``prefix[d]`` fixes the choice at decision point ``d``;
    ``sleep_adds[d]`` are the already-explored sibling choices at that
    point (with their footprints), which go to sleep before the choice
    is made. Beyond the prefix the strategy picks the first enabled
    continuation that is not asleep; if none exists — including the
    forced single-continuation case — the run aborts as redundant.

    Event identity is the *arrival order* into ready lists, which is
    deterministic given an identical choice prefix; that is what makes
    sleep-set members and replay tokens stable across runs.
    """

    def __init__(
        self,
        prefix: Optional[list[int]] = None,
        sleep_adds: Optional[list[dict[int, Footprint]]] = None,
    ) -> None:
        self.prefix: list[int] = list(prefix or [])
        self.sleep_adds: list[dict[int, Footprint]] = [
            dict(adds) for adds in (sleep_adds or [])
        ]
        while len(self.sleep_adds) < len(self.prefix):
            self.sleep_adds.append({})
        self.decisions: list[Decision] = []
        self.executed: list[tuple[int, Optional[str]]] = []
        self.footprints: dict[int, Footprint] = {}
        self.sleep: dict[int, Footprint] = {}
        self.steps = 0
        self.outcome: Optional[tuple] = None  # set by protocol runs
        self._ids: dict[int, int] = {}
        self._next_id = 0
        self._cur: Optional[int] = None
        self._cur_reads: set = set()
        self._cur_writes: set = set()
        self._cur_sync: set = set()

    # -- probe API (RecordingMemSan and toy programs feed the current step) --

    def note_read(self, loc: Location) -> None:
        if self._cur is not None:
            self._cur_reads.add(loc)

    def note_write(self, loc: Location) -> None:
        if self._cur is not None:
            self._cur_writes.add(loc)

    def note_sync(self, key: Location) -> None:
        if self._cur is not None:
            self._cur_sync.add(key)

    # -- SchedulerHook ------------------------------------------------------

    def admit(self, sim: Simulator, events: list[Event]) -> None:
        for event in events:
            self._ids[id(event)] = self._next_id
            self._next_id += 1

    def choose(self, sim: Simulator, ready: list[Event]) -> int:
        self._flush_step()
        ids = [self._ids[id(event)] for event in ready]
        depth = len(self.decisions)
        if depth < len(self.prefix):
            for eid, footprint in self.sleep_adds[depth].items():
                self.sleep[eid] = footprint
            choice = self.prefix[depth]
            if not 0 <= choice < len(ready):
                raise ExploreError(
                    f"replay mismatch: decision {depth} has {len(ready)} "
                    f"enabled continuations, token chose {choice} — the "
                    "model is schedule-nondeterministic (see lint REPRO006)"
                )
        else:
            choice = -1
            for index, eid in enumerate(ids):
                if eid not in self.sleep:
                    choice = index
                    break
            if choice < 0:
                raise _SleepBlocked()
        self.decisions.append(Decision(ids, choice, frozenset(self.sleep)))
        return choice

    def step(self, sim: Simulator, event: Event) -> None:
        self._flush_step()
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise ExploreError(f"run exceeded {_MAX_STEPS} steps")
        eid = self._ids.get(id(event))
        if eid is None:  # pragma: no cover - admit() precedes every step
            self._ids[id(event)] = eid = self._next_id
            self._next_id += 1
        if eid in self.sleep:
            # The sole runnable continuation was already explored from
            # an equivalent state: everything past here is redundant.
            raise _SleepBlocked()
        self._cur = eid
        # Same-node serialization: steps that resume a process share that
        # process's node-level state (engine, buffer pool) even when they
        # touch no shared memory, so they may never be treated as
        # commuting. Stream processes are named "<node>/<stream>".
        owner_name: Optional[str] = None
        for callback in event.callbacks:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Process) and owner.name:
                owner_name = owner.name
                self._cur_sync.add(("proc", owner.name.split("/", 1)[0]))
        self.executed.append((eid, owner_name))

    def finalize(self) -> None:
        """Record the footprint of the last executed step."""
        self._flush_step()

    def _flush_step(self) -> None:
        if self._cur is None:
            return
        footprint = Footprint(
            frozenset(self._cur_reads),
            frozenset(self._cur_writes),
            frozenset(self._cur_sync),
        )
        self.footprints[self._cur] = footprint
        if not footprint.is_empty():
            self.sleep = {
                eid: slept
                for eid, slept in self.sleep.items()
                if not slept.conflicts(footprint)
            }
        self._cur = None
        self._cur_reads = set()
        self._cur_writes = set()
        self._cur_sync = set()

    def choices(self) -> list[int]:
        return [decision.choice for decision in self.decisions]


# ---------------------------------------------------------------------------
# RecordingMemSan: footprints from the sanitizer's own hook surface
# ---------------------------------------------------------------------------


class RecordingMemSan(MemSan):
    """MemSan that additionally feeds step footprints to a strategy.

    Every hook forwards to the base class (races are still checked on
    every explored schedule) and records the access into the strategy's
    current step. The conflict relation this induces is deliberately
    conservative — e.g. a cache *hit* still counts as a read of the
    line — so sleep-set pruning never drops a schedule whose order the
    protocol could observe.
    """

    def __init__(self, strategy: ExplorerStrategy) -> None:
        super().__init__()
        self._strategy = strategy

    # raw accesses (loader-side; rare during exploration)
    def raw_load(self, region: str, offset: int, nbytes: int) -> None:
        if region in self._watched:
            for line in line_range(offset, nbytes):
                self._strategy.note_read(("cxl", region, line))
        super().raw_load(region, offset, nbytes)

    def raw_store(self, region: str, offset: int, nbytes: int) -> None:
        if region in self._watched:
            for line in line_range(offset, nbytes):
                self._strategy.note_write(("cxl", region, line))
        super().raw_store(region, offset, nbytes)

    # CPU-cached access to the shared CXL region
    def cache_load(self, cache: str, region: str, line: int, fetched: bool) -> None:
        self._strategy.note_read(("cxl", region, line))
        super().cache_load(cache, region, line, fetched)

    def cache_store(self, cache: str, region: str, line: int) -> None:
        self._strategy.note_write(("cxl", region, line))
        super().cache_store(cache, region, line)

    def cache_flush_line(self, cache: str, region: str, line: int, dirty: bool) -> None:
        self._strategy.note_write(("cxl", region, line))
        super().cache_flush_line(cache, region, line, dirty)

    def cache_invalidate_line(self, cache: str, region: str, line: int) -> None:
        self._strategy.note_sync(("cache", cache))
        super().cache_invalidate_line(cache, region, line)

    def cache_dropped(self, cache: str) -> None:
        self._strategy.note_sync(("cache", cache))
        super().cache_dropped(cache)

    def assert_flushed(self, cache: str, region: str, offset: int, nbytes: int) -> None:
        for line in line_range(offset, nbytes):
            self._strategy.note_read(("cxl", region, line))
        super().assert_flushed(cache, region, offset, nbytes)

    # coherency flags
    def flag_store(self, region: str, addr: int, value: bool) -> None:
        self._strategy.note_write(("flag", region, addr))
        super().flag_store(region, addr, value)

    def flag_read(self, region: str, addr: int, value: bool) -> None:
        self._strategy.note_read(("flag", region, addr))
        super().flag_read(region, addr, value)

    def invalid_cleared(self, cache: str, region: str, offset: int, nbytes: int) -> None:
        self._strategy.note_sync(("cache", cache))
        super().invalid_cleared(cache, region, offset, nbytes)

    # locks and RPC serialization
    def lock_requested(self, lock_id: object) -> None:
        self._strategy.note_sync(("lock", str(lock_id)))
        super().lock_requested(lock_id)

    def lock_acquired(self, actor: str, lock_id: object) -> None:
        self._strategy.note_sync(("lock", str(lock_id)))
        super().lock_acquired(actor, lock_id)

    def lock_released(self, actor: str, lock_id: object) -> None:
        self._strategy.note_sync(("lock", str(lock_id)))
        super().lock_released(actor, lock_id)

    def lock_force_released(self, lock_id: object) -> None:
        self._strategy.note_sync(("lock", str(lock_id)))
        super().lock_force_released(lock_id)

    def rpc_acquire(self, service: str) -> None:
        self._strategy.note_sync(("rpc", service))
        super().rpc_acquire(service)

    def rpc_release(self, service: str) -> None:
        self._strategy.note_sync(("rpc", service))
        super().rpc_release(service)

    def actor_crashed(self, actor: str, inheritor: Optional[str] = None) -> None:
        self._strategy.note_sync(("crash",))
        super().actor_crashed(actor, inheritor)

    # RDMA page-granular sharing
    def page_fetch(self, node: str, page_id: int) -> None:
        self._strategy.note_read(("page", page_id))
        super().page_fetch(node, page_id)

    def page_cached_read(self, node: str, page_id: int) -> None:
        self._strategy.note_read(("page", page_id))
        super().page_cached_read(node, page_id)

    def page_publish(self, node: str, page_id: int) -> None:
        self._strategy.note_write(("page", page_id))
        super().page_publish(node, page_id)

    def page_dropped(self, node: str, page_id: int) -> None:
        self._strategy.note_sync(("pagecache", node))
        super().page_dropped(node, page_id)


# ---------------------------------------------------------------------------
# Explorable programs: toys (closed-form counts) and protocol configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyConfig:
    """k lockstep writers: ``groups`` are same-location dependency
    groups (sizes), ``steps`` rounds of access-then-wait each."""

    name: str
    groups: tuple[int, ...]
    steps: int

    @property
    def writers(self) -> int:
        return sum(self.groups)


def toy_min_traces(config: ToyConfig) -> int:
    """Trace-theoretic minimal schedule count for a toy program.

    Each round is a per-tick barrier (all writers access, then all
    wait), so rounds multiply. Within a round only same-group accesses
    conflict, so the distinct orders are the per-group permutations:
    ``prod(g!) ** steps``. All-independent writers give exactly 1.
    """
    product = 1
    for group in config.groups:
        product *= factorial(group)
    return product**config.steps


def toy_naive_interleavings(config: ToyConfig) -> int:
    """Unpruned interleaving count for the same toy program.

    ``k!`` orders per access round, times the completion round: the
    final tick interleaves k timeout firings with k process-completion
    events, each completion after its own timeout — the linear
    extensions of k two-chains, ``(2k)! / 2**k``.
    """
    k = config.writers
    return factorial(k) ** config.steps * (factorial(2 * k) // (2**k))


def _run_toy(config: ToyConfig, strategy: ExplorerStrategy) -> list[str]:
    sim = Simulator()

    def writer(location: int) -> Generator[Event, Any, None]:
        for _ in range(config.steps):
            strategy.note_write(("toy", location))
            yield sim.timeout(10)

    procs = []
    writer_index = 0
    for location, group in enumerate(config.groups):
        for _ in range(group):
            procs.append(
                sim.process(writer(location), name=f"toy{writer_index}/w")
            )
            writer_index += 1
    sim.scheduler = strategy
    try:
        sim.run()
    finally:
        sim.scheduler = None
    if not all(proc.triggered for proc in procs):
        return ["toy writers did not all complete (deadlock)"]
    return []


@dataclass(frozen=True)
class ProtocolConfig:
    """A small sharing-protocol world to explore exhaustively.

    ``streams`` run as concurrent simulator processes, each a tuple of
    ops (:data:`~.checked.Op`) against the shared table whose ``via``
    all name the node the stream runs on. ``mutation`` arms one of the
    protocol mutations (:data:`MUTATIONS`); ``crash_point`` arms the fault injector at
    one named crash point (the crashed node is failed over before the
    final convergence check).
    """

    name: str
    system: str
    n_nodes: int
    streams: tuple[tuple[Op, ...], ...]
    rows: int = 12
    mutation: Optional[str] = None
    crash_point: Optional[str] = None
    crash_hit: int = 1


MUTATIONS = ("skip_flush", "skip_invalidate", "clear_before_invalidate")


def _stream(
    setup: Any,
    ops: tuple[Op, ...],
    oracle: CommittedState,
    violations: list[str],
    crashes: list,
) -> Generator[Event, Any, None]:
    from ..faults.injector import InjectedCrash

    for op in ops:
        try:
            problem = yield from run_op(setup, op, oracle)
        except InjectedCrash:
            crashes.append(op)
            return
        if problem:
            violations.append(f"oracle: {problem}")


def _config_keys(config: ProtocolConfig) -> list[int]:
    keys: set[int] = set()
    for ops in config.streams:
        for kind, key, _, value in ops:
            keys.update(range(key, key + value) if kind == "range" else (key,))
    return sorted(keys)


def _apply_mutation(setup: Any, mutation: str) -> None:
    if mutation == "skip_flush":
        setup.nodes[0].engine.buffer_pool._mutate_skip_flush = True
    elif mutation == "skip_invalidate":
        setup.fusion._mutate_skip_invalidate = True
    elif mutation == "clear_before_invalidate":
        setup.nodes[1].engine.buffer_pool._mutate_clear_before_invalidate = True
    else:
        raise ExploreError(f"unknown protocol mutation {mutation!r}")


def _run_protocol(config: ProtocolConfig, strategy: ExplorerStrategy) -> list[str]:
    """Build a fresh world, run one schedule under ``strategy``, check.

    Returns the violation list (empty = clean). Raises
    :class:`_SleepBlocked` out of the kernel when the schedule is
    redundant.
    """
    from contextlib import nullcontext

    from ..faults.injector import FaultInjector
    from ..hardware.memory import AccessMeter
    from ..obs import InvariantViolationError
    from ..obs.world import build_sharing_setup
    from ..workloads.sysbench import SysbenchWorkload
    from .checked import CheckedRun, crash, fail_over

    workload = SysbenchWorkload(rows=config.rows, n_nodes=config.n_nodes)
    setup = build_sharing_setup(config.system, config.n_nodes, workload)
    if config.mutation is not None:
        _apply_mutation(setup, config.mutation)
    keys = _config_keys(config)
    oracle = CommittedState(SysbenchWorkload.loaded_row)
    violations: list[str] = []

    def check_read(via: int, key: int, check: str) -> None:
        if problem := setup.sim.run_process(run_op(setup, ("select", key, via, None), oracle)):
            violations.append(f"{check}: {problem}")

    # Node 0 reads every key before the controllable scheduler is
    # installed: part of the deterministic initial state every replay rebuilds.
    for key in keys:
        check_read(0, key, "oracle")
    crashes: list = []
    injector = (
        FaultInjector().arm(config.crash_point, config.crash_hit)
        if config.crash_point is not None
        else None
    )
    ms = RecordingMemSan(strategy)
    with CheckedRun(trace=True, memsan=ms) as run:
        run.watch(setup)
        procs = []
        for stream_index, ops in enumerate(config.streams):
            node = setup.nodes[ops[0][2]]
            procs.append(
                setup.sim.process(
                    _stream(setup, ops, oracle, violations, crashes),
                    name=f"{node.node_id}/s{stream_index}",
                )
            )
        setup.sim.scheduler = strategy
        try:
            with injector or nullcontext():
                setup.sim.run()
        finally:
            setup.sim.scheduler = None
        strategy.finalize()
        if config.crash_point is not None and not crashes:
            violations.append(
                f"crash point {config.crash_point!r} never fired"
            )
        for op in crashes:
            crash(run, setup, oracle, op)
            dead = setup.nodes[op[2]]
            fail_over(
                setup, dead, AccessMeter(), actor="failover", inherits=dead.node_id
            )
        if crashes:
            # Failover force-released the dead node's locks; let blocked
            # survivor streams drain (deterministic tail, default order).
            setup.sim.run()
        for proc in procs:
            if not proc.triggered:
                violations.append(f"stream {proc.name} never completed (deadlock)")
        # Convergence: every surviving node reads the last committed value
        # of every key — so they agree (a crashed write is resolved by now).
        survivors = [i for i, node in enumerate(setup.nodes) if not node.engine.crashed]
        for key in keys:
            for via in survivors:
                check_read(via, key, "convergence")
        for report in ms.reports:
            violations.append(f"memsan: {report}")
        try:
            run.check()
        except InvariantViolationError as exc:
            violations.append(f"invariant: {exc}")
        except MemSanError:
            pass  # every report is already listed above
    # The schedule's observable outcome (committed history, what every
    # node saw, the verdicts) — what trace-equivalent schedules share.
    strategy.outcome = (
        tuple(sorted((k, tuple(v)) for k, v in oracle.history.items())),
        tuple(sorted(oracle.seen.items())),
        tuple(violations),
    )
    return violations


# -- the named configurations ------------------------------------------------

_W = 1 << 16  # written values start far above any loaded column value

TOYS: dict[str, ToyConfig] = {
    "toy-indep": ToyConfig("toy-indep", groups=(1, 1, 1), steps=2),
    "toy-dep": ToyConfig("toy-dep", groups=(3,), steps=2),
    "toy-mixed": ToyConfig("toy-mixed", groups=(2, 1), steps=2),
}

CONFIGS: dict[str, ProtocolConfig] = {
    # The flagship exhaustive configs: 2 primaries, 1 shared hot page.
    "cxl-2p1pg": ProtocolConfig(
        name="cxl-2p1pg",
        system="cxl",
        n_nodes=2,
        streams=(
            (("update", 5, 0, _W + 1), ("select", 5, 0, None)),
            (("select", 5, 1, None), ("select", 5, 1, None)),
            (("update", 5, 1, _W + 2),),
        ),
    ),
    "rdma-2p1pg": ProtocolConfig(
        name="rdma-2p1pg",
        system="rdma",
        n_nodes=2,
        streams=(
            (("update", 5, 0, _W + 1), ("select", 5, 0, None)),
            (("select", 5, 1, None), ("select", 5, 1, None)),
            (("update", 5, 1, _W + 2),),
        ),
    ),
    # 3 primaries, two hot keys, a range crossing them, 4 streams.
    "cxl-3p2k": ProtocolConfig(
        name="cxl-3p2k",
        system="cxl",
        n_nodes=3,
        streams=(
            (("update", 3, 0, _W + 1),),
            (("select", 3, 1, None), ("update", 7, 1, _W + 2)),
            (("range", 3, 2, 5),),
            (("select", 7, 2, None),),
        ),
    ),
    # One armed crash point: the writer dies right after logging its
    # update; failover must leave the survivor convergent.
    "cxl-2p-crash": ProtocolConfig(
        name="cxl-2p-crash",
        system="cxl",
        n_nodes=2,
        streams=(
            (("update", 5, 0, _W + 1),),
            (("select", 5, 1, None), ("select", 5, 1, None)),
        ),
        crash_point="node.update.logged",
        crash_hit=1,
    ),
}


def resolve_config(name: str) -> tuple[str, Optional[str]]:
    """Split ``name[+mutation]`` and validate both parts. A mutation
    needs a config whose world has the switches: a CXL one."""
    base, _, mutation = name.partition("+")
    if base not in CONFIGS and base not in TOYS:
        known = ", ".join(sorted(CONFIGS) + sorted(TOYS))
        raise ExploreError(f"unknown explore config {name!r} (known: {known})")
    if mutation and mutation not in MUTATIONS:
        raise ExploreError(
            f"unknown protocol mutation {mutation!r} "
            f"(known: {', '.join(MUTATIONS)})"
        )
    if mutation:
        _require_switches(base)
    return base, (mutation or None)


def _require_switches(name: str) -> None:
    """Mutations run only on a plain CXL config: its world has the switches."""
    if name not in CONFIGS or CONFIGS[name].system != "cxl":
        mutable = ", ".join(sorted(n for n, c in CONFIGS.items() if c.system == "cxl"))
        raise ExploreError(
            f"config {name!r} has no protocol mutation switches "
            f"(mutations run on: {mutable})"
        )


def _runner(name: str) -> Callable[[ExplorerStrategy], list[str]]:
    base, mutation = resolve_config(name)
    if base in TOYS:
        toy = TOYS[base]
        return lambda strategy: _run_toy(toy, strategy)
    config = CONFIGS[base]
    if mutation:
        config = replace(config, name=name, mutation=mutation)
    return lambda strategy: _run_protocol(config, strategy)


# ---------------------------------------------------------------------------
# Replay tokens
# ---------------------------------------------------------------------------


def encode_token(config: str, choices: list[int]) -> str:
    """One-line replayable schedule: ``config:3=1,17=2`` (zeros omitted)."""
    nonzero = [f"{i}={c}" for i, c in enumerate(choices) if c]
    return f"{config}:{','.join(nonzero) or '-'}"


def decode_token(token: str) -> tuple[str, list[int]]:
    config, sep, body = token.partition(":")
    if not sep:
        raise ExploreError(f"malformed replay token {token!r}")
    resolve_config(config)  # validates
    choices: dict[int, int] = {}
    if body not in ("", "-"):
        for part in body.split(","):
            index_text, _, choice_text = part.partition("=")
            try:
                choices[int(index_text)] = int(choice_text)
            except ValueError:
                raise ExploreError(f"malformed replay token {token!r}") from None
    length = max(choices) + 1 if choices else 0
    return config, [choices.get(i, 0) for i in range(length)]


def replay_token(token: str) -> dict:
    """Re-run the exact schedule a token names; return its verdict."""
    config, prefix = decode_token(token)
    run_one = _runner(config)
    strategy = ExplorerStrategy(prefix=prefix)
    try:
        violations = run_one(strategy)
    except _SleepBlocked:  # pragma: no cover - tokens name complete runs
        raise ExploreError(f"token {token!r} replays to a pruned schedule")
    strategy.finalize()
    return {
        "config": config,
        "token": token,
        "decisions": len(strategy.decisions),
        "verdict": "violation" if violations else "clean",
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# The DFS explorer
# ---------------------------------------------------------------------------


@dataclass
class ExploreReport:
    """Outcome of exploring one config (serializes byte-stably)."""

    config: str
    schedules: int = 0  # completed (≈ distinct Mazurkiewicz traces)
    pruned: int = 0  # sleep-blocked redundant runs
    runs: int = 0
    decision_points: int = 0  # of the first (default-order) schedule
    max_depth: int = 0
    naive_estimate: int = 1
    min_traces: Optional[int] = None
    exhausted: bool = False
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def pruning_ratio(self) -> float:
        if self.naive_estimate <= 0:
            return 1.0
        return self.schedules / self.naive_estimate

    def to_payload(self) -> dict:
        return {
            "config": self.config,
            "schedules": self.schedules,
            "pruned": self.pruned,
            "runs": self.runs,
            "decision_points": self.decision_points,
            "max_depth": self.max_depth,
            "naive_estimate": self.naive_estimate,
            "min_traces": self.min_traces,
            "pruning_ratio": round(self.pruning_ratio, 6),
            "exhausted": self.exhausted,
            "ok": self.ok,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=1) + "\n"


@dataclass
class _Frame:
    """One decision point on the DFS path."""

    enabled: list[int]
    sleep_entry: frozenset
    choice: int
    done: dict[int, Footprint] = field(default_factory=dict)
    adds: dict[int, Footprint] = field(default_factory=dict)


def explore_config(
    name: str,
    max_schedules: int = 20_000,
    stop_on_violation: bool = True,
    sleep: bool = True,
    on_schedule: Optional[Callable[[ExplorerStrategy], None]] = None,
) -> ExploreReport:
    """Exhaustively explore one named config with sleep-set pruning.

    ``max_schedules`` bounds completed schedules (the bounded budget of
    the mutation-detection contract); hitting it sets ``exhausted``.
    ``sleep=False`` disables the reduction (full naive enumeration —
    the soundness-differential baseline); ``on_schedule`` observes every
    completed schedule's strategy.
    """
    run_one = _runner(name)
    report = ExploreReport(config=name)
    base, _ = resolve_config(name)
    if base in TOYS:
        report.naive_estimate = toy_naive_interleavings(TOYS[base])
        report.min_traces = toy_min_traces(TOYS[base])

    def run_with(
        prefix: list[int], adds: list[dict[int, Footprint]]
    ) -> tuple[str, ExplorerStrategy, list[str]]:
        strategy = ExplorerStrategy(prefix=prefix, sleep_adds=adds)
        try:
            violations = run_one(strategy)
            status = "complete"
        except _SleepBlocked:
            violations = []
            status = "pruned"
        strategy.finalize()
        return status, strategy, violations

    def record(status: str, strategy: ExplorerStrategy, violations: list[str]) -> bool:
        """Update counters; returns True when exploration must stop."""
        report.runs += 1
        report.max_depth = max(report.max_depth, len(strategy.decisions))
        if status == "pruned":
            report.pruned += 1
            return False
        report.schedules += 1
        if on_schedule is not None:
            on_schedule(strategy)
        if violations:
            report.violations.append(
                {
                    "token": encode_token(name, strategy.choices()),
                    "messages": violations,
                }
            )
            if stop_on_violation:
                return True
        if report.schedules >= max_schedules:
            report.exhausted = True
            return True
        return False

    status, strategy, violations = run_with([], [])
    report.decision_points = len(strategy.decisions)
    if base not in TOYS:
        naive = 1
        for decision in strategy.decisions:
            naive *= len(decision.enabled)
        report.naive_estimate = naive
    frames: list[_Frame] = []

    def absorb(strategy: ExplorerStrategy, keep: int) -> None:
        """Replace frames from index ``keep`` on with the fresh run's
        decisions and mark every chosen continuation explored on its
        frame (frames below ``keep`` retain their done sets)."""
        del frames[keep:]
        for decision in strategy.decisions[keep:]:
            frames.append(
                _Frame(
                    enabled=decision.enabled,
                    sleep_entry=decision.sleep,
                    choice=decision.choice,
                )
            )
        for frame, decision in zip(frames, strategy.decisions):
            eid = decision.enabled[decision.choice]
            if eid not in frame.done:
                frame.done[eid] = strategy.footprints.get(eid, Footprint())

    if record(status, strategy, violations):
        return report
    absorb(strategy, 0)

    while True:
        # Deepest frame with an untried, non-sleeping alternative.
        alt = -1
        while frames:
            frame = frames[-1]
            for index, eid in enumerate(frame.enabled):
                if eid not in frame.sleep_entry and eid not in frame.done:
                    alt = index
                    break
            if alt >= 0:
                break
            frames.pop()
        if alt < 0:
            break
        depth = len(frames) - 1
        frame = frames[-1]
        frame.adds = dict(frame.done) if sleep else {}
        frame.choice = alt
        prefix = [f.choice for f in frames]
        adds = [f.adds for f in frames]
        status, strategy, violations = run_with(prefix, adds)
        if len(strategy.decisions) <= depth or (
            strategy.decisions[depth].enabled != frame.enabled
        ):
            raise ExploreError(
                f"{name}: decision {depth} changed between runs with an "
                "identical prefix — the model is schedule-nondeterministic"
            )
        if record(status, strategy, violations):
            return report
        absorb(strategy, depth + 1)
    return report


# ---------------------------------------------------------------------------
# Mutation-detection validation (the checker checking itself)
# ---------------------------------------------------------------------------


def explore_mutations(
    config_name: str = "cxl-2p1pg", max_schedules: int = 200
) -> dict[str, str]:
    """Prove each PR 5 protocol mutation is *found* by exploration.

    For every mutation switch, explores the mutated config within the
    bounded schedule budget and requires a violating schedule whose
    token replays to the same verdict. Returns ``mutation -> token``.
    Raises :class:`ExploreError` if any mutation escapes detection.
    """
    tokens: dict[str, str] = {}
    for mutation in MUTATIONS:
        name = f"{config_name}+{mutation}"
        report = explore_config(
            name, max_schedules=max_schedules, stop_on_violation=True
        )
        if not report.violations:
            raise ExploreError(
                f"mutation {mutation!r} escaped exploration: "
                f"{report.schedules} schedules clean within budget "
                f"{max_schedules}"
            )
        token = report.violations[0]["token"]
        verdict = replay_token(token)
        if verdict["verdict"] != "violation":
            raise ExploreError(
                f"mutation {mutation!r}: token {token!r} did not reproduce "
                "the violation on replay"
            )
        tokens[mutation] = token
    return tokens


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _checked(check: Callable[[str], object]) -> Callable[[str], str]:
    """An argparse ``type`` that validates with ``check`` and keeps the text."""

    def parse(text: str) -> str:
        try:
            check(text)
        except ExploreError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis explore",
        description="Exhaustive schedule exploration of the sharing protocol.",
    )
    parser.add_argument(
        "--config",
        type=_checked(lambda name: name == "all" or resolve_config(name)),
        default="cxl-2p1pg",
        help="config[+mutation], or 'all' (default: cxl-2p1pg)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="schedules per config (default: 20000, or 400 with --quick)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the report here")
    parser.add_argument(
        "--replay",
        type=_checked(decode_token),
        metavar="TOKEN",
        help="re-run the one schedule a token names",
    )
    parser.add_argument(
        "--mutations",
        action="store_true",
        help="require every protocol mutation to be found",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized budgets")
    parser.add_argument("--list", action="store_true", help="list the configs")
    return parser


def _print_report(report: ExploreReport) -> None:
    ratio = report.pruning_ratio
    status = "CLEAN" if report.ok else "VIOLATION"
    extra = " (budget exhausted)" if report.exhausted else ""
    print(
        f"explore {report.config}: {status} — {report.schedules} schedules "
        f"({report.pruned} pruned, {report.runs} runs, depth "
        f"{report.max_depth}), naive ~{report.naive_estimate}, "
        f"ratio {ratio:.4f}{extra}"
    )
    for violation in report.violations:
        for message in violation["messages"]:
            print(f"  {message}")
        if violation["token"]:
            print(
                "  replay: python -m repro.analysis explore "
                f"--replay '{violation['token']}'"
            )


def main(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Carry out a parsed ``explore`` command line; return the exit code."""
    if args.list:
        for toy_name in sorted(TOYS):
            print(f"{toy_name} (toy)")
        for config_name in sorted(CONFIGS):
            print(config_name)
        return 0
    config, json_path, quick = args.config, args.json, args.quick
    if args.replay is not None:
        verdict = replay_token(args.replay)
        print(
            f"replay {verdict['config']}: {verdict['verdict'].upper()} "
            f"({verdict['decisions']} decision points)"
        )
        for message in verdict["violations"]:
            print(f"  {message}")
        if json_path:
            with open(json_path, "w", encoding="utf-8") as handle:
                json.dump(verdict, handle, sort_keys=True, indent=1)
                handle.write("\n")
        return 0 if verdict["verdict"] == "clean" else 1

    if args.mutations:
        # --config alone parses (it may be 'all' or carry a mutation);
        # only with --mutations is it a usage error, reported as one.
        try:
            _require_switches(config)
        except ExploreError as exc:
            parser = build_parser()
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: error: argument --config: {exc}", file=sys.stderr)
            return 2
        mutation_budget = 60 if quick else 200
        tokens = explore_mutations(config, max_schedules=mutation_budget)
        for mutation, token in tokens.items():
            print(f"mutation {mutation}: detected — replay token {token}")
        print(
            f"explore --mutations {config}: {len(tokens)}/{len(MUTATIONS)} "
            f"mutations detected within {mutation_budget} schedules"
        )
        return 0

    budget = args.budget
    if budget is None:
        budget = 400 if quick else 20_000
    names = sorted(CONFIGS) if config == "all" else [config]
    payloads = []
    exit_code = 0
    for name in names:
        report = explore_config(name, max_schedules=budget)
        _print_report(report)
        payloads.append(report.to_payload())
        if not report.ok:
            exit_code = 1
    if json_path:
        body = payloads[0] if len(payloads) == 1 else payloads
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(body, handle, sort_keys=True, indent=1)
            handle.write("\n")
    return exit_code
