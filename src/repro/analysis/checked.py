"""One checked-run harness, one committed-state oracle and one
scenario core for the sharing harnesses.

Every verification harness — crash-sweep golden runs and coordinates,
stress seeds, scale points, fleet-HA scenarios, explored schedules —
runs its body under some subset of the four instruments (event
:class:`~repro.obs.trace.Tracer`, :class:`~repro.obs.spans.SpanTracer`,
:class:`~repro.obs.metrics.MetricsPipeline`, :class:`~.memsan.MemSan`)
and then runs every invariant they support. :class:`CheckedRun` is that
battery, once; :class:`CommittedState` is what a reader of the shared
table may see, once. The sharing harnesses (explorer, stress, HA fleet,
sharing and storm sweeps) only produce schedules of :data:`Op` tuples:
:func:`run_op` runs and checks one, :func:`crash` is what a node dying
in one ends with, and :func:`fail_over` is the sharing tier's failover.

A run stays installed for the **whole** coordinate / seed / scenario.
The :class:`~repro.faults.injector.FaultInjector` is deliberately not
managed here: it stays a per-phase ``with`` inside the run, because
MemSan's ``actor_crashed`` edges must survive from the crash phase into
the failover phase (instruments span the run, the injector a phase).
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import ExitStack
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Union

from ..core.recovery import retire_log
from ..core.shard_router import FusionShardRouter
from ..obs.invariants import (
    CheckStats,
    SpanCheckStats,
    assert_span_invariants,
    assert_trace_invariants,
)
from ..obs.metrics import MetricsPipeline
from ..obs.probes import PROBES
from ..obs.spans import SpanTracer
from ..obs.trace import Tracer
from .memsan import MemSan

if TYPE_CHECKING:
    from ..core.sharing import MultiPrimaryNode
    from ..hardware.memory import AccessMeter
    from ..obs.world import SharingSetup
    from ..sim.core import Event

__all__ = ["CheckedRun", "CommittedState", "LogOrderError", "Op", "crash", "fail_over", "run_op"]

TABLE = "sbtest_shared"

#: One sharing op: ``(kind, key, via, value)``, ``kind`` one of
#: ``"select"``, ``"update"`` and ``"range"``. ``via`` indexes the node
#: in ``setup.nodes`` that runs it (the HA fleet routes its preferred
#: node to a live one before the op runs); ``value`` is
#: an update's new ``"k"``, a range's row count and None for a select.
Op = tuple[str, int, int, Any]


class LogOrderError(AssertionError):
    """A watched node's durable redo log is not strictly LSN-increasing."""


class CheckedRun:
    """Install the requested instruments nobody has installed yet, then
    check exactly those.

    Under an outer harness the caller's instrument covers the run and
    the caller checks it; the attributes ``tracer`` / ``spans`` /
    ``metrics`` / ``memsan`` hold only what this run owns. ``memsan``
    may be a caller-built detector (CXL-Explore's recording subclass),
    which is installed unconditionally — a foreign detector already in
    place is then an error, not a silent skip.

    >>> with CheckedRun(trace=True, spans=True) as run:
    ...     PROBES.tracer is run.tracer, PROBES.spans is run.spans
    (True, True)
    >>> run.check()
    >>> run.trace_stats.events, run.span_stats.spans, PROBES.tracer
    (0, 0, None)
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        spans: bool = False,
        metrics: bool = False,
        memsan: Union[bool, MemSan] = False,
    ) -> None:
        self._want = (trace, spans, metrics, memsan)
        self.tracer: Optional[Tracer] = None
        self.spans: Optional[SpanTracer] = None
        self.metrics: Optional[MetricsPipeline] = None
        self.memsan: Optional[MemSan] = None
        self.trace_stats: Optional[CheckStats] = None
        self.span_stats: Optional[SpanCheckStats] = None
        self._watched: list["SharingSetup"] = []
        self._installed = ExitStack()

    def __enter__(self) -> "CheckedRun":
        trace, spans, metrics, memsan = self._want
        with ExitStack() as stack:
            if isinstance(memsan, MemSan):
                self.memsan = stack.enter_context(memsan)
            elif memsan and PROBES.memsan is None:
                self.memsan = stack.enter_context(MemSan())
            if trace and PROBES.tracer is None:
                self.tracer = stack.enter_context(Tracer())
            if spans and PROBES.spans is None:
                self.spans = stack.enter_context(SpanTracer())
            if metrics and PROBES.metrics is None:
                self.metrics = stack.enter_context(MetricsPipeline())
            self._installed = stack.pop_all()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._installed.close()

    def watch(self, setup: "SharingSetup") -> None:
        """Check ``setup`` with this run: :meth:`check` verifies every
        node's durable log, and the owned race detector watches the
        shared region."""
        self._watched.append(setup)
        if self.memsan is not None:
            self.memsan.watch_setup(setup)

    def crashed(self, now_ns: float) -> None:
        """Crash semantics for whatever is installed, own or outer.

        An open span can never end, so it must not leak as ``open`` nor
        mis-parent the next incarnation's spans; and a scrape forced at
        the crash instant must see only complete published samples.
        """
        spans = PROBES.spans
        if spans is not None:
            spans.abandon_open()
        pipeline = PROBES.metrics
        if pipeline is not None:
            pipeline.maybe_scrape(now_ns)

    def flush(self, now_ns: float) -> None:
        """End of run: drain the installed pipeline's open window."""
        pipeline = PROBES.metrics
        if pipeline is not None:
            pipeline.flush(now_ns)

    def check(self, allow_abandoned: bool = False) -> None:
        """Run every invariant of every owned instrument and the log
        order of every watched node; raise on the first.

        MemSan goes last, so a harness that reports races itself can
        catch :class:`~.memsan.MemSanError` knowing the rest passed.
        """
        if self.tracer is not None:
            self.trace_stats = assert_trace_invariants(self.tracer)
        if self.spans is not None:
            self.span_stats = assert_span_invariants(
                self.spans, allow_abandoned=allow_abandoned
            )
        if self.metrics is not None:
            self.metrics.check_consistent()
        for setup in self._watched:
            for node in setup.nodes:
                if not node.engine.redo_log.verify_ordered():
                    raise LogOrderError(
                        f"node {node.node_id}: durable redo log is not "
                        f"strictly LSN-increasing"
                    )
        if self.memsan is not None:
            self.memsan.check()


class CommittedState:
    """What a reader of the shared table's ``k`` column may see: the one
    committed-state oracle of the explorer, stress, the HA fleet and the
    sharing sweeps. ``history[key]`` is a key's committed values in lock
    order, its loaded one (``loaded_row(key)["k"]``) first.

    >>> state = CommittedState(lambda key: {"k": key % 4096})
    >>> state.read("node0", 5, {"k": 5}), state.commit(5, 7)
    ('', None)
    >>> state.read("node1", 5, {"k": 5})
    'node1 read key 5 = 5; it may see only [7]'
    """

    def __init__(self, loaded_row: Callable[[int], dict]) -> None:
        self._loaded_row = loaded_row
        self.history: dict[int, list[Any]] = {}  # keys the run read or committed
        self._stamps: dict[int, list[int]] = {}  # the clock after each commit
        self.clock = 0  # commits so far
        self._in_flight: dict[tuple[int, Any], int] = {}  # -> durable LSN before
        self.seen: dict[tuple[str, int], int] = {}  # (node, key) -> position read
        self.checks = 0

    def _history(self, key: int) -> list[Any]:
        if key not in self.history:
            self.history[key], self._stamps[key] = [self._loaded_row(key)["k"]], [0]
        return self.history[key]

    def start_write(self, key: int, value: Any, durable_lsn: int) -> None:
        """``value`` may be read from now on (its writer's log is durable
        up to ``durable_lsn``)."""
        self._in_flight[key, value] = durable_lsn

    def commit(self, key: int, value: Any) -> None:
        self._in_flight.pop((key, value), None)
        self._history(key).append(value)
        self.clock += 1
        self._stamps[key].append(self.clock)

    def resolve(self, key: int, value: Any, durable_lsn: int) -> bool:
        """A write whose writer crashed committed iff the writer's log
        became durable past where it was when the write started."""
        committed = durable_lsn > self._in_flight.pop((key, value))
        if committed:
            self.commit(key, value)
        return committed

    def read(self, node: str, key: int, row: Optional[dict], since: Optional[int] = None) -> str:
        """What is wrong with ``node`` reading ``row`` (None: missing) for
        ``key`` in a read that started at clock ``since`` (default: now).

        It may see a value in flight, or a committed one no older than
        the key's last commit before ``since`` nor this node's last read
        of the key: read serially, exactly the last committed value.
        """
        self.checks += 1
        value = None if row is None else row["k"]
        history = self._history(key)
        if (key, value) in self._in_flight:
            return ""
        start = self.clock if since is None else since
        floor = max(bisect_right(self._stamps[key], start) - 1, self.seen.get((node, key), 0))
        if value in history[floor:]:
            self.seen[node, key] = history.index(value, floor)
            return ""
        allowed = history[floor:] + [v for k, v in self._in_flight if k == key]
        return f"{node} read key {key} = {value!r}; it may see only {allowed!r}"

    def read_back(self, check: Callable[[int], str]) -> str:
        """The first problem ``check(key)`` reports over every key of
        :attr:`history` (each key the run read or committed), in key
        order."""
        for key in sorted(self.history):
            if problem := check(key):
                return problem
        return ""


def run_op(
    setup: "SharingSetup", op: Op, oracle: CommittedState
) -> Generator["Event", Any, str]:
    """Run ``op`` on the node it names and record or check it in
    ``oracle``; the problem, empty when fine. An update may be read from
    its start and commits only if its row was found; every row a select
    or range reads is checked as read by that node since the op started.
    Run it with ``sim.run_process`` or ``yield from``: it adds no
    simulator event to the op."""
    kind, key, via, value = op
    node = setup.nodes[via]
    since = oracle.clock
    if kind == "update":
        oracle.start_write(key, value, node.engine.redo_log.durable_max_lsn)
        if not (yield from node.point_update(TABLE, key, "k", value)):
            return f"update {key}={value} on {node.node_id} did not commit"
        oracle.commit(key, value)
        return ""
    if kind == "select":
        rows = [(key, (yield from node.point_select(TABLE, key)))]
    elif kind == "range":
        scanned = yield from node.range_select(TABLE, key, value)
        rows = [(row["id"], row) for row in scanned]
    else:
        raise ValueError(f"unknown sharing op kind {kind!r}")
    problems = [oracle.read(node.node_id, k, row, since) for k, row in rows]
    return next(filter(None, problems), "")


def crash(run: CheckedRun, setup: "SharingSetup", oracle: CommittedState, op: Op) -> bool:
    """The node ``op`` names died inside it: crash semantics for the
    instruments, power loss for its engine and host (log buffer and CPU
    cache), and an update it died in resolved by its durable LSN, which
    the crash leaves as it was. Whether that update committed."""
    kind, key, via, value = op
    engine = setup.nodes[via].engine
    run.crashed(setup.sim.now)
    engine.crash()
    setup.hosts[via].crash()
    return kind == "update" and oracle.resolve(key, value, engine.redo_log.durable_max_lsn)


def fail_over(
    setup: "SharingSetup",
    dead: "MultiPrimaryNode",
    meter: "AccessMeter",
    *,
    actor: str,
    inherits: str,
) -> tuple[int, int]:
    """One failover attempt for the (already powered-off) node ``dead``.

    Fusion rebuilds the pages ``dead`` held write-locked and breaks its
    locks, then its durable log is retired into storage — shard by shard
    on a sharded tier, each shard hardening only the pages it owns (the
    filters partition page ids, so the union is a full retirement).
    Returns ``(pages_rebuilt, pages_retired)``.

    Under MemSan the attempt runs as ``actor``, ordered after everything
    ``inherits`` did — the dead node, or the previous crashed attempt —
    because the durable redo supersedes whatever that actor lost.

    An attempt that completes seals the failover (a crashed one raises
    first, so its retry still sees the dead node's locks): the dead node
    holds no locks, and the epoch bump puts every later LSN — joiners'
    ``base_lsn``, each live node's log — after the dead log's, so
    LSN-guarded redo never skips a post-takeover record.
    """
    fusion = setup.fusion
    assert fusion is not None
    ms = PROBES.memsan
    if ms is not None:
        ms.actor_crashed(inherits, inheritor=actor)
    filters: list[Optional[Callable[[int], bool]]] = [None]
    if isinstance(fusion, FusionShardRouter):
        owner = fusion.owner_index
        filters = [lambda p, i=i: owner(p) == i for i in range(len(fusion.shards))]
    with PROBES.scoped_actor(actor):
        rebuilt = fusion.recover_node_failure(
            dead.node_id,
            dead.engine.redo_log,
            meter,
            lock_service=setup.lock_service,
            write_locked_pages=sorted(dead.write_locks_held),
            read_locked_pages=sorted(dead.read_locks_held),
        )
        retired = sum(
            retire_log(
                setup.page_store,
                dead.engine.redo_log,
                meter,
                setup.config,
                page_filter=page_filter,
            )
            for page_filter in filters
        )
    dead.write_locks_held.clear()
    dead.read_locks_held.clear()
    dead_next = dead.engine.redo_log.next_lsn
    setup.base_lsn = max(setup.base_lsn, dead_next)
    for node in setup.nodes:
        if not node.engine.crashed:
            node.engine.redo_log.align_lsn(dead_next)
    return rebuilt, retired
