"""One checked-run harness and one sharing-failover primitive.

Every verification harness — crash-sweep golden runs and coordinates,
stress seeds, scale points, fleet-HA scenarios, explored schedules —
runs its body under some subset of the four instruments (event
:class:`~repro.obs.trace.Tracer`, :class:`~repro.obs.spans.SpanTracer`,
:class:`~repro.obs.metrics.MetricsPipeline`, :class:`~.memsan.MemSan`)
and then runs every invariant they support. :class:`CheckedRun` is that
battery, once; :func:`fail_over` is the sharing tier's failover, once.

A run stays installed for the **whole** coordinate / seed / scenario.
The :class:`~repro.faults.injector.FaultInjector` is deliberately not
managed here: it stays a per-phase ``with`` inside the run, because
MemSan's ``actor_crashed`` edges must survive from the crash phase into
the failover phase (instruments span the run, the injector a phase).
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import TYPE_CHECKING, Callable, Optional, Union

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

__all__ = ["CheckedRun", "LogOrderError", "fail_over"]


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
    return rebuilt, retired
