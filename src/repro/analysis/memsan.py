"""CXL-MemSan: a happens-before race detector for the software
cache-coherency protocol over simulated CXL memory.

The paper's data-sharing design (§3.3) keeps multi-primary nodes
coherent in *software*: invalid/removal flags written with single CXL
stores, ``clflush`` of only the dirty lines on write-lock release, and
reader-side CPU-cache invalidation.  The trace-driven invariant checker
(``obs/invariants.py``) validates pinned runs; this module instead
builds the happens-before graph of every run it observes and reports a
:class:`RaceReport` whenever conflicting cache-line accesses are not
ordered by it.

Model
-----
Actors are multi-primary nodes (one vector-clock entry per node — the
simulation interleaves only at yields, and all workers of a node share
one CPU cache, so per-node granularity is exact).  Synchronization
edges, matching DESIGN.md §10:

* page-lock release -> acquire (``PageLockService``),
* invalid/removal flag store -> flag read that observes it
  (``coherency.set_remote_flag`` -> ``FlagSlab`` reads),
* buffer-fusion RPC entry/exit (the fusion server serializes
  ``request_page`` / ``on_write_release`` / ``recycle``).

Data movement is tracked per 64 B line of the watched region(s):
a CPU-cache *store* creates an unpublished (dirty) copy, ``clflush`` /
dirty eviction *publishes* it (bumps the line's memory version and
snapshots the writer's clock), a cache fill *fetches* the current
version, and a cached serve is checked against the version it holds.
Because CXL 2.0 memory is non-coherent, visibility needs publish +
fetch; lock edges alone order events but do not move bytes — which is
exactly why the three seeded protocol mutations are detectable:

* skipped ``clflush`` on write-lock release  -> ``unflushed-write-at-release``
* skipped invalid-flag store                 -> ``stale-cached-read``
* flag-clear reordered before invalidation   -> ``cleared-flag-before-invalidate``

The detector installs into the probe slot (``obs/probes.py``) like the
other four instruments: uninstalled cost is one slot load plus a
``None`` check at every hook site.

>>> ms = MemSan()
>>> ms.watch_region("cxl.shared")
>>> with ms, ms.actor("node0"):
...     ms.cache_store("node0.cache", "cxl.shared", 3)
...     ms.cache_flush_line("node0.cache", "cxl.shared", 3, dirty=True)
>>> ms.reports
[]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..obs.probes import PROBES
from ..sim.latency import CACHE_LINE

__all__ = [
    "MemSan",
    "MemSanError",
    "RaceReport",
    "vc_join",
    "vc_leq",
]

VectorClock = dict[str, int]

#: Sentinel version for "this cache holds a locally-dirty copy".
DIRTY = -1

#: Virtual region name for the RDMA baseline's page-granular tracking.
RDMA_PAGES = "rdma:pages"

# Lines per group of the held-lines index: a 16 KB page, when aligned
# (the same grouping as ``CpuCache``'s resident-line index).
_GROUP_SHIFT = 8


def line_range(offset: int, nbytes: int) -> range:
    """The 64 B lines covering ``[offset, offset + nbytes)``; an empty
    access still names the line it points into.

    >>> line_range(100, 0), line_range(60, 8)
    (range(1, 2), range(0, 2))
    """
    return range(offset // CACHE_LINE, (offset + max(nbytes, 1) - 1) // CACHE_LINE + 1)


def vc_leq(a: VectorClock, b: VectorClock) -> bool:
    """True when clock ``a`` happens-before-or-equals clock ``b``.

    >>> vc_leq({"n0": 1}, {"n0": 2, "n1": 5})
    True
    >>> vc_leq({"n0": 3}, {"n0": 2})
    False
    """
    for actor, tick in a.items():
        if b.get(actor, 0) < tick:
            return False
    return True


def vc_join(dst: VectorClock, src: VectorClock) -> VectorClock:
    """Pointwise-max merge of ``src`` into ``dst`` (in place).

    >>> vc_join({"n0": 1, "n1": 4}, {"n0": 3})
    {'n0': 3, 'n1': 4}
    """
    for actor, tick in src.items():
        if dst.get(actor, 0) < tick:
            dst[actor] = tick
    return dst


@dataclass(frozen=True)
class RaceReport:
    """One detected ordering violation.

    ``actor``/``other`` are the two sides of the conflict (``other`` may
    be unknown for pre-install state), ``spans`` is the attach-stack of
    the active :class:`~repro.obs.spans.SpanTracer` at detection time,
    and ``missing_edge`` names the protocol step whose happens-before
    edge was expected but absent.
    """

    rule: str
    region: str
    line: int
    actor: Optional[str]
    other: Optional[str]
    detail: str
    missing_edge: str
    spans: tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f"{self.region}:line {self.line}"
        who = f"{self.actor or '?'} vs {self.other or '?'}"
        stack = " > ".join(self.spans) if self.spans else "-"
        return (
            f"[{self.rule}] {where} ({who}): {self.detail}; "
            f"missing edge: {self.missing_edge}; spans: {stack}"
        )


class MemSanError(AssertionError):
    """Raised by :meth:`MemSan.check` when races were reported."""


class _Line:
    """Happens-before state of one 64 B line of a watched region."""

    __slots__ = (
        "version",
        "publisher",
        "publish_vc",
        "dirty",
        "writer_actor",
        "writer_cache",
        "cached",
        "readers",
    )

    def __init__(self) -> None:
        self.version = 0
        self.publisher: Optional[str] = None
        self.publish_vc: Optional[VectorClock] = None
        self.dirty = False
        self.writer_actor: Optional[str] = None
        self.writer_cache: Optional[str] = None
        # cache name (or rdma node id) -> memory version it holds,
        # DIRTY for an unpublished local write.
        self.cached: dict[str, int] = {}
        # reader actor -> clock snapshot (write-after-read checks only).
        self.readers: Optional[dict[str, VectorClock]] = None


class _ActorScope:
    """Context manager pushing one ambient-actor frame."""

    __slots__ = ("_ms", "_name")

    def __init__(self, ms: "MemSan", name: str) -> None:
        self._ms = ms
        self._name = name

    def __enter__(self) -> "_ActorScope":
        self._ms._actors.append(self._name)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._ms._actors.pop()


class _InternalScope:
    """Reusable suppression scope for bookkeeping region accesses."""

    __slots__ = ("_ms",)

    def __init__(self, ms: "MemSan") -> None:
        self._ms = ms

    def __enter__(self) -> "_InternalScope":
        self._ms._internal += 1
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._ms._internal -= 1


class MemSan:
    """Vector-clock happens-before race detector (see module docstring).

    ``check_write_after_read`` is off by default: the range-scan
    continuation intentionally reads sibling leaves without holding
    their lock (DESIGN.md §10), so write-after-read ordering is not a
    protocol guarantee.
    """

    def __init__(
        self, *, check_write_after_read: bool = False, max_reports: int = 64
    ) -> None:
        self.check_write_after_read = check_write_after_read
        self.max_reports = max_reports
        self.reports: list[RaceReport] = []
        self.reports_dropped = 0
        self.accesses_checked = 0
        self._watched: set[str] = set()
        self._lines: dict[tuple[str, int], _Line] = {}
        # cache -> (region, line >> _GROUP_SHIFT) -> the group's lines that
        # cache holds: ``line in _held[cache][region, group]`` exactly when
        # ``cache in _lines[region, line].cached``. Kept by _hold / _unhold
        # at the sites that set or pop ``state.cached[cache]``, so the
        # per-page checks visit what is cached, not every line of the page.
        self._held: dict[str, dict[tuple[str, int], set[int]]] = {}
        self._clocks: dict[str, VectorClock] = {}
        self._sync: dict[tuple[str, ...], VectorClock] = {}
        self._actors: list[str] = []
        self._internal = 0
        self._internal_scope = _InternalScope(self)

    # -- configuration ---------------------------------------------------

    def watch_region(self, name: str) -> None:
        """Track raw/cached accesses to the named :class:`MemoryRegion`."""
        self._watched.add(name)

    def watch_setup(self, setup: Any) -> None:
        """Watch the shared CXL region of a bench ``SharingSetup``.

        Only the software-coherent system needs watching: ``cxl3``
        models hardware coherency (no flags, no flushes — nothing for a
        software-protocol sanitizer to check) and the RDMA baseline is
        tracked page-granularly through its own hooks regardless.
        """
        manager = getattr(setup, "manager", None)
        if getattr(setup, "system", None) == "cxl" and manager is not None:
            self.watch_region(manager.region.name)

    def actor(self, name: str) -> _ActorScope:
        """Scope hook-visible work to the given actor (a node id)."""
        return _ActorScope(self, name)

    def internal(self) -> _InternalScope:
        """Suppress raw-region hooks for modelled bookkeeping accesses."""
        return self._internal_scope

    # -- vector-clock machinery ------------------------------------------

    def _ambient(self) -> Optional[str]:
        return self._actors[-1] if self._actors else None

    def _clock(self, actor: str) -> VectorClock:
        clock = self._clocks.get(actor)
        if clock is None:
            clock = {actor: 1}
            self._clocks[actor] = clock
        return clock

    def _acquire(self, actor: Optional[str], key: tuple[str, ...]) -> None:
        if actor is None:
            return
        vc = self._sync.get(key)
        if vc:
            vc_join(self._clock(actor), vc)

    def _release(self, actor: Optional[str], key: tuple[str, ...]) -> None:
        if actor is None:
            return
        clock = self._clock(actor)
        sync = self._sync.get(key)
        if sync is None:
            self._sync[key] = dict(clock)
        else:
            vc_join(sync, clock)
        clock[actor] = clock.get(actor, 0) + 1

    def _line(self, region: str, line: int) -> _Line:
        key = (region, line)
        state = self._lines.get(key)
        if state is None:
            state = _Line()
            self._lines[key] = state
        return state

    def _hold(self, cache: str, region: str, line: int) -> None:
        """``cache`` now holds a copy of the line (index side of
        ``state.cached[cache] = ...`` for a cache that was not in it)."""
        groups = self._held.get(cache)
        if groups is None:
            groups = self._held[cache] = {}
        key = (region, line >> _GROUP_SHIFT)
        lines = groups.get(key)
        if lines is None:
            groups[key] = {line}
        else:
            lines.add(line)

    def _unhold(self, cache: str, region: str, line: int) -> None:
        """Index side of a ``state.cached.pop(cache)`` that found a copy."""
        groups = self._held[cache]
        key = (region, line >> _GROUP_SHIFT)
        lines = groups[key]
        lines.remove(line)
        if not lines:
            del groups[key]

    def _held_lines(self, cache: str, region: str, offset: int, nbytes: int) -> list[int]:
        """The lines of the byte range that ``cache`` holds, ascending."""
        groups = self._held.get(cache)
        if not groups:
            return []
        covered = line_range(offset, nbytes)
        first, last = covered[0], covered[-1]
        found: list[int] = []
        for group in range(first >> _GROUP_SHIFT, (last >> _GROUP_SHIFT) + 1):
            lines = groups.get((region, group))
            if lines is not None:
                lines = sorted(lines)
                if lines[0] < first or lines[-1] > last:  # the range clips this group
                    lines = [line for line in lines if first <= line <= last]
                found += lines
        return found

    def _report(
        self,
        rule: str,
        region: str,
        line: int,
        actor: Optional[str],
        other: Optional[str],
        detail: str,
        missing_edge: str,
    ) -> None:
        if len(self.reports) >= self.max_reports:
            self.reports_dropped += 1
            return
        stack: tuple[str, ...] = ()
        spans = PROBES.spans
        if spans is not None:
            stack = tuple(f"{s.kind}:{s.name}" for s in spans.attach_stack())
        self.reports.append(
            RaceReport(
                rule=rule,
                region=region,
                line=line,
                actor=actor,
                other=other,
                detail=detail,
                missing_edge=missing_edge,
                spans=stack,
            )
        )

    def check(self) -> None:
        """Raise :class:`MemSanError` if any race was reported."""
        if not self.reports:
            return
        shown = "\n  ".join(str(report) for report in self.reports[:8])
        extra = len(self.reports) + self.reports_dropped - min(len(self.reports), 8)
        tail = f"\n  ... and {extra} more" if extra > 0 else ""
        raise MemSanError(
            f"memsan: {len(self.reports) + self.reports_dropped} race "
            f"report(s):\n  {shown}{tail}"
        )

    # -- raw region accesses (hardware/memory.py) ------------------------

    def raw_load(self, region: str, offset: int, nbytes: int) -> None:
        """Uncached load issued directly against a region."""
        if self._internal or region not in self._watched or not self._actors:
            return
        actor = self._actors[-1]
        self.accesses_checked += 1
        clock = self._clock(actor)
        for line in line_range(offset, nbytes):
            state = self._lines.get((region, line))
            if state is None:
                continue
            if state.dirty and state.writer_actor not in (None, actor):
                self._report(
                    "read-write-race",
                    region,
                    line,
                    actor,
                    state.writer_actor,
                    "raw load while another node holds an unflushed store",
                    "clflush (publish) of the writer's dirty line",
                )
            elif (
                state.publisher is not None
                and state.publisher != actor
                and state.publish_vc is not None
                and not vc_leq(state.publish_vc, clock)
            ):
                self._report(
                    "read-write-race",
                    region,
                    line,
                    actor,
                    state.publisher,
                    "raw load not ordered after the last publish",
                    "lock handover, invalid-flag read or fusion RPC",
                )

    def raw_store(self, region: str, offset: int, nbytes: int) -> None:
        """Uncached store issued directly against a region."""
        if self._internal or region not in self._watched or not self._actors:
            return
        actor = self._actors[-1]
        self.accesses_checked += 1
        clock = self._clock(actor)
        # One snapshot for every line the store covers (a page is 256):
        # ``publish_vc`` is only ever read by ``vc_leq`` or replaced whole.
        published = dict(clock)
        for line in line_range(offset, nbytes):
            state = self._line(region, line)
            if state.dirty and state.writer_actor not in (None, actor):
                self._report(
                    "write-write-race",
                    region,
                    line,
                    actor,
                    state.writer_actor,
                    "raw store while another node holds an unflushed store",
                    "clflush (publish) of the writer's dirty line",
                )
            elif (
                state.publisher is not None
                and state.publisher != actor
                and state.publish_vc is not None
                and not vc_leq(state.publish_vc, clock)
            ):
                self._report(
                    "write-write-race",
                    region,
                    line,
                    actor,
                    state.publisher,
                    "raw store not ordered after the last publish",
                    "lock handover, invalid-flag read or fusion RPC",
                )
            state.version += 1
            state.publisher = actor
            state.publish_vc = published
            state.dirty = False
            state.writer_actor = None
            state.writer_cache = None
        clock[actor] = clock.get(actor, 0) + 1

    # -- CPU-cache accesses (hardware/cache.py) --------------------------

    def cache_load(self, cache: str, region: str, line: int, fetched: bool) -> None:
        """A CPU-cache read: ``fetched`` means it filled from memory."""
        if region not in self._watched:
            return
        # The hottest hook (once per cached access): _ambient and _line inline.
        actor = self._actors[-1] if self._actors else None
        self.accesses_checked += 1
        state = self._lines.get((region, line))
        if state is None:
            state = self._lines[region, line] = _Line()
        if fetched:
            if state.dirty and state.writer_cache != cache:
                self._report(
                    "read-write-race",
                    region,
                    line,
                    actor,
                    state.writer_actor,
                    "cache fill while another node holds an unflushed store",
                    "clflush (publish) of the writer's dirty line",
                )
            elif (
                state.publisher is not None
                and state.publisher != actor
                and state.publish_vc is not None
                and actor is not None
                and not vc_leq(state.publish_vc, self._clock(actor))
            ):
                self._report(
                    "read-write-race",
                    region,
                    line,
                    actor,
                    state.publisher,
                    "cache fill not ordered after the last publish",
                    "invalid-flag store -> flag read, or fusion RPC reply",
                )
            if cache not in state.cached:
                self._hold(cache, region, line)
            state.cached[cache] = state.version
        else:
            held = state.cached.get(cache)
            if held is None:
                # Copy predates this MemSan install; adopt it as current.
                self._hold(cache, region, line)
                state.cached[cache] = state.version
            elif held != DIRTY and held < state.version:
                self._report(
                    "stale-cached-read",
                    region,
                    line,
                    actor,
                    state.publisher,
                    f"cached serve of version {held} after publish of "
                    f"version {state.version}",
                    "invalid-flag store by the writer, observed before "
                    "this read (reader-side invalidation)",
                )
        if self.check_write_after_read and actor is not None:
            if state.readers is None:
                state.readers = {}
            state.readers[actor] = dict(self._clock(actor))

    def cache_store(self, cache: str, region: str, line: int) -> None:
        """A CPU-cache write (creates/refreshes a dirty local copy)."""
        if region not in self._watched:
            return
        actor = self._ambient()
        self.accesses_checked += 1
        state = self._line(region, line)
        if state.dirty and state.writer_cache != cache:
            self._report(
                "write-write-race",
                region,
                line,
                actor,
                state.writer_actor,
                "store while another node holds an unflushed store",
                "page write-lock handover (flush before release)",
            )
        elif (
            state.publisher is not None
            and state.publisher != actor
            and state.publish_vc is not None
            and actor is not None
            and not vc_leq(state.publish_vc, self._clock(actor))
        ):
            self._report(
                "write-write-race",
                region,
                line,
                actor,
                state.publisher,
                "store not ordered after the last publish",
                "page write-lock handover or invalid-flag read",
            )
        if self.check_write_after_read and actor is not None and state.readers:
            clock = self._clock(actor)
            for reader, snapshot in state.readers.items():
                if reader != actor and not vc_leq(snapshot, clock):
                    self._report(
                        "write-after-read-race",
                        region,
                        line,
                        actor,
                        reader,
                        "store not ordered after a concurrent read",
                        "page lock covering the reader's access",
                    )
        state.dirty = True
        state.writer_actor = actor
        state.writer_cache = cache
        if cache not in state.cached:
            self._hold(cache, region, line)
        state.cached[cache] = DIRTY

    def cache_flush_line(self, cache: str, region: str, line: int, dirty: bool) -> None:
        """``clflush`` / dirty eviction: publish and drop the local copy."""
        if region not in self._watched:
            return
        if not dirty:
            state = self._lines.get((region, line))
            if state is not None and state.cached.pop(cache, None) is not None:
                self._unhold(cache, region, line)
            return
        actor = self._ambient()
        state = self._line(region, line)
        state.version += 1
        state.publisher = actor
        if actor is not None:
            clock = self._clock(actor)
            state.publish_vc = dict(clock)
            clock[actor] = clock.get(actor, 0) + 1
        else:
            state.publish_vc = None
        if state.writer_cache == cache:
            state.dirty = False
            state.writer_actor = None
            state.writer_cache = None
        if state.cached.pop(cache, None) is not None:
            self._unhold(cache, region, line)
        if state.readers:
            state.readers.clear()

    def cache_invalidate_line(self, cache: str, region: str, line: int) -> None:
        """Line dropped without writeback (reader-side invalidation)."""
        if region not in self._watched:
            return
        state = self._lines.get((region, line))
        if state is None:
            return
        if state.cached.pop(cache, None) is not None:
            self._unhold(cache, region, line)
        if state.writer_cache == cache:
            state.dirty = False
            state.writer_actor = None
            state.writer_cache = None

    def cache_dropped(self, cache: str) -> None:
        """The whole cache vanished (host crash / ``drop_all``)."""
        for (region, _), lines in self._held.pop(cache, {}).items():
            for line in lines:
                state = self._lines[region, line]
                del state.cached[cache]
                if state.writer_cache == cache:
                    state.dirty = False
                    state.writer_actor = None
                    state.writer_cache = None

    def assert_flushed(self, cache: str, region: str, offset: int, nbytes: int) -> None:
        """Write-lock release discipline: no dirty line may survive the
        pre-release flush of its page (seeded mutation 1)."""
        if region not in self._watched:
            return
        actor = self._ambient()
        for line in self._held_lines(cache, region, offset, nbytes):
            state = self._lines[region, line]
            if state.dirty and state.writer_cache == cache:
                self._report(
                    "unflushed-write-at-release",
                    region,
                    line,
                    actor,
                    state.writer_actor,
                    "write lock released while the page still holds an "
                    "unflushed dirty line",
                    "clflush of dirty lines before on_write_release",
                )

    # -- coherency flags (core/coherency.py) -----------------------------

    def flag_store(self, region: str, addr: int, value: bool) -> None:
        """Single CXL store to an invalid/removal flag byte."""
        self._release(self._ambient(), ("flag", region, str(addr)))

    def flag_read(self, region: str, addr: int, value: bool) -> None:
        """Uncached flag read; observing True is an acquire edge."""
        if value:
            self._acquire(self._ambient(), ("flag", region, str(addr)))

    def invalid_cleared(self, cache: str, region: str, offset: int, nbytes: int) -> None:
        """Invalid flag cleared for a page; reader-side invalidation must
        already have dropped every stale cached line (seeded mutation 3).
        """
        if region not in self._watched:
            return
        actor = self._ambient()
        for line in self._held_lines(cache, region, offset, nbytes):
            state = self._lines[region, line]
            held = state.cached[cache]
            if held != DIRTY and held < state.version:
                self._report(
                    "cleared-flag-before-invalidate",
                    region,
                    line,
                    actor,
                    state.publisher,
                    f"invalid flag cleared while the cache still holds "
                    f"version {held} (memory is at {state.version})",
                    "CPU-cache invalidation before clearing the invalid flag",
                )

    # -- locks and RPCs (core/sharing.py, core/fusion.py) ----------------

    def lock_requested(self, lock_id: object) -> None:
        """A waiter joined (or bypassed) the lock's grant queue.

        No clock effect — queue position grants no happens-before — but
        the *order* of enqueues decides the grant order, so the schedule
        explorer (:mod:`.explore`) needs to see it as a conflict."""

    def lock_acquired(self, actor: str, lock_id: object) -> None:
        self._acquire(actor, ("lock", str(lock_id)))

    def lock_released(self, actor: str, lock_id: object) -> None:
        self._release(actor, ("lock", str(lock_id)))

    def lock_force_released(self, lock_id: object) -> None:
        """Failover path: the ambient (failover) actor releases the
        dead node's lock after rebuilding the page."""
        self._release(self._ambient(), ("lock", str(lock_id)))

    def rpc_acquire(self, service: str) -> None:
        """Entry to a serialized RPC handler (e.g. the fusion server)."""
        self._acquire(self._ambient(), ("rpc", service))

    def rpc_release(self, service: str) -> None:
        self._release(self._ambient(), ("rpc", service))

    # -- crashes ---------------------------------------------------------

    def actor_crashed(self, actor: str, inheritor: Optional[str] = None) -> None:
        """Drop the dead node's unpublished stores; the failover actor
        inherits its clock (recovery supersedes lost writes via the redo
        log, so post-rebuild accesses are ordered after everything the
        dead node did)."""
        for state in self._lines.values():
            if state.writer_actor == actor:
                state.dirty = False
                state.writer_actor = None
                state.writer_cache = None
        if inheritor is not None:
            vc_join(self._clock(inheritor), self._clock(actor))

    # -- RDMA baseline (page-granular; no vector clocks) -----------------
    #
    # The RDMA LBP keeps whole pages in local DRAM and invalidates by
    # message; a node whose frame was evicted stays registered, so a
    # refetch carries no strict happens-before edge even in the correct
    # protocol.  Staleness (serving a page version older than the
    # authority's) is the meaningful check, and it needs versions only.

    def page_fetch(self, node: str, page_id: int) -> None:
        self.accesses_checked += 1
        state = self._line(RDMA_PAGES, page_id)
        if node not in state.cached:
            self._hold(node, RDMA_PAGES, page_id)
        state.cached[node] = state.version

    def page_cached_read(self, node: str, page_id: int) -> None:
        self.accesses_checked += 1
        state = self._line(RDMA_PAGES, page_id)
        held = state.cached.get(node)
        if held is None:
            self._hold(node, RDMA_PAGES, page_id)
            state.cached[node] = state.version
        elif held < state.version:
            self._report(
                "stale-page-read",
                RDMA_PAGES,
                page_id,
                node,
                state.publisher,
                f"local frame serves version {held} after publish of "
                f"version {state.version}",
                "invalidation message from the writer's release",
            )

    def page_publish(self, node: str, page_id: int) -> None:
        self.accesses_checked += 1
        state = self._line(RDMA_PAGES, page_id)
        state.version += 1
        state.publisher = node
        if node not in state.cached:
            self._hold(node, RDMA_PAGES, page_id)
        state.cached[node] = state.version

    def page_dropped(self, node: str, page_id: int) -> None:
        state = self._lines.get((RDMA_PAGES, page_id))
        if state is not None and state.cached.pop(node, None) is not None:
            self._unhold(node, RDMA_PAGES, page_id)

    # -- install protocol ------------------------------------------------

    def __enter__(self) -> "MemSan":
        return PROBES.install("memsan", self)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        PROBES.uninstall("memsan", self)
