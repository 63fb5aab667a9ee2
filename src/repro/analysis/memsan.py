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

Line state
----------
Each watched region has one line table (the RDMA baseline's page space
one more, keyed by page id): typed columns indexed by line — memory
version, publisher, the publish-clock snapshot, writer actor and writer
cache, names interned to small codes — plus sparse maps for the few
lines that have cached copies or (with ``check_write_after_read``)
reader clocks.  A line is dirty exactly when its writer cache is set.
Columns grow one 256-line group at a time on first touch, so they hold
what was touched, not the region.  :meth:`MemSan.line_state` reads one
line back as a :class:`LineState`.

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
>>> ms.line_state("cxl.shared", 3)[:2]
(1, 'node0')
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from ..obs.probes import PROBES
from ..sim.latency import CACHE_LINE

__all__ = [
    "LineState",
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

# Lines per group of the line tables and the held-lines index: a 16 KB
# page, when aligned (the same grouping as ``CpuCache``'s resident-line
# index).
_GROUP_SHIFT = 8
_GROUP_MASK = (1 << _GROUP_SHIFT) - 1

# One group's worth of empty column slots, appended on a group's first touch.
_NO_VERSIONS = array("q", bytes(8 << _GROUP_SHIFT))
_NO_CODES = array("i", bytes(4 << _GROUP_SHIFT))
_NO_CLOCKS: list[Optional[VectorClock]] = [None] * (1 << _GROUP_SHIFT)


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


class LineState(NamedTuple):
    """Happens-before state of one line, as :meth:`MemSan.line_state`
    reads it back. ``publish_vc`` is the shared publish snapshot (do not
    mutate it); ``cached`` maps a cache (or RDMA node) to the memory
    version it holds, ``DIRTY`` for an unpublished local write;
    ``readers`` maps a reader actor to its clock at the read."""

    version: int
    publisher: Optional[str]
    publish_vc: Optional[VectorClock]
    dirty: bool
    writer_actor: Optional[str]
    writer_cache: Optional[str]
    cached: dict[str, int]
    readers: dict[str, VectorClock]


class _LineTable:
    """The lines of one region as columns (see the module docstring).

    Line ``l`` lives in slot ``groups[l >> 8] + (l & 255)`` of every
    column; name columns hold codes into ``MemSan._names`` (0 = none).
    """

    __slots__ = (
        "groups",
        "version",
        "publisher",
        "publish_vc",
        "writer_actor",
        "writer_cache",
        "copies",
        "readers",
    )

    def __init__(self) -> None:
        # 256-line group -> its first slot in the columns.
        self.groups: dict[int, int] = {}
        self.version = array("q")
        self.publisher = array("i")
        # One snapshot is shared by every line a raw store covers: it is
        # only ever read by ``vc_leq`` or replaced whole.
        self.publish_vc: list[Optional[VectorClock]] = []
        self.writer_actor = array("i")
        # Non-zero exactly when the line is dirty: every path sets or
        # clears the writer actor and cache together.
        self.writer_cache = array("i")
        # line -> cache (or rdma node id) -> memory version it holds,
        # DIRTY for an unpublished local write; no empty entry is kept.
        self.copies: dict[int, dict[str, int]] = {}
        # line -> reader actor -> clock snapshot (write-after-read checks only).
        self.readers: dict[int, dict[str, VectorClock]] = {}

    def grow(self, group: int) -> int:
        """Give a first-touched group its slots; returns the first."""
        base = self.groups[group] = len(self.publish_vc)
        self.version += _NO_VERSIONS
        self.publisher += _NO_CODES
        self.publish_vc += _NO_CLOCKS
        self.writer_actor += _NO_CODES
        self.writer_cache += _NO_CODES
        return base

    def slot(self, line: int) -> int:
        base = self.groups.get(line >> _GROUP_SHIFT)
        if base is None:
            base = self.grow(line >> _GROUP_SHIFT)
        return base + (line & _GROUP_MASK)

    def clean(self, i: int) -> None:
        self.writer_actor[i] = self.writer_cache[i] = 0


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
        # watched region -> its line table; the RDMA page space has its own.
        self._watched: dict[str, _LineTable] = {}
        # table name -> the world object it tracks, held weakly (watch_setup).
        self._worlds: dict[str, weakref.ref] = {}
        self._pages = _LineTable()
        # Actor, cache and node names behind the tables' name codes.
        self._names: list[Optional[str]] = [None]
        self._codes: dict[str, int] = {}
        # cache -> (region, line >> _GROUP_SHIFT) -> the group's lines that
        # cache holds: ``line in _held[cache][region, group]`` exactly when
        # ``cache`` is in the line's copies. Kept by _hold / _unhold at the
        # sites that add or drop a copy, so the per-page checks visit what
        # is cached, not every line of the page.
        self._held: dict[str, dict[tuple[str, int], set[int]]] = {}
        self._clocks: dict[str, VectorClock] = {}
        self._sync: dict[tuple[str, ...], VectorClock] = {}
        self._actors: list[str] = []
        self._internal = 0
        self._internal_scope = _InternalScope(self)

    # -- configuration ---------------------------------------------------

    def watch_region(self, name: str) -> None:
        """Track raw/cached accesses to the named :class:`MemoryRegion`."""
        if name not in self._watched:
            self._watched[name] = self._pages if name == RDMA_PAGES else _LineTable()

    def watch_setup(self, setup: Any) -> None:
        """Watch the shared CXL region of a bench ``SharingSetup``.

        Only the software-coherent system needs watching: ``cxl3``
        models hardware coherency (no flags, no flushes — nothing for a
        software-protocol sanitizer to check) and the RDMA baseline is
        tracked page-granularly through its own hooks regardless.

        Every sharing world names its region alike (``cxl0.pool``) and
        numbers its pages alike, so one detector that sees several
        worlds, as a session-wide one does, keeps a table only while it
        is the same world's: watching a new world's region under a
        watched name, or a new RDMA world, starts that table fresh.
        Watching the same world again changes nothing.
        """
        system = getattr(setup, "system", None)
        manager = getattr(setup, "manager", None)
        dbp_server = getattr(setup, "dbp_server", None)
        if system == "cxl" and manager is not None:
            self._enter_world(manager.region.name, manager.region)
            self.watch_region(manager.region.name)
        elif system == "rdma" and dbp_server is not None:
            self._enter_world(RDMA_PAGES, dbp_server)

    def _enter_world(self, name: str, owner: Any) -> None:
        """The table ``name`` tracks ``owner`` (a world's CXL region, or
        its DBP server for the RDMA page space) from now on; if it
        tracked another one, it and every cache's held lines of it go."""
        world = self._worlds.get(name)
        if world is not None and world() is not owner:
            if name == RDMA_PAGES:
                self._pages = _LineTable()
            if name in self._watched:
                self._watched[name] = self._pages if name == RDMA_PAGES else _LineTable()
            for groups in self._held.values():
                for key in [key for key in groups if key[0] == name]:
                    del groups[key]
        self._worlds[name] = weakref.ref(owner)

    def actor(self, name: str) -> _ActorScope:
        """Scope hook-visible work to the given actor (a node id)."""
        return _ActorScope(self, name)

    def internal(self) -> _InternalScope:
        """Suppress raw-region hooks for modelled bookkeeping accesses."""
        return self._internal_scope

    # -- line state --------------------------------------------------------

    def line_state(self, region: str, line: int) -> LineState:
        """Read one line's state back (a page id for ``RDMA_PAGES``); a
        line nothing has touched reads as a fresh one."""
        table = self._watched.get(region, self._pages if region == RDMA_PAGES else None)
        base = None if table is None else table.groups.get(line >> _GROUP_SHIFT)
        if table is None or base is None:
            return LineState(0, None, None, False, None, None, {}, {})
        i = base + (line & _GROUP_MASK)
        names = self._names
        return LineState(
            version=table.version[i],
            publisher=names[table.publisher[i]],
            publish_vc=table.publish_vc[i],
            dirty=table.writer_cache[i] != 0,
            writer_actor=names[table.writer_actor[i]],
            writer_cache=names[table.writer_cache[i]],
            cached=dict(table.copies.get(line, {})),
            readers=dict(table.readers.get(line, {})),
        )

    def tracked_lines(self) -> dict[str, int]:
        """Lines each table has column slots for (whole 256-line groups)."""
        counts = {RDMA_PAGES: len(self._pages.publish_vc)}
        counts.update((region, len(table.publish_vc)) for region, table in self._watched.items())
        return counts

    def _code(self, name: Optional[str]) -> int:
        if name is None:
            return 0
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    def _unordered_publisher(
        self, table: _LineTable, i: int, actor: Optional[str]
    ) -> Optional[str]:
        """The line's last publisher, when that is another actor and its
        publish is not ordered before ``actor``'s clock; else None."""
        publisher = self._names[table.publisher[i]]
        if publisher is None or publisher == actor or actor is None:
            return None
        published = table.publish_vc[i]
        if published is None or vc_leq(published, self._clock(actor)):
            return None
        return publisher

    def _add_copy(
        self, table: _LineTable, cache: str, region: str, line: int, version: int
    ) -> None:
        copies = table.copies.get(line)
        if copies is None:
            table.copies[line] = {cache: version}
            self._hold(cache, region, line)
            return
        if cache not in copies:
            self._hold(cache, region, line)
        copies[cache] = version

    def _drop_copy(self, table: _LineTable, cache: str, region: str, line: int) -> None:
        copies = table.copies.get(line)
        if copies is not None and cache in copies:
            del copies[cache]
            if not copies:
                del table.copies[line]
            self._unhold(cache, region, line)

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

    def _hold(self, cache: str, region: str, line: int) -> None:
        """``cache`` now holds a copy of the line (index side of a copy
        added for a cache that had none)."""
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
        """Index side of dropping a copy the cache had."""
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
        table = self._watched.get(region)
        if self._internal or table is None or not self._actors:
            return
        actor = self._actors[-1]
        self.accesses_checked += 1
        names = self._names
        for line in line_range(offset, nbytes):
            base = table.groups.get(line >> _GROUP_SHIFT)
            if base is None:
                continue
            i = base + (line & _GROUP_MASK)
            writer = names[table.writer_actor[i]] if table.writer_cache[i] else None
            if writer is not None and writer != actor:
                self._report(
                    "read-write-race",
                    region,
                    line,
                    actor,
                    writer,
                    "raw load while another node holds an unflushed store",
                    "clflush (publish) of the writer's dirty line",
                )
                continue
            publisher = self._unordered_publisher(table, i, actor)
            if publisher is not None:
                self._report(
                    "read-write-race",
                    region,
                    line,
                    actor,
                    publisher,
                    "raw load not ordered after the last publish",
                    "lock handover, invalid-flag read or fusion RPC",
                )

    def raw_store(self, region: str, offset: int, nbytes: int) -> None:
        """Uncached store issued directly against a region: publishes
        every line it covers, a group's worth of column writes at a time."""
        table = self._watched.get(region)
        if self._internal or table is None or not self._actors:
            return
        actor = self._actors[-1]
        self.accesses_checked += 1
        clock = self._clock(actor)
        code = self._code(actor)
        names = self._names
        version, publisher, publish_vc = table.version, table.publisher, table.publish_vc
        writer_actor, writer_cache = table.writer_actor, table.writer_cache
        # One snapshot for every line the store covers (a page is 256).
        published = dict(clock)
        covered = line_range(offset, nbytes)
        first, last = covered[0], covered[-1]
        for group in range(first >> _GROUP_SHIFT, (last >> _GROUP_SHIFT) + 1):
            base = table.groups.get(group)
            if base is None:
                base = table.grow(group)
            low = max(first, group << _GROUP_SHIFT)
            start = base + (low & _GROUP_MASK)
            stop = base + (min(last, group << _GROUP_SHIFT | _GROUP_MASK) & _GROUP_MASK) + 1
            # The last publish seen and whether it is ordered before ``clock``.
            seen: Optional[VectorClock] = None
            ordered = True
            for i in range(start, stop):
                line = low + i - start
                writer = names[writer_actor[i]] if writer_cache[i] else None
                if writer is not None and writer != actor:
                    self._report(
                        "write-write-race",
                        region,
                        line,
                        actor,
                        writer,
                        "raw store while another node holds an unflushed store",
                        "clflush (publish) of the writer's dirty line",
                    )
                elif publisher[i] and publisher[i] != code:
                    snapshot = publish_vc[i]
                    if snapshot is not None and snapshot is not seen:
                        seen, ordered = snapshot, vc_leq(snapshot, clock)
                    if snapshot is not None and not ordered:
                        self._report(
                            "write-write-race",
                            region,
                            line,
                            actor,
                            names[publisher[i]],
                            "raw store not ordered after the last publish",
                            "lock handover, invalid-flag read or fusion RPC",
                        )
                if writer_cache[i]:
                    writer_actor[i] = writer_cache[i] = 0
                version[i] += 1
            publisher[start:stop] = array("i", (code,)) * (stop - start)
            publish_vc[start:stop] = [published] * (stop - start)
        clock[actor] = clock.get(actor, 0) + 1

    # -- CPU-cache accesses (hardware/cache.py) --------------------------

    def cache_load(self, cache: str, region: str, line: int, fetched: bool) -> None:
        """A CPU-cache read: ``fetched`` means it filled from memory."""
        table = self._watched.get(region)
        if table is None:
            return
        # The hottest hook (once per cached access): a hit is this one
        # frame — _ambient and the slot lookup inline.
        actor = self._actors[-1] if self._actors else None
        self.accesses_checked += 1
        base = table.groups.get(line >> _GROUP_SHIFT)
        if base is None:
            base = table.grow(line >> _GROUP_SHIFT)
        i = base + (line & _GROUP_MASK)
        if fetched:
            writer_cache = table.writer_cache[i]
            if writer_cache and self._names[writer_cache] != cache:
                self._report(
                    "read-write-race",
                    region,
                    line,
                    actor,
                    self._names[table.writer_actor[i]],
                    "cache fill while another node holds an unflushed store",
                    "clflush (publish) of the writer's dirty line",
                )
            else:
                publisher = self._unordered_publisher(table, i, actor)
                if publisher is not None:
                    self._report(
                        "read-write-race",
                        region,
                        line,
                        actor,
                        publisher,
                        "cache fill not ordered after the last publish",
                        "invalid-flag store -> flag read, or fusion RPC reply",
                    )
            self._add_copy(table, cache, region, line, table.version[i])
        else:
            copies = table.copies.get(line)
            held = None if copies is None else copies.get(cache)
            if held is None:
                # Copy predates this MemSan install; adopt it as current.
                self._add_copy(table, cache, region, line, table.version[i])
            elif held != DIRTY and held < table.version[i]:
                self._report(
                    "stale-cached-read",
                    region,
                    line,
                    actor,
                    self._names[table.publisher[i]],
                    f"cached serve of version {held} after publish of "
                    f"version {table.version[i]}",
                    "invalid-flag store by the writer, observed before "
                    "this read (reader-side invalidation)",
                )
        if self.check_write_after_read and actor is not None:
            readers = table.readers.get(line)
            if readers is None:
                readers = table.readers[line] = {}
            readers[actor] = dict(self._clock(actor))

    def cache_store(self, cache: str, region: str, line: int) -> None:
        """A CPU-cache write (creates/refreshes a dirty local copy)."""
        table = self._watched.get(region)
        if table is None:
            return
        actor = self._ambient()
        self.accesses_checked += 1
        i = table.slot(line)
        writer_cache = table.writer_cache[i]
        if writer_cache and self._names[writer_cache] != cache:
            self._report(
                "write-write-race",
                region,
                line,
                actor,
                self._names[table.writer_actor[i]],
                "store while another node holds an unflushed store",
                "page write-lock handover (flush before release)",
            )
        else:
            publisher = self._unordered_publisher(table, i, actor)
            if publisher is not None:
                self._report(
                    "write-write-race",
                    region,
                    line,
                    actor,
                    publisher,
                    "store not ordered after the last publish",
                    "page write-lock handover or invalid-flag read",
                )
        readers = table.readers.get(line) if self.check_write_after_read else None
        if actor is not None and readers:
            clock = self._clock(actor)
            for reader, snapshot in readers.items():
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
        table.writer_actor[i] = self._code(actor)
        table.writer_cache[i] = self._code(cache)
        self._add_copy(table, cache, region, line, DIRTY)

    def cache_flush_line(self, cache: str, region: str, line: int, dirty: bool) -> None:
        """``clflush`` / dirty eviction: publish and drop the local copy."""
        table = self._watched.get(region)
        if table is None:
            return
        if not dirty:
            self._drop_copy(table, cache, region, line)
            return
        actor = self._ambient()
        i = table.slot(line)
        table.version[i] += 1
        table.publisher[i] = self._code(actor)
        if actor is not None:
            clock = self._clock(actor)
            table.publish_vc[i] = dict(clock)
            clock[actor] = clock.get(actor, 0) + 1
        else:
            table.publish_vc[i] = None
        writer_cache = table.writer_cache[i]
        if writer_cache and self._names[writer_cache] == cache:
            table.clean(i)
        self._drop_copy(table, cache, region, line)
        table.readers.pop(line, None)

    def cache_invalidate_line(self, cache: str, region: str, line: int) -> None:
        """Line dropped without writeback (reader-side invalidation)."""
        table = self._watched.get(region)
        if table is None:
            return
        base = table.groups.get(line >> _GROUP_SHIFT)
        if base is None:
            return
        self._drop_copy(table, cache, region, line)
        i = base + (line & _GROUP_MASK)
        writer_cache = table.writer_cache[i]
        if writer_cache and self._names[writer_cache] == cache:
            table.clean(i)

    def cache_dropped(self, cache: str) -> None:
        """The whole cache vanished (host crash / ``drop_all``)."""
        code = self._codes.get(cache)
        for (region, group), lines in self._held.pop(cache, {}).items():
            table = self._watched.get(region, self._pages)
            base = table.groups[group]
            for line in lines:
                copies = table.copies[line]
                del copies[cache]
                if not copies:
                    del table.copies[line]
                i = base + (line & _GROUP_MASK)
                if table.writer_cache[i] == code:
                    table.clean(i)

    def assert_flushed(self, cache: str, region: str, offset: int, nbytes: int) -> None:
        """Write-lock release discipline: no dirty line may survive the
        pre-release flush of its page (seeded mutation 1)."""
        table = self._watched.get(region)
        if table is None:
            return
        actor = self._ambient()
        code = self._codes.get(cache)
        for line in self._held_lines(cache, region, offset, nbytes):
            i = table.slot(line)
            if table.writer_cache[i] == code:
                self._report(
                    "unflushed-write-at-release",
                    region,
                    line,
                    actor,
                    self._names[table.writer_actor[i]],
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
        table = self._watched.get(region)
        if table is None:
            return
        actor = self._ambient()
        for line in self._held_lines(cache, region, offset, nbytes):
            held = table.copies[line][cache]
            i = table.slot(line)
            if held != DIRTY and held < table.version[i]:
                self._report(
                    "cleared-flag-before-invalidate",
                    region,
                    line,
                    actor,
                    self._names[table.publisher[i]],
                    f"invalid flag cleared while the cache still holds "
                    f"version {held} (memory is at {table.version[i]})",
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
        dead node did).

        Only the dead actor's dirty lines are visited: each is found by
        searching its code in the writer column (the RDMA page space has
        no writers unless it is watched)."""
        code = self._codes.get(actor)
        if code is not None:
            for table in self._watched.values():
                writers = table.writer_actor
                i = 0
                while True:
                    try:
                        i = writers.index(code, i)
                    except ValueError:
                        break
                    table.clean(i)
                    i += 1
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
        table = self._pages
        i = table.slot(page_id)
        self._add_copy(table, node, RDMA_PAGES, page_id, table.version[i])

    def page_cached_read(self, node: str, page_id: int) -> None:
        self.accesses_checked += 1
        table = self._pages
        i = table.slot(page_id)
        copies = table.copies.get(page_id)
        held = None if copies is None else copies.get(node)
        if held is None:
            self._add_copy(table, node, RDMA_PAGES, page_id, table.version[i])
        elif held < table.version[i]:
            self._report(
                "stale-page-read",
                RDMA_PAGES,
                page_id,
                node,
                self._names[table.publisher[i]],
                f"local frame serves version {held} after publish of "
                f"version {table.version[i]}",
                "invalidation message from the writer's release",
            )

    def page_publish(self, node: str, page_id: int) -> None:
        self.accesses_checked += 1
        table = self._pages
        i = table.slot(page_id)
        table.version[i] += 1
        table.publisher[i] = self._code(node)
        self._add_copy(table, node, RDMA_PAGES, page_id, table.version[i])

    def page_dropped(self, node: str, page_id: int) -> None:
        self._drop_copy(self._pages, node, RDMA_PAGES, page_id)

    # -- install protocol ------------------------------------------------

    def __enter__(self) -> "MemSan":
        return PROBES.install("memsan", self)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        PROBES.uninstall("memsan", self)
