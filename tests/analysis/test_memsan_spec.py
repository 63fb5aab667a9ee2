"""MemSan's line tables against a naive executable spec of its model.

``SpecMemSan`` below is the detector's per-line model written the plain
way: one dict per touched line in a dict keyed by ``(region, line)``,
no held-lines index, no columns, no fast paths — the per-page checks
and a crash scan every line. A hypothesis state machine drives it and
the real :class:`~repro.analysis.memsan.MemSan` through the same hook
calls (raw and cached accesses, flushes, invalidations, dropped caches,
both per-page checks, flags, locks, RPCs, crashes and the four RDMA
page hooks), with write-after-read checks on and off and a small report
cap, and after every step requires equal reports in order, equal
``reports_dropped`` / ``accesses_checked`` and an equal state for every
touched line, read through :meth:`MemSan.line_state`. A size guard pins
what a tracked line costs.
"""

import gc
import tracemalloc
from contextlib import contextmanager

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.analysis.memsan import (
    DIRTY,
    RDMA_PAGES,
    MemSan,
    RaceReport,
    line_range,
    vc_join,
    vc_leq,
)

FIELDS = ("version", "publisher", "publish_vc", "dirty", "writer_actor", "writer_cache")
UNFLUSHED = "clflush (publish) of the writer's dirty line"
RAW_EDGES = (UNFLUSHED, "lock handover, invalid-flag read or fusion RPC")
FILL_EDGES = (UNFLUSHED, "invalid-flag store -> flag read, or fusion RPC reply")
STORE_EDGES = (
    "page write-lock handover (flush before release)",
    "page write-lock handover or invalid-flag read",
)
STALE_EDGE = (
    "invalid-flag store by the writer, observed before this read (reader-side invalidation)"
)


class SpecMemSan:
    """MemSan's semantics, spelt out over a dict of per-line dicts."""

    def __init__(self, *, check_write_after_read=False, max_reports=64):
        self.check_war, self.max_reports = check_write_after_read, max_reports
        self.reports, self.reports_dropped, self.accesses_checked = [], 0, 0
        self.watched, self.lines, self.clocks, self.sync, self.actors = set(), {}, {}, {}, []

    def watch_region(self, name):
        self.watched.add(name)

    @contextmanager
    def actor(self, name):
        self.actors.append(name)
        yield
        self.actors.pop()

    def line(self, region, line):
        return self.lines.setdefault((region, line), {
            "version": 0, "publisher": None, "publish_vc": None, "dirty": False,
            "writer_actor": None, "writer_cache": None, "cached": {}, "readers": {}})

    def ambient(self):
        return self.actors[-1] if self.actors else None

    def clock(self, actor):
        return self.clocks.setdefault(actor, {actor: 1})

    def edge(self, actor, acquire, *key):
        """One side of a sync object's release -> acquire edge."""
        if actor is not None and acquire and self.sync.get(key):
            vc_join(self.clock(actor), self.sync[key])
        elif actor is not None and not acquire:
            vc_join(self.sync.setdefault(key, {}), self.clock(actor))
            self.clock(actor)[actor] += 1

    def report(self, rule, region, line, actor, other, detail, edge):
        if len(self.reports) >= self.max_reports:
            self.reports_dropped += 1
        else:
            self.reports.append(RaceReport(rule, region, line, actor, other, detail, edge))

    def conflict(self, s, rule, region, line, actor, dirty, what, edges):
        """Another writer's unflushed store, else a publish not ordered before ``actor``."""
        if dirty:
            self.report(rule, region, line, actor, s["writer_actor"],
                        f"{what} while another node holds an unflushed store", edges[0])
        elif (s["publisher"] not in (None, actor) and s["publish_vc"] is not None
              and actor is not None and not vc_leq(s["publish_vc"], self.clock(actor))):
            self.report(rule, region, line, actor, s["publisher"],
                        f"{what} not ordered after the last publish", edges[1])

    def clean(self, s):
        s["dirty"], s["writer_actor"], s["writer_cache"] = False, None, None

    def raw(self, region, offset, nbytes, verb, rule):
        if region not in self.watched or not self.actors:
            return None
        actor = self.actors[-1]
        self.accesses_checked += 1
        for line in line_range(offset, nbytes):
            if verb == "raw store" or (region, line) in self.lines:
                s = self.line(region, line)
                dirty = s["dirty"] and s["writer_actor"] not in (None, actor)
                self.conflict(s, rule, region, line, actor, dirty, verb, RAW_EDGES)
        return actor

    def raw_load(self, region, offset, nbytes):
        self.raw(region, offset, nbytes, "raw load", "read-write-race")

    def raw_store(self, region, offset, nbytes):
        actor = self.raw(region, offset, nbytes, "raw store", "write-write-race")
        if actor is not None:
            published = dict(self.clock(actor))
            for line in line_range(offset, nbytes):
                s = self.line(region, line)
                s["version"], s["publisher"], s["publish_vc"] = s["version"] + 1, actor, published
                self.clean(s)
            self.clock(actor)[actor] += 1

    def cache_load(self, cache, region, line, fetched):
        if region not in self.watched:
            return
        actor, s = self.ambient(), self.line(region, line)
        self.accesses_checked += 1
        if fetched:
            dirty = s["dirty"] and s["writer_cache"] != cache
            self.conflict(s, "read-write-race", region, line, actor, dirty, "cache fill",
                          FILL_EDGES)
            s["cached"][cache] = s["version"]
        elif DIRTY != s["cached"].setdefault(cache, s["version"]) < s["version"]:
            self.report("stale-cached-read", region, line, actor, s["publisher"],
                        f"cached serve of version {s['cached'][cache]} after publish of "
                        f"version {s['version']}", STALE_EDGE)
        if self.check_war and actor is not None:
            s["readers"][actor] = dict(self.clock(actor))

    def cache_store(self, cache, region, line):
        if region not in self.watched:
            return
        actor, s = self.ambient(), self.line(region, line)
        self.accesses_checked += 1
        dirty = s["dirty"] and s["writer_cache"] != cache
        self.conflict(s, "write-write-race", region, line, actor, dirty, "store", STORE_EDGES)
        for reader, snapshot in s["readers"].items() if self.check_war and actor else ():
            if reader != actor and not vc_leq(snapshot, self.clock(actor)):
                self.report("write-after-read-race", region, line, actor, reader,
                            "store not ordered after a concurrent read",
                            "page lock covering the reader's access")
        s["dirty"], s["writer_actor"], s["writer_cache"] = True, actor, cache
        s["cached"][cache] = DIRTY

    def cache_flush_line(self, cache, region, line, dirty):
        if region not in self.watched or not (dirty or (region, line) in self.lines):
            return
        s, actor = self.line(region, line), self.ambient()
        if dirty:
            s["version"], s["publisher"] = s["version"] + 1, actor
            s["publish_vc"] = None if actor is None else dict(self.clock(actor))
            if actor is not None:
                self.clock(actor)[actor] += 1
            if s["writer_cache"] == cache:
                self.clean(s)
            s["readers"].clear()
        s["cached"].pop(cache, None)

    def cache_invalidate_line(self, cache, region, line):
        s = self.lines.get((region, line)) if region in self.watched else None
        if s is not None:
            s["cached"].pop(cache, None)
            if s["writer_cache"] == cache:
                self.clean(s)

    def cache_dropped(self, cache):
        for s in self.lines.values():
            if s["cached"].pop(cache, None) is not None and s["writer_cache"] == cache:
                self.clean(s)

    def held(self, cache, region, offset, nbytes):
        """The range's lines that ``cache`` holds: a per-page check's scan."""
        for line in line_range(offset, nbytes) if region in self.watched else ():
            if cache in self.lines.get((region, line), {"cached": ()})["cached"]:
                yield line, self.lines[region, line]

    def assert_flushed(self, cache, region, offset, nbytes):
        for line, s in self.held(cache, region, offset, nbytes):
            if s["dirty"] and s["writer_cache"] == cache:
                self.report("unflushed-write-at-release", region, line, self.ambient(),
                            s["writer_actor"], "write lock released while the page still "
                            "holds an unflushed dirty line",
                            "clflush of dirty lines before on_write_release")

    def invalid_cleared(self, cache, region, offset, nbytes):
        for line, s in self.held(cache, region, offset, nbytes):
            if DIRTY != s["cached"][cache] < s["version"]:
                self.report("cleared-flag-before-invalidate", region, line, self.ambient(),
                            s["publisher"], f"invalid flag cleared while the cache still holds "
                            f"version {s['cached'][cache]} (memory is at {s['version']})",
                            "CPU-cache invalidation before clearing the invalid flag")

    # The sync hooks: each is one side of an edge.
    def flag_store(self, region, addr, value):
        self.edge(self.ambient(), False, "flag", region, str(addr))
    def flag_read(self, region, addr, value):
        self.edge(self.ambient() if value else None, True, "flag", region, str(addr))
    def lock_acquired(self, actor, lock_id):
        self.edge(actor, True, "lock", str(lock_id))
    def lock_released(self, actor, lock_id):
        self.edge(actor, False, "lock", str(lock_id))
    def lock_force_released(self, lock_id):
        self.edge(self.ambient(), False, "lock", str(lock_id))
    def rpc_acquire(self, service):
        self.edge(self.ambient(), True, "rpc", service)
    def rpc_release(self, service):
        self.edge(self.ambient(), False, "rpc", service)

    def actor_crashed(self, actor, inheritor=None):
        for s in self.lines.values():
            if s["writer_actor"] == actor:
                self.clean(s)
        if inheritor is not None:
            vc_join(self.clock(inheritor), self.clock(actor))

    # The RDMA baseline: page versions only; a node's frame is its copy.
    def page_fetch(self, node, page_id):
        self.accesses_checked += 1
        s = self.line(RDMA_PAGES, page_id)
        s["cached"][node] = s["version"]

    def page_publish(self, node, page_id):
        self.accesses_checked += 1
        s = self.line(RDMA_PAGES, page_id)
        s["version"] += 1
        s["publisher"], s["cached"][node] = node, s["version"]

    def page_cached_read(self, node, page_id):
        self.accesses_checked += 1
        s = self.line(RDMA_PAGES, page_id)
        if s["cached"].setdefault(node, s["version"]) < s["version"]:
            self.report("stale-page-read", RDMA_PAGES, page_id, node, s["publisher"],
                        f"local frame serves version {s['cached'][node]} after publish of "
                        f"version {s['version']}", "invalidation message from the writer's release")

    def page_dropped(self, node, page_id):
        if (RDMA_PAGES, page_id) in self.lines:
            self.lines[RDMA_PAGES, page_id]["cached"].pop(node, None)


# -- the state machine -------------------------------------------------------

REGION = "cxl.spec"
PAGE = 256 * 64
ACTORS = ("n0", "n1", "n2")
CACHES = ("n0$", "n1$", "n2$")
who = st.sampled_from((None, *ACTORS))  # None: no ambient actor
actors = st.sampled_from(ACTORS)
caches = st.sampled_from(CACHES)
# Hot lines on three groups, at both ends of a group, so copies collide.
lines = st.sampled_from((0, 3, 255, 256, 259, 511, 512, 700))
regions = st.sampled_from((REGION, REGION, "other.region"))
ranges = st.one_of(
    st.builds(lambda page: (page * PAGE, PAGE), st.integers(0, 2)),  # a whole page
    st.builds(lambda line, n: (line * 64 + 5, n), lines, st.sampled_from((0, 1, 60, 200, 4000))),
)
pages = st.integers(0, 3)


class MemSanAgainstSpec(RuleBasedStateMachine):
    """Every hook on both; after each step the two must be indistinguishable."""

    @initialize(war=st.booleans(), cap=st.integers(0, 3))
    def start(self, war, cap):
        self.real = MemSan(check_write_after_read=war, max_reports=cap)
        self.spec = SpecMemSan(check_write_after_read=war, max_reports=cap)
        self.both("watch_region", REGION)

    def both(self, hook, *args, actor=None):
        for ms in (self.real, self.spec):
            if actor is None:
                getattr(ms, hook)(*args)
            else:
                with ms.actor(actor):
                    getattr(ms, hook)(*args)

    @rule(actor=actors, region=regions, line=lines, n=st.sampled_from((0, 1, 70, PAGE)))
    def raw_load(self, actor, region, line, n):
        self.both("raw_load", region, line * 64 + 8, n, actor=actor)

    @rule(actor=actors, region=regions, line=lines, n=st.sampled_from((0, 1, 70, PAGE)))
    def raw_store(self, actor, region, line, n):
        self.both("raw_store", region, line * 64 + 8, n, actor=actor)

    @rule(region=regions, line=lines)
    def raw_store_without_an_actor(self, region, line):
        self.both("raw_store", region, line * 64, 64)

    @rule(actor=who, cache=caches, region=regions, line=lines, fetched=st.booleans())
    def cache_load(self, actor, cache, region, line, fetched):
        self.both("cache_load", cache, region, line, fetched, actor=actor)

    @rule(actor=who, cache=caches, region=regions, line=lines)
    def cache_store(self, actor, cache, region, line):
        self.both("cache_store", cache, region, line, actor=actor)

    @rule(actor=who, cache=caches, line=lines, dirty=st.booleans())
    def cache_flush_line(self, actor, cache, line, dirty):
        self.both("cache_flush_line", cache, REGION, line, dirty, actor=actor)

    @rule(cache=caches, line=lines)
    def cache_invalidate_line(self, cache, line):
        self.both("cache_invalidate_line", cache, REGION, line)

    @rule(cache=caches)
    def cache_dropped(self, cache):
        self.both("cache_dropped", cache)

    @rule(actor=who, cache=caches, span=ranges, check=st.sampled_from(
        ("assert_flushed", "invalid_cleared")))
    def page_check(self, actor, cache, span, check):
        self.both(check, cache, REGION, *span, actor=actor)

    @rule(actor=who, addr=st.integers(0, 1), value=st.booleans(), store=st.booleans())
    def flag(self, actor, addr, value, store):
        self.both("flag_store" if store else "flag_read", REGION, addr, value, actor=actor)

    @rule(actor=actors, lock=st.integers(0, 1), acquire=st.booleans())
    def lock(self, actor, lock, acquire):
        self.both("lock_acquired" if acquire else "lock_released", actor, lock)

    @rule(actor=who, lock=st.integers(0, 1))
    def lock_force_released(self, actor, lock):
        self.both("lock_force_released", lock, actor=actor)

    @rule(actor=who, acquire=st.booleans())
    def rpc(self, actor, acquire):
        self.both("rpc_acquire" if acquire else "rpc_release", "fusion", actor=actor)

    @rule(actor=actors, inheritor=st.sampled_from((None, "failover", *ACTORS)))
    def actor_crashed(self, actor, inheritor):
        self.both("actor_crashed", actor, inheritor)

    @rule(node=actors, page=pages, hook=st.sampled_from(
        ("page_fetch", "page_cached_read", "page_publish", "page_dropped")))
    def rdma_page(self, node, page, hook):
        self.both(hook, node, page)

    @invariant()
    def indistinguishable(self):
        real, spec = self.real, self.spec
        assert real.reports == spec.reports
        assert (real.reports_dropped, real.accesses_checked) == (
            spec.reports_dropped, spec.accesses_checked)
        for (region, line), expected in spec.lines.items():
            state = real.line_state(region, line)
            assert {name: getattr(state, name) for name in FIELDS} == {
                name: expected[name] for name in FIELDS}, (region, line)
            assert (state.cached, state.readers) == (expected["cached"], expected["readers"])


MemSanAgainstSpec.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_memsan_equals_the_spec = MemSanAgainstSpec.TestCase


# -- the size guard ------------------------------------------------------------


def test_a_tracked_line_costs_at_most_48_bytes():
    """Raw-store 50,176 lines a 256-line page at a time, then fill and
    clean-flush 5,000 of them: what the detector keeps per tracked line
    is its column slots (an object per line cost ≈ 313 B).
    The flushes are clean, so no publish snapshot is taken: a dirty
    flush's clock snapshot is the model's state, not the table's."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ms = MemSan()
        ms.watch_region(REGION)
        with ms.actor("n0"):
            for page in range(196):
                ms.raw_store(REGION, page * PAGE, PAGE)
            for line in range(0, 50_000, 10):
                ms.cache_load("n0$", REGION, line, fetched=True)
                ms.cache_flush_line("n0$", REGION, line, dirty=False)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ms.accesses_checked == 196 + 5_000
    assert ms.tracked_lines()[REGION] == 196 * 256
    assert retained / (196 * 256) <= 48, f"{retained / (196 * 256):.1f} B per line"
