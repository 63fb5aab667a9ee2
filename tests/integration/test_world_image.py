"""World images: a clone is indistinguishable from a fresh build.

The differential is structural: two worlds are walked attribute by
attribute (every object's ``vars()`` and slots, every container, region
bytes included), so a field added to any component without snapshot
support shows up as a difference between the fresh world and the
restored one. The only attributes skipped are the pure memos in
``_MEMOS``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import mmap
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import types

import pytest

from repro.analysis.checked import CheckedRun
from repro.analysis.memsan import MemSan
from repro.bench.harness import counter_snapshot
from repro.obs.image import IMAGE_BOUND, IMAGES
from repro.faults import sweep
from repro.faults.injector import FaultInjector
from repro.hardware.host import Host
from repro.hardware.memory import TransferCharge
from repro.obs import Tracer
from repro.obs.world import build_pooling_setup, build_sharing_setup
from repro.parallel.__main__ import main as parallel_main
from repro.parallel.stress import run_sharing_stress
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

from ..conftest import swap_durable_records

SEED = 7

#: (class name, attribute): lazily filled lookup tables whose contents
#: are a function of their keys alone. A fresh pool's format fills its
#: ``BlockMeta`` windows; a restored pool, never formatted, fills them
#: as it reads.
_MEMOS = {("LatencyTable", "_cache"), ("CxlBufferPool", "_meta_cache")}

_ATOMS = (type(None), bool, int, str, bytes, type, types.FunctionType, types.BuiltinFunctionType)
_MUTABLE = (dict, list, set, bytearray, mmap.mmap)


@pytest.fixture(autouse=True)
def cold_cache():
    IMAGES.clear()
    yield
    IMAGES.clear()


def _attributes(obj) -> dict:
    found = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                found[name] = getattr(obj, name)
    return found


def _differences(a, b, path: str, seen: set, out: list) -> None:
    """Append to ``out`` every place the object graphs under ``a`` and
    ``b`` differ, and every mutable container the two share."""
    if type(a) is not type(b):
        out.append(f"{path}: {type(a).__name__} != {type(b).__name__}")
        return
    if a is b:
        # A shared object is a constant (a codec, a config) unless it is
        # a container someone can write through.
        if isinstance(a, _MUTABLE):
            out.append(f"{path}: one {type(a).__name__} shared by both worlds")
        return
    if isinstance(a, _ATOMS):
        if a != b:
            out.append(f"{path}: {a!r} != {b!r}")
        return
    if isinstance(a, float):
        if a.hex() != b.hex():
            out.append(f"{path}: {a.hex()} != {b.hex()}")
        return
    if isinstance(a, (mmap.mmap, bytearray)):
        if bytes(a) != bytes(b):
            out.append(f"{path}: buffer contents differ")
        return
    if isinstance(a, struct.Struct):
        if a.format != b.format:
            out.append(f"{path}: {a.format} != {b.format}")
        return
    if (id(a), id(b)) in seen:
        return
    seen.add((id(a), id(b)))
    if isinstance(a, dict):
        if list(a) != list(b):  # same keys in the same order (LRUs are ordered)
            out.append(f"{path}: keys differ: {list(a)[:6]} != {list(b)[:6]}")
            return
        for key in a:
            _differences(a[key], b[key], f"{path}[{key!r}]", seen, out)
    elif isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for index, (x, y) in enumerate(zip(a, b)):
            _differences(x, y, f"{path}[{index}]", seen, out)
    elif isinstance(a, (set, frozenset)):
        if a != b:
            out.append(f"{path}: {sorted(a)[:6]} != {sorted(b)[:6]}")
    elif isinstance(a, types.MethodType):
        _differences(a.__func__, b.__func__, f"{path}.__func__", seen, out)
        _differences(a.__self__, b.__self__, f"{path}.__self__", seen, out)
    else:
        attrs_a, attrs_b = _attributes(a), _attributes(b)
        if attrs_a.keys() != attrs_b.keys():
            out.append(f"{path}: attributes {sorted(attrs_a)} != {sorted(attrs_b)}")
            return
        if not attrs_a and a != b:
            out.append(f"{path}: {a!r} != {b!r}")
        for name in attrs_a:
            if (type(a).__name__, name) not in _MEMOS:
                _differences(attrs_a[name], attrs_b[name], f"{path}.{name}", seen, out)


def assert_same_world(a, b) -> None:
    out: list = []
    _differences(a, b, "world", set(), out)
    assert not out, "\n".join(out[:20])


def _pristine():
    """A baseline scenario that never touched the image cache."""
    scenario = sweep._build_scenario()
    return scenario, sweep._setup_baseline(scenario)


def _baseline(seed: int = SEED):
    """A baseline scenario through the image cache, and its model."""
    scenario = sweep._build_scenario()
    return scenario, sweep._roll_to(scenario, seed, 0).model


def _uninjected_workload(scenario, model, seed: int = SEED) -> dict:
    work = sweep._Workload(0, model, random.Random(seed), sweep._BASE_ROWS + 1)
    sweep._run_workload(scenario, work)
    return work.model


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- (a) fresh == restored, before and after the workload ----------------------


def test_walker_sees_a_one_byte_and_a_one_counter_difference():
    left, _ = _pristine()
    right, _ = _pristine()
    assert_same_world(left, right)
    right.manager.region.write(12345, b"\x01")
    right.engine.buffer_pool.hits += 1
    out: list = []
    _differences(left, right, "world", set(), out)
    assert len(out) == 2 and any("buffer contents" in line for line in out)


def test_restored_scenario_equals_a_fresh_one_before_and_after_the_workload():
    fresh, fresh_model = _pristine()
    built, built_model = _baseline()  # builds and keeps the image
    restored, restored_model = _baseline()  # restores it
    assert len(IMAGES) == 1
    assert fresh_model == built_model == restored_model
    assert_same_world(fresh, built)
    assert_same_world(fresh, restored)

    models = [
        _uninjected_workload(scenario, model)
        for scenario, model in ((fresh, fresh_model), (restored, restored_model))
    ]
    assert models[0] == models[1]
    assert_same_world(fresh, restored)
    assert fresh.engine.meter.ns.hex() == restored.engine.meter.ns.hex()


# -- (b) no aliasing through shared pages, extents or dicts --------------------


def test_a_crashed_clone_leaves_the_image_and_its_siblings_pristine():
    golden = sweep._golden_run(SEED)
    first, first_model = _baseline()
    _uninjected_workload(first, first_model)  # the world the image was taken from
    point, hit = golden.trace[len(golden.trace) // 2]
    outcome = sweep._crash_and_recover(SEED, point, hit, golden)  # a clone
    assert outcome.ok, outcome.detail
    sibling, sibling_model = _baseline()
    fresh, fresh_model = _pristine()
    assert sibling_model == fresh_model
    assert_same_world(fresh, sibling)


def test_a_restored_world_is_never_formatted_and_a_cold_baseline_formats_once(monkeypatch):
    """Every world the single-node sweeps restore — a coordinate's
    baseline or boundary, a boundary roll-forward's start, the crashed
    prefix — reaches the restore unformatted and unwritten: no pool
    format, no metered memory access, no marked extent. The one format
    is the cold baseline build's."""
    from repro.core.cxl_bufferpool import CxlBufferPool

    formats = []
    format_pool = CxlBufferPool.format
    monkeypatch.setattr(
        CxlBufferPool, "format", lambda pool: (formats.append(pool), format_pool(pool))[1]
    )
    entered = []
    materialize = sweep.materialize

    def checking_materialize(key, parts, build):
        if "manager" in parts:
            meter = parts["store"].meter
            entered.append(key[0])
            # Wiring charged the extent's allocation RPC and nothing else.
            assert (meter.counters, meter.transfers) == ({"cxl_alloc_rpcs": 1.0}, [])
            assert not any(parts["manager"].region._written)
        return materialize(key, parts, build)

    monkeypatch.setattr(sweep, "materialize", checking_materialize)
    sweep.sweep_workload_points(seed=SEED, limit=6).raise_for_failures()
    sweep.sweep_recovery_points(seed=SEED, limit=2).raise_for_failures()
    assert len(formats) == 1  # the golden run's baseline, built cold
    assert {"sweep.baseline", "sweep.boundary", "sweep.crashed"} <= set(entered)
    assert entered.count("sweep.baseline") > 1  # the rest restored it


def test_dataset_clones_do_not_share_pages_with_each_other():
    workload = SysbenchWorkload(rows=200, n_nodes=2)
    first = build_sharing_setup("cxl", 2, workload)
    pages = dict(first.page_store._pages)
    first.page_store.write_page(1, b"\xee" * first.page_store.page_size)
    second = build_sharing_setup("cxl", 2, workload)
    assert second.page_store._pages == pages
    assert second.page_store._pages is not first.page_store._pages


# -- (b2) sweeps resume from prefix images: same world as replaying the prefix --

#: Seed 7 plus two seeds no other test or benchmark uses.
_DIFFERENTIAL_SEEDS = (SEED, 9101, 9102)


def _crash_at(seed, golden, point, hit):
    """A scenario crashed at (point, hit) the way a coordinate does it,
    power-cycled; and the injector that crashed it."""
    scenario = sweep._build_scenario()
    work, injector = sweep._roll_before(scenario, seed, golden, point, hit)
    with CheckedRun(spans=True, metrics=True) as run:
        assert sweep._crash_workload(run, scenario, work, injector)
    run.check(allow_abandoned=True)
    return scenario, injector


@pytest.mark.parametrize("seed", _DIFFERENTIAL_SEEDS)
def test_every_coordinate_from_its_boundary_equals_the_whole_prefix_replayed(seed):
    golden = sweep._golden_run(seed)
    assert len(golden.starts) == sweep._WORKLOAD_TXNS and golden.starts[0] == 0
    # With one boundary, at 0, the same code replays the whole prefix
    # from the baseline under the armed injector: the parent's path.
    whole = dataclasses.replace(golden, starts=[0])
    boundaries = set()
    for point, hit in sweep._select_hits(golden.trace, 2):
        resumed, injector = _crash_at(seed, golden, point, hit)
        replayed, reference = _crash_at(seed, whole, point, hit)
        assert_same_world(resumed, replayed)
        assert injector.fired == reference.fired == (point, hit)
        assert injector.hits == reference.hits
        assert injector._total_hits == reference._total_hits == len(reference.trace)
        assert injector.trace == reference.trace[-len(injector.trace) :]
        boundaries.add(len(reference.trace) - len(injector.trace))
        assert_same_world(sweep._recover(resumed), sweep._recover(replayed))
        assert sweep._crash_and_recover(seed, point, hit, golden) == (
            sweep._crash_and_recover(seed, point, hit, whole)
        )
    # The coordinates really did start at different boundaries, all of
    # them places where the golden run began a transaction.
    assert len(boundaries) > 2 and boundaries <= set(golden.starts)
    # Nothing a sweep compares or reports reads the process-global
    # transaction counter, which no image holds: it ran on regardless.
    assert "txn_id" not in sweep.report_to_json(sweep.sweep_workload_points(seed=seed, limit=2))


@pytest.mark.parametrize("seed", _DIFFERENTIAL_SEEDS)
def test_restored_crashed_prefix_equals_the_fresh_one_before_and_after_recovery(seed):
    golden = sweep._golden_run(seed)
    fresh = sweep._crashed_scenario(seed, golden)  # runs the first crash, keeps the image
    assert [key for key in IMAGES if key[0] == "sweep.crashed"] == [("sweep.crashed", seed)]
    restored = sweep._crashed_scenario(seed, golden)
    assert restored.engine.crashed and fresh.engine.crashed

    def surviving(scenario):
        return {name: scenario.parts[name].snapshot() for name in sweep._SURVIVORS}

    assert_same_world(surviving(fresh), surviving(restored))
    engines = [sweep._recover(scenario) for scenario in (fresh, restored)]
    assert_same_world(*engines)  # region bytes, store, redo, meter, pool
    assert_same_world(surviving(fresh), surviving(restored))
    assert sweep._read_contents(engines[0]) == sweep._read_contents(engines[1])
    # A sibling sees the image, not what recovery did to the last clone.
    sibling = sweep._crashed_scenario(seed, golden)
    pristine_image = IMAGES[("sweep.crashed", seed)][0]
    assert_same_world(surviving(sibling), dict(pristine_image))


def test_a_sibling_coordinate_restores_a_pristine_boundary_image():
    golden = sweep._golden_run(SEED)
    point, hit = golden.trace[-1]
    txn = sweep._WORKLOAD_TXNS - 1

    def at_boundary():
        scenario = sweep._build_scenario()
        return scenario, sweep._roll_to(scenario, SEED, txn)

    built, built_work = at_boundary()  # rolls forward from the baseline, keeps the image
    first, first_work = at_boundary()  # restores it
    assert_same_world((built, built_work.model), (first, first_work.model))
    assert sweep._crash_and_recover(SEED, point, hit, golden).ok  # crashes a clone of it
    again, again_work = at_boundary()
    assert_same_world((first, first_work.model), (again, again_work.model))
    assert first_work.rng.getstate() == again_work.rng.getstate() == built_work.rng.getstate()
    assert (first_work.txn, first_work.next_key) == (again_work.txn, again_work.next_key)
    assert first_work.model is not again_work.model  # private copies


@pytest.mark.parametrize("run", [sweep.sweep_workload_points, sweep.sweep_recovery_points])
def test_one_late_coordinate_alone_equals_its_entry_in_the_full_report(run):
    full = run(seed=9101)
    full.raise_for_failures()
    # The workload sweep's latest coordinate in trace order sits in the
    # last transaction; any recovery coordinate needs the whole first crash.
    reached = sweep._golden_run(9101).trace
    entry = max(full.outcomes, key=lambda o: reached.index((o.point, o.hit)) if (o.point, o.hit) in reached else 0)
    IMAGES.clear()  # no baseline, no golden, no boundary: the lone unit rolls from nothing
    (alone,) = run(seed=9101, only=(entry.point, entry.hit)).outcomes
    assert alone == entry and alone.ok


# -- (b3) image lifetime: one live image per sweep, none after it ------------------


def _live(kind):
    return [key for key in IMAGES if key[0] == kind]


def test_at_most_one_boundary_and_one_crashed_image_live_and_none_outlives_its_sweep(
    monkeypatch,
):
    recover = sweep._recover
    seen = {"sweep.boundary": [], "sweep.crashed": []}

    def counting_recover(scenario):
        for kind, counts in seen.items():
            counts.append(len(_live(kind)))
        return recover(scenario)

    monkeypatch.setattr(sweep, "_recover", counting_recover)
    for seed in range(200, 220):
        sweep.sweep_workload_points(seed=seed, limit=6).raise_for_failures()
        assert _live("sweep.boundary") == []
        sweep.sweep_recovery_points(seed=seed, limit=3).raise_for_failures()
        assert _live("sweep.boundary") == _live("sweep.crashed") == []
        assert len(IMAGES) <= IMAGE_BOUND
    # Coordinates inside transaction 0 start from the baseline, the rest
    # from the one boundary image; every recovery of a re-entrancy sweep
    # (the golden one and two per unit) runs beside the one crashed image.
    assert set(seen["sweep.boundary"]) == {0, 1}
    assert set(seen["sweep.crashed"]) == {0, 1}
    assert seen["sweep.crashed"].count(1) == 20 * (1 + 2 * 3)


@pytest.mark.parametrize("run", [sweep.sweep_workload_points, sweep.sweep_recovery_points])
def test_a_sweep_that_dies_in_a_unit_leaves_no_live_image(monkeypatch, run):
    class Interrupt(BaseException):
        """Not an ``Exception``: the unit runner lets it through."""

    recover, calls = sweep._recover, []

    def dying_recover(scenario):
        calls.append(1)
        if len(calls) > 3 and (_live("sweep.boundary") or _live("sweep.crashed")):
            raise Interrupt
        return recover(scenario)

    monkeypatch.setattr(sweep, "_recover", dying_recover)
    with pytest.raises(Interrupt):
        run(seed=SEED)
    assert _live("sweep.boundary") == _live("sweep.crashed") == []


def test_forty_seeds_of_both_sweeps_stay_within_the_parents_memory():
    """``ru_maxrss`` growth over a fresh interpreter's import baseline,
    after forty seeds of both single-node sweeps. At the parent commit
    (eight per-seed baseline images, no live image) it read 24.0 MB on
    the reference box; one shared baseline plus one live image reads
    18.0 MB."""
    script = (
        "import resource\n"
        "from repro.faults.sweep import sweep_recovery_points, sweep_workload_points\n"
        "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "base = rss()\n"
        "for seed in range(300, 340):\n"
        "    sweep_workload_points(seed=seed).raise_for_failures()\n"
        "    sweep_recovery_points(seed=seed).raise_for_failures()\n"
        "print(rss() - base)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 24.0 + 2.0


def test_a_disordered_durable_log_turns_the_coordinate_red_with_its_repro(monkeypatch, capsys):
    recover = sweep._recover

    def disordering_recover(scenario):
        engine = recover(scenario)
        swap_durable_records(scenario.redo, 0, 1)
        return engine

    golden = sweep._golden_run(SEED)
    point, hit = golden.trace[golden.starts[20]]  # mid-workload: the log holds many records
    assert sweep.sweep_workload_points(seed=SEED, only=(point, hit)).failures() == []
    monkeypatch.setattr(sweep, "_recover", disordering_recover)
    for report in (
        sweep.sweep_workload_points(seed=SEED, only=(point, hit)),
        sweep.sweep_recovery_points(seed=SEED, limit=1),
    ):
        (outcome,) = report.outcomes
        assert outcome.crashed and not outcome.ok
        assert outcome.detail == "durable log is not strictly LSN-increasing after recovery"
    # The one-line serial repro of a red coordinate goes red the same way.
    argv = ["sweep", "--scenario", "workload", "--seed", str(SEED), "--point", point]
    assert parallel_main(argv + ["--hit", str(hit), "--json", os.devnull]) == 1
    assert f"FAIL {point}#{hit}: durable log is not strictly LSN-increasing" in capsys.readouterr().err


# -- (c) the pinned digests, cold and warm ------------------------------------

_PINNED = {
    "workload": "4580952417302eee",
    "recovery": "198e63c42daf22f9",
    "sharing": "37df7e3cf93c6678",
    "storm-1": "b1073a09ad52f69f",
    "storm-2": "0b193ba4be2e0610",
}


def _sweep_digests() -> dict:
    reports = {
        "workload": sweep.sweep_workload_points(seed=SEED),
        "recovery": sweep.sweep_recovery_points(seed=SEED),
        "sharing": sweep.sweep_sharing_points(seed=SEED),
        "storm-1": sweep.sweep_failover_storm_points(seed=SEED),
        "storm-2": sweep.sweep_failover_storm_points(seed=SEED, n_shards=2),
    }
    return {name: _sha(sweep.report_to_json(report)) for name, report in reports.items()}


def test_seed_7_sweep_reports_hash_to_the_pinned_list_cold_and_warm():
    assert _sweep_digests() == _PINNED  # cold: every image is built here
    assert len(IMAGES) > 0
    assert _sweep_digests() == _PINNED  # warm: every world is a clone


@pytest.mark.parametrize(
    "system, pinned", [("cxl", "bc64cf5666b72da0"), ("rdma", "1a64805ef00623c2")]
)
def test_forty_seed_stress_report_hashes_to_the_pinned_value(system, pinned):
    for _ in ("cold", "warm"):
        report = run_sharing_stress(system=system, n_seeds=40, shard_size=10)
        assert _sha(report.to_json()) == pinned


# -- (d) an instrumented build bypasses the cache ------------------------------


def _build_small_sharing():
    return build_sharing_setup("cxl", 2, SysbenchWorkload(rows=200, n_nodes=2))


def _digest(value) -> str:
    return _sha(json.dumps(value, sort_keys=True))


@pytest.mark.parametrize("warm", [False, True])
def test_instrumented_builds_bypass_the_cache_and_emit_what_a_fresh_load_emits(warm):
    if warm:
        _build_small_sharing()
        build_pooling_setup("cxl", 2, SysbenchWorkload(rows=300))
    cached = len(IMAGES)

    with Tracer() as tracer:
        _build_small_sharing()
    counters = tracer.counters.snapshot()
    # Values of a fresh cold load. The loader's line cache holds one
    # line, so its 21,982 line touches split into 6,231 hits (the same
    # line again) and 15,751 misses.
    assert _digest(counters) == "a49897883ff864ed"
    assert (counters["mem.dram.line_hits"], counters["mem.dram.line_misses"]) == (6231, 15751)
    assert counters["wal.records_appended"] == 2565
    assert len(tracer.events()) + tracer.total_dropped == 2568

    with Tracer() as tracer:
        build_pooling_setup("cxl", 2, SysbenchWorkload(rows=300))
    assert _digest(tracer.counters.snapshot()) == "ef6020155aa93372"

    injector = FaultInjector(seed=SEED)
    with injector:
        _build_small_sharing()
    assert (len(injector.trace), _digest(list(injector.trace))) == (5225, "73368b8004febc6d")
    assert len(IMAGES) == cached  # none of them read or filled it


def _count_loads(monkeypatch) -> list:
    import repro.workloads.sysbench as sysbench

    loads = []
    original = sysbench.load_tables
    monkeypatch.setattr(
        sysbench, "load_tables", lambda *args, **kw: (loads.append(1), original(*args, **kw))
    )
    return loads


def _sanitized_reads(setup, memsan) -> tuple:
    """Every node reads a few keys under ``memsan``; what it then holds."""
    with memsan:
        for node in setup.nodes:
            for key in (1, 77, 200):
                setup.sim.run_process(node.point_select("sbtest_shared", key))
    return memsan.accesses_checked, memsan.tracked_lines(), memsan.reports


def test_a_memsan_build_restores_the_dataset_image_and_checks_what_a_cold_one_checks(
    monkeypatch,
):
    # MemSan watches no loader region, so the load runs with it suspended
    # and a MemSan-only build is served from the dataset image.
    cold_memsan = MemSan()
    with cold_memsan:
        cold = _build_small_sharing()
    loads = _count_loads(monkeypatch)
    warm_memsan = MemSan()
    with warm_memsan:
        warm = _build_small_sharing()
    assert loads == []
    assert (warm_memsan.accesses_checked, warm_memsan.tracked_lines(), warm_memsan.reports) == (
        cold_memsan.accesses_checked,
        cold_memsan.tracked_lines(),
        cold_memsan.reports,
    )
    checked = _sanitized_reads(warm, warm_memsan)
    assert checked == _sanitized_reads(cold, cold_memsan)
    assert checked[0] > 0

    plain = _build_small_sharing()
    assert warm.page_store._pages == plain.page_store._pages
    assert warm.page_store.meter.ns.hex() == plain.page_store.meter.ns.hex()


@pytest.mark.parametrize("warm", [False, True])
def test_a_built_world_keeps_no_cache_of_its_dataset_load(warm):
    if warm:
        _build_small_sharing()
        build_pooling_setup("cxl", 2, SysbenchWorkload(rows=300))
    assert _build_small_sharing().cluster.hosts["loader"].caches == []
    # The two instances' line caches; not the probe's or the loads'.
    assert len(build_pooling_setup("cxl", 2, SysbenchWorkload(rows=300)).host.caches) == 2


def test_pooling_build_loads_the_dataset_once(monkeypatch):
    loads = _count_loads(monkeypatch)
    setup = build_pooling_setup("cxl", 4, SysbenchWorkload(rows=300))
    assert len(loads) == 1  # the four instances are clones of the probe's load
    assert len({len(ictx.engine.page_store) for ictx in setup.instances}) == 1


# -- (e) what the dataset load leaves behind -----------------------------------


def _poison_dataset_meters() -> int:
    """Give every dataset image a meter whose costs are all NaN, plus a
    1 TB storage transfer with a NaN base; returns how many it poisoned."""
    nan = float("nan")
    poisoned = 0
    for key, (states, _) in IMAGES.items():
        if key[0] == "dataset":
            _, transfers, counters, _ = states["meter"]
            states["meter"] = (
                nan,
                transfers + (TransferCharge("storage", 1 << 40, nan),),
                dict.fromkeys(counters, nan),
                nan,
            )
            poisoned += 1
    return poisoned


def _short_rep(kind: str, system: str, mix: str):
    """A fresh world and one short driver rep on it: the rep's simulated
    results, counter deltas and their digest, as the end-to-end
    benchmark records a rep."""
    if kind == "pooled":
        setup = build_pooling_setup(system, 2, SysbenchWorkload(rows=300))
        driver = PoolingDriver(
            setup.sim,
            setup.instances,
            setup.workload.txn_fn(mix),
            workers_per_instance=4,
            warmup_txns=1,
            measure_txns=4,
        )
    else:
        setup = build_sharing_setup(system, 2, SysbenchWorkload(rows=200, n_nodes=2))
        driver = SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            setup.workload.sharing_txn_fn(mix),
            shared_pct=40,
            cost=setup.cost,
            workers_per_node=4,
            warmup_txns=1,
            measure_txns=4,
        )
    before = counter_snapshot(setup)
    sim = driver.run().to_dict()
    after = counter_snapshot(setup)
    delta = {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }
    return setup, (sim, delta, _digest([sim, delta]))


@pytest.mark.parametrize(
    "kind, system, mix",
    [
        ("pooled", "cxl", "read_only"),
        ("pooled", "rdma", "write_only"),
        ("sharing", "cxl", "point_update"),
    ],
)
def test_the_dataset_loads_costs_are_write_only(monkeypatch, kind, system, mix):
    # What the loader's meter holds never reaches a run: pooling builds
    # wipe it, and a sharing world keeps it only as the never-drained
    # meter of its page store and loader log. So the loader may time its
    # load however it likes (its line cache holds one line).
    _, clean = _short_rep(kind, system, mix)  # cold: fills the dataset image
    assert _poison_dataset_meters() == 1
    loads = _count_loads(monkeypatch)
    setup, poisoned = _short_rep(kind, system, mix)
    assert loads == []  # every load of this build restored the poisoned image
    if kind == "sharing":
        assert math.isnan(setup.page_store.meter.ns)
    assert poisoned == clean
    assert clean[0]["txns"] > 0


def test_a_cold_sharing_build_peaks_little_above_the_world_it_keeps(monkeypatch):
    """Traced peak of a cold build minus what the world (and its dataset
    image) keeps after ``gc.collect()``, on a 2-node 300-row world: 2.06 MB
    with a 32 MB loader line cache, 1.27 MB with a one-line one (on the
    benchmark's 4-node 1,500-row world: 15.2 MB and 6.0 MB)."""
    loader_caches = []
    map_dram = Host.map_dram

    def recording(host, region, meter, line_cache):
        if host.name == "loader":
            loader_caches.append(line_cache)
        return map_dram(host, region, meter, line_cache)

    monkeypatch.setattr(Host, "map_dram", recording)
    gc.collect()
    tracemalloc.start()
    try:
        setup = build_sharing_setup("cxl", 2, SysbenchWorkload(rows=300, n_nodes=2))
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (cache,) = loader_caches
    assert cache.capacity_lines == 1 and len(cache.lines) <= 1
    assert setup.nodes and peak - kept < 1.6e6


# -- (f) the cache is bounded --------------------------------------------------


def test_cache_stays_within_its_bound_across_twenty_seeds():
    # The golden run is the client whose key still varies by seed (the
    # baseline image is one for all of them).
    for seed in range(100, 120):
        sweep._golden_run(seed)
        assert len(IMAGES) <= IMAGE_BOUND
    assert len(IMAGES) == IMAGE_BOUND
    assert ("sweep.baseline",) in IMAGES  # every seed touched it: never the oldest
    # Least recently used goes first: the last seeds are still warm.
    before = list(IMAGES)
    assert sweep._golden_run(119) is IMAGES[("sweep.golden", 119)][1]
    assert sorted(IMAGES) == sorted(before)
