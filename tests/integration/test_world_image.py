"""World images: a clone is indistinguishable from a fresh build.

The differential is structural: two worlds are walked attribute by
attribute (every object's ``vars()`` and slots, every container, region
bytes included), so a field added to any component without snapshot
support shows up as a difference between the fresh world and the
restored one. The only attributes skipped are the pure memos in
``_MEMOS``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import random
import struct
import types

import pytest

from repro.analysis.memsan import MemSan
from repro.bench.harness import build_pooling_setup, build_sharing_setup
from repro.obs.image import IMAGE_BOUND, IMAGES
from repro.faults import sweep
from repro.faults.injector import FaultInjector
from repro.obs import Tracer
from repro.parallel.stress import run_sharing_stress
from repro.workloads.sysbench import SysbenchWorkload

SEED = 7

#: (class name, attribute): lazily filled lookup tables whose contents
#: are a function of their keys alone.
_MEMOS = {("LatencyTable", "_cache")}

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


def _pristine(seed: int = SEED):
    """A baseline scenario that never touched the image cache."""
    scenario = sweep._build_scenario(seed)
    return scenario, sweep._setup_baseline(scenario)


def _uninjected_workload(scenario, model) -> dict:
    return sweep._run_workload(scenario, model, {}, random.Random(SEED))


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
    built, built_model = sweep._baseline_scenario(SEED)  # builds and keeps the image
    restored, restored_model = sweep._baseline_scenario(SEED)  # restores it
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
    first, first_model = sweep._baseline_scenario(SEED)
    _uninjected_workload(first, first_model)  # the world the image was taken from
    point, hit = golden.trace[len(golden.trace) // 2]
    outcome = sweep._crash_and_recover(SEED, point, hit, golden.snapshots)  # a clone
    assert outcome.ok, outcome.detail
    sibling, sibling_model = sweep._baseline_scenario(SEED)
    fresh, fresh_model = _pristine()
    assert sibling_model == fresh_model
    assert_same_world(fresh, sibling)


def test_dataset_clones_do_not_share_pages_with_each_other():
    workload = SysbenchWorkload(rows=200, n_nodes=2)
    first = build_sharing_setup("cxl", 2, workload)
    pages = dict(first.page_store._pages)
    first.page_store.write_page(1, b"\xee" * first.page_store.page_size)
    second = build_sharing_setup("cxl", 2, workload)
    assert second.page_store._pages == pages
    assert second.page_store._pages is not first.page_store._pages


# -- (c) the pinned digests, cold and warm, serial and parallel ----------------

_PINNED = {
    "workload": "4580952417302eee",
    "recovery": "198e63c42daf22f9",
    "sharing": "37df7e3cf93c6678",
    "storm-1": "b1073a09ad52f69f",
    "storm-2": "0b193ba4be2e0610",
}


def _sweep_digests(jobs: int) -> dict:
    reports = {
        "workload": sweep.sweep_workload_points(seed=SEED, jobs=jobs),
        "recovery": sweep.sweep_recovery_points(seed=SEED, jobs=jobs),
        "sharing": sweep.sweep_sharing_points(seed=SEED, jobs=jobs),
        "storm-1": sweep.sweep_failover_storm_points(seed=SEED, jobs=jobs),
        "storm-2": sweep.sweep_failover_storm_points(seed=SEED, jobs=jobs, n_shards=2),
    }
    return {name: _sha(sweep.report_to_json(report)) for name, report in reports.items()}


def test_seed_7_sweep_reports_hash_to_the_pinned_list_cold_and_warm():
    assert _sweep_digests(jobs=1) == _PINNED  # cold: every image is built here
    assert len(IMAGES) > 0
    assert _sweep_digests(jobs=1) == _PINNED  # warm: every world is a clone


def test_seed_7_sweep_reports_hash_to_the_pinned_list_on_a_spawn_pool():
    assert _sweep_digests(jobs=2) == _PINNED


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
    # Values of the parent commit, which always loaded.
    assert _digest(counters) == "ceb432134a59575e"
    assert counters["wal.records_appended"] == 2565
    assert len(tracer.events()) + tracer.total_dropped == 2568

    with Tracer() as tracer:
        build_pooling_setup("cxl", 2, SysbenchWorkload(rows=300))
    assert _digest(tracer.counters.snapshot()) == "03e287509f94530e"

    injector = FaultInjector(seed=SEED)
    with injector:
        _build_small_sharing()
    assert (len(injector.trace), _digest(list(injector.trace))) == (5225, "73368b8004febc6d")

    with MemSan():
        sanitized = _build_small_sharing()
    assert len(IMAGES) == cached  # none of them read or filled it

    plain = _build_small_sharing()
    assert sanitized.page_store._pages == plain.page_store._pages
    assert sanitized.page_store.meter.ns.hex() == plain.page_store.meter.ns.hex()


def test_pooling_build_loads_the_dataset_once(monkeypatch):
    import repro.workloads.sysbench as sysbench

    loads = []
    original = sysbench.load_tables
    monkeypatch.setattr(
        sysbench, "load_tables", lambda *args, **kw: (loads.append(1), original(*args, **kw))
    )
    setup = build_pooling_setup("cxl", 4, SysbenchWorkload(rows=300))
    assert len(loads) == 1  # the four instances are clones of the probe's load
    assert len({len(ictx.engine.page_store) for ictx in setup.instances}) == 1


# -- (e) the cache is bounded --------------------------------------------------


def test_cache_stays_within_its_bound_across_twenty_seeds():
    for seed in range(100, 120):
        sweep._baseline_scenario(seed)
        assert len(IMAGES) <= IMAGE_BOUND
    assert len(IMAGES) == IMAGE_BOUND
    # Least recently used goes first: the last seeds are still warm.
    before = len(IMAGES)
    sweep._baseline_scenario(119)
    assert len(IMAGES) == before
