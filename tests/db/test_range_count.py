"""``BTree.range_count`` is ``len(range_scan)``, charged identically.

Two identical worlds per pool type take the same deletes and re-inserts
(sparse leaves, free heap slots, merged leaves, directories whose ranks
no longer follow heap order). Then every (start, count) case runs the
row scan on one world and the count on the other, and after each pair
everything the charge stream reaches must be equal: ``meter.ns`` (a
float sum, so the order of the additions counts), the transfers, the
counters, every line cache's LRU order and hit / miss totals, and the
buffer pool's hits, misses and evictions.
"""

import random

import pytest

from repro.obs.world import build_pooling_setup
from repro.sim.latency import CostModel
from repro.workloads.sysbench import SysbenchWorkload

ROWS = 1500


def _build(system: str):
    # Half the RDMA tier local: a long scan's pins fit, and scans still
    # evict. Costs that are not whole nanoseconds make the float sum in
    # ``meter.ns`` depend on the order of its additions.
    return build_pooling_setup(
        system, 1, SysbenchWorkload(rows=ROWS), lbp_fraction=0.5, seed=7,
        cost=CostModel(record_copy_ns_per_byte=0.1, btree_level_ns=900.3),
    )


def _sparse_world(system: str):
    setup = _build(system)
    workload = setup.workload
    engine = setup.instances[0].engine
    table = engine.tables["sbtest1"]
    rng = random.Random(5)
    # Half the keys at random leave sparse leaves; a dense run merges some.
    deleted = set(rng.sample(range(1, ROWS + 1), ROWS // 2)) | set(range(300, 460))
    reinserted = sorted(deleted)[::7]  # pops free slots: heap order != key order
    for key in sorted(deleted):
        mtr = engine.mtr()
        assert table.delete(mtr, key)
        mtr.commit()
    for key in reinserted:
        mtr = engine.mtr()
        table.insert(mtr, key, workload.loaded_row(key))
        mtr.commit()
    live = sorted((set(range(1, ROWS + 1)) - deleted) | set(reinserted))
    return setup, engine, table.btree, live


def _charge_state(setup, engine) -> tuple:
    meter, pool = engine.meter, engine.buffer_pool
    return (
        meter.ns,
        list(meter.transfers),
        dict(meter.counters),
        [cache.snapshot() for cache in setup.host.caches],
        (pool.hits, pool.misses, pool.evictions),
    )


@pytest.mark.parametrize("system", ["dram", "cxl", "rdma"])
def test_range_count_is_the_scan_length_with_the_scan_charges(system):
    # Fill the image cache so both worlds restore the same dataset image
    # (neither a fresh load nor a restore leaves a loader cache behind).
    _build(system)
    scan_setup, scan_engine, scan_tree, live = _sparse_world(system)
    count_setup, count_engine, count_tree, _ = _sparse_world(system)
    assert _charge_state(scan_setup, scan_engine) == _charge_state(
        count_setup, count_engine
    )
    rng = random.Random(11)
    starts = [
        0,
        live[len(live) // 2],  # inside a leaf
        next(key for key in range(300, 460) if key not in live),  # a deleted key
        live[-1],
        live[-1] + 1,  # past the last key
        *(rng.randint(0, ROWS + 50) for _ in range(12)),
    ]
    counts = [0, 1, 7, 100, 250]  # 250 rows span about seven leaves
    pool = scan_engine.buffer_pool
    most_leaves = 0
    for start in starts:
        for count in counts:
            fixes = pool.hits + pool.misses
            mtr = scan_engine.mtr()
            rows = scan_tree.range_scan(mtr, start, count)
            mtr.commit()
            fixes = pool.hits + pool.misses - fixes
            mtr = count_engine.mtr()
            counted = count_tree.range_count(mtr, start, count)
            mtr.commit()
            expected = [key for key in live if key >= start][:count]
            assert [key for key, _ in rows] == expected
            assert counted == len(rows), (start, count)
            assert _charge_state(scan_setup, scan_engine) == _charge_state(
                count_setup, count_engine
            ), (start, count)
            most_leaves = max(most_leaves, fixes - 1)  # one root above the leaves
    assert most_leaves >= 5
    assert system != "rdma" or pool.evictions  # the scans evicted from the tier
