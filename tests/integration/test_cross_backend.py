"""Cross-backend differential (ROADMAP 3d).

The buffer pool is a host-cost and latency choice, never a semantic one:
the same seeded stream of inserts, updates, deletes and range reads must
leave the same table whichever pool the engine runs on — the three
pooling backends (dram / cxl / rdma) and the three sharing backends
(shared-cxl behind a ``CpuCache``, shared-rdma, and the hw-coherent
``cxl3``), bare and, for the software-coherent pool, under an installed
``MemSan``. And the paper's pooling result itself is pinned: the first
``pool_cxl_read`` rep of the end-to-end benchmark (seed 7) must report,
digit for digit, what the commit before the access path was collapsed
reported — the cheapest guard that a host-side speed-up moved no
simulated number.
"""

import random

import pytest

from repro.analysis.memsan import MemSan
from repro.obs.world import build_pooling_setup, build_sharing_setup, reset_meters
from repro.workloads.driver import PoolingDriver
from repro.workloads.sysbench import SysbenchWorkload

ROWS = 300
OPS = 200
SCAN_CHUNK = 50  # a single full scan would pin every page of the RDMA pool's LBP


def _full_scan(engine, table) -> list:
    rows: list = []
    while True:
        mtr = engine.mtr()
        chunk = table.range(mtr, rows[-1]["id"] + 1 if rows else 0, SCAN_CHUNK)
        mtr.commit()
        if not chunk:
            return rows
        rows.extend(chunk)


def _pooled(system: str):
    workload = SysbenchWorkload(rows=ROWS)
    setup = build_pooling_setup(system, 1, workload, lbp_fraction=0.3, seed=7)
    engine = setup.instances[0].engine
    return workload, engine, engine.tables["sbtest1"]


def _shared(system: str):
    """One primary of a sharing cluster, driving its shared table."""
    workload = SysbenchWorkload(rows=ROWS, n_nodes=1)
    setup = build_sharing_setup(system, 1, workload)
    engine = setup.nodes[0].engine
    return workload, engine, engine.tables["sbtest_shared"]


def _run_stream(workload, engine, table, grow: bool) -> tuple[list, list]:
    """``grow`` inserts fresh keys past the loaded ones, so leaves split;
    without it an insert puts back a key an earlier delete took out (a
    multi-primary node works on preloaded pages and cannot allocate)."""
    rng = random.Random(7)
    live = set(range(1, ROWS + 1))
    deleted: list = []
    next_key = ROWS + 1
    observed = []  # what the reads returned along the way
    for _ in range(OPS):
        op = rng.choice(("insert", "insert", "update", "update", "delete", "range"))
        if op == "insert" and not grow and not deleted:
            op = "delete"
        mtr = engine.mtr()
        if op == "insert":
            key = next_key if grow else deleted.pop(rng.randrange(len(deleted)))
            table.insert(mtr, key, workload.loaded_row(key))
            live.add(key)
            next_key += grow
        elif op == "update":
            key = rng.choice(sorted(live))
            field, value = rng.choice((("k", rng.randrange(4096)), ("c", rng.randbytes(120))))
            assert table.update_field(mtr, key, field, value)
        elif op == "delete":
            key = rng.choice(sorted(live))
            assert table.delete(mtr, key)
            live.discard(key)
            deleted.append(key)
        else:
            observed.append(table.range(mtr, rng.randrange(1, next_key), 20))
        mtr.commit()
    rows = _full_scan(engine, table)
    assert [row["id"] for row in rows] == sorted(live)
    return rows, observed


def test_same_op_stream_same_table_on_every_pool():
    dram, cxl, rdma = (
        _run_stream(*_pooled(system), grow=True) for system in ("dram", "cxl", "rdma")
    )
    assert len(dram[0]) > ROWS  # more inserts than deletes: leaves split along the way
    assert cxl == dram
    assert rdma == dram


@pytest.fixture(scope="module")
def dram_stream():
    rows, observed = stream = _run_stream(*_pooled("dram"), grow=False)
    assert len(rows) < ROWS and len(observed) > OPS // 10  # keys went out and came back
    return stream


BACKENDS = {
    "pool-cxl": (_pooled, "cxl"),
    "pool-rdma": (_pooled, "rdma"),
    "shared-cxl": (_shared, "cxl"),
    "shared-rdma": (_shared, "rdma"),
    "cxl3": (_shared, "cxl3"),
}


@pytest.mark.parametrize("build, system", BACKENDS.values(), ids=BACKENDS.keys())
def test_same_in_place_op_stream_same_table_on_every_backend(build, system, dram_stream):
    assert _run_stream(*build(system), grow=False) == dram_stream


def test_same_in_place_op_stream_same_table_under_memsan(dram_stream):
    """The instrumented frames return the bytes the bare ones do."""
    with MemSan() as memsan:
        workload, engine, table = _shared("cxl")
        memsan.watch_region(engine.buffer_pool.region.name)
        with memsan.actor("node0"):
            assert _run_stream(workload, engine, table, grow=False) == dram_stream
    memsan.check()


# RunResult.to_dict() of the first rep on a fresh pool_cxl_read world
# (benchmarks/e2e: 4 instances, sysbench rows=3000, read_only, 16 workers,
# warmup_txns=1, measure_txns=5, seed 7), recorded at commit d02ae65.
POOL_CXL_READ_FIRST_REP = {
    "avg_latency_ns": 2950965.753125,
    "bw_client_gbps": 1.7516014236300779,
    "bw_cxl_gbps": 5.035136363572645,
    "bw_rdma_gbps": 0.0,
    "bw_rdma_ops_gbps": 0.0,
    "bw_storage_gbps": 0.0,
    "bw_wal_gbps": 0.0,
    "elapsed_ns": 14980577,
    "lock_waits": 0,
    "p95_latency_ns": 3208347.2,
    "qps": 299053.9015953791,
    "queries": 4480,
    "tps": 21360.99297109851,
    "txns": 320,
}


def test_pool_cxl_read_first_rep_is_pinned():
    workload = SysbenchWorkload(rows=3000)
    setup = build_pooling_setup("cxl", 4, workload, lbp_fraction=0.3, seed=7)
    reset_meters(setup.instances)
    result = PoolingDriver(
        setup.sim,
        setup.instances,
        workload.txn_fn("read_only"),
        workers_per_instance=16,
        warmup_txns=1,
        measure_txns=5,
    ).run()
    assert result.to_dict() == POOL_CXL_READ_FIRST_REP
