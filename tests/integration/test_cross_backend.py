"""Cross-backend differential (ROADMAP 4d, pooling half).

The buffer pool is a host-cost and latency choice, never a semantic one:
the same seeded stream of inserts, updates, deletes and range reads must
leave the same table whichever pool the engine runs on. And the paper's
pooling result itself is pinned: the first ``pool_cxl_read`` rep of the
end-to-end benchmark (seed 7) must report, digit for digit, what the
commit before the access path was collapsed reported — the cheapest
guard that a host-side speed-up moved no simulated number.

Sharing backends (shared-cxl / shared-rdma / hw-coherent) join when the
sharing half of ROADMAP item 1 lands.
"""

import random

from repro.bench.harness import build_pooling_setup, reset_meters
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


def _run_stream(system: str) -> tuple[list, list]:
    workload = SysbenchWorkload(rows=ROWS)
    setup = build_pooling_setup(system, 1, workload, lbp_fraction=0.3, seed=7)
    engine = setup.instances[0].engine
    table = engine.tables["sbtest1"]
    rng = random.Random(7)
    live = set(range(1, ROWS + 1))
    next_key = ROWS + 1
    observed = []  # what the reads returned along the way
    for _ in range(OPS):
        op = rng.choice(("insert", "insert", "update", "update", "delete", "range"))
        mtr = engine.mtr()
        if op == "insert":
            table.insert(mtr, next_key, workload._row(next_key))
            live.add(next_key)
            next_key += 1
        elif op == "update":
            key = rng.choice(sorted(live))
            field, value = rng.choice((("k", rng.randrange(4096)), ("c", rng.randbytes(120))))
            assert table.update_field(mtr, key, field, value)
        elif op == "delete":
            key = rng.choice(sorted(live))
            assert table.delete(mtr, key)
            live.discard(key)
        else:
            observed.append(table.range(mtr, rng.randrange(1, next_key), 20))
        mtr.commit()
    rows = _full_scan(engine, table)
    assert [row["id"] for row in rows] == sorted(live)
    return rows, observed


def test_same_op_stream_same_table_on_every_pool():
    dram, cxl, rdma = (_run_stream(system) for system in ("dram", "cxl", "rdma"))
    assert len(dram[0]) > ROWS  # more inserts than deletes: leaves split along the way
    assert cxl == dram
    assert rdma == dram


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
