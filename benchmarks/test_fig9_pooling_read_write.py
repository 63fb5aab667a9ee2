"""Figure 9: pooling, sysbench read-write, 2–12 instances.

Updates/deletes/inserts must read their target page first, so even a
mixed workload drowns in RDMA page traffic (paper: saturation at ~8
instances; ~40% more interconnect bytes than CXL at 1 instance).
"""


from repro.bench.report import banner, format_table
from repro.obs.world import build_pooling_setup, reset_meters
from repro.workloads.driver import PoolingDriver
from repro.workloads.sysbench import SysbenchWorkload

ROWS = 3000
INSTANCES = (2, 4, 8, 12)


def _sweep():
    results = {}
    for system in ("rdma", "cxl"):
        workload = SysbenchWorkload(rows=ROWS)
        setup = build_pooling_setup(system, max(INSTANCES), workload)
        series = []
        for n in INSTANCES:
            reset_meters(setup.instances)
            driver = PoolingDriver(
                setup.sim,
                setup.instances[:n],
                workload.txn_fn("read_write"),
                workers_per_instance=48,
                warmup_txns=1,
                measure_txns=4,
            )
            res = driver.run()
            key = "rdma" if system == "rdma" else "cxl"
            series.append(
                (
                    n,
                    res.qps / 1e3,
                    res.avg_latency_ns / 1e3,
                    res.pipe_bandwidth.get(key, 0.0) / 1e9,
                )
            )
        results[system] = series
    return results


def test_fig9_pooling_read_write(benchmark, report):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        (n, r[1], c[1], r[2] / 1e3, c[2] / 1e3, r[3], c[3])
        for n, r, c in zip(INSTANCES, results["rdma"], results["cxl"])
    ]
    table = format_table(
        ["inst", "RDMA K-QPS", "CXL K-QPS", "RDMA lat ms", "CXL lat ms",
         "RDMA GB/s", "CXL GB/s"],
        rows,
    )
    report(
        "fig9_pooling_read_write",
        banner("Figure 9: pooling read-write") + "\n" + table,
    )

    rdma = {r[0]: (r[1], r[2], r[3]) for r in results["rdma"]}
    cxl = {r[0]: (r[1], r[2], r[3]) for r in results["cxl"]}
    # RDMA stops scaling by 8 instances; CXL continues.
    assert rdma[12][0] < 1.35 * rdma[8][0]
    assert cxl[12][0] > 1.25 * rdma[12][0]
    # Single-host RDMA bandwidth exceeds CXL's — the paper reports ~40%
    # more at one instance (read/write amplification).
    assert rdma[2][2] > 1.2 * cxl[2][2]
