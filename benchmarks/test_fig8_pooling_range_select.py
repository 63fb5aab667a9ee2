"""Figure 8: pooling, sysbench range-select, 2–12 instances.

Range scans read whole consecutive record runs, so the RDMA system's
read amplification is milder than point-select but bandwidth still
saturates (paper: at ~4 instances, ~11 GB/s). PolarCXLMem keeps
scaling; latency climbs only on the RDMA side.
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
                workload.txn_fn("range_select"),
                workers_per_instance=32,
                warmup_txns=1,
                measure_txns=5,
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


def test_fig8_pooling_range_select(benchmark, report):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        (n, r[1], c[1], r[2], c[2], r[3], c[3])
        for (n, *_), r, c in zip(
            [(i,) for i in INSTANCES], results["rdma"], results["cxl"]
        )
    ]
    table = format_table(
        ["inst", "RDMA K-QPS", "CXL K-QPS", "RDMA lat us", "CXL lat us",
         "RDMA GB/s", "CXL GB/s"],
        rows,
    )
    report(
        "fig8_pooling_range_select",
        banner("Figure 8: pooling range-select") + "\n" + table,
    )

    rdma = {r[0]: (r[1], r[2], r[3]) for r in results["rdma"]}
    cxl = {r[0]: (r[1], r[2], r[3]) for r in results["cxl"]}
    # RDMA saturates around 4 instances; CXL keeps scaling.
    assert rdma[12][0] < 1.4 * rdma[4][0]
    assert cxl[12][0] > 2.0 * cxl[4][0] * 0.8
    assert cxl[12][0] > 1.5 * rdma[12][0]
    # NIC at its ceiling.
    assert rdma[12][2] > 9.0
    # RDMA latency climbs past saturation.
    assert rdma[12][1] > 1.5 * rdma[2][1]
