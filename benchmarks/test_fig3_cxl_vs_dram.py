"""Figure 3: DRAM-based vs CXL-based buffer pool as instances scale.

Up to 12 instances of 16 vCPUs on a 192-vCPU host, three sysbench
mixes. Shape: CXL-BP tracks DRAM-BP within ~10% at every scale; at high
instance counts the shared bottleneck (client network for range-select,
WAL device for read-write) makes the two converge.
"""


from repro.bench.report import banner, format_table
from repro.obs.world import build_pooling_setup, reset_meters
from repro.workloads.driver import PoolingDriver
from repro.workloads.sysbench import SysbenchWorkload

ROWS = 3000
POINTS = {
    "point_select": (1, 2, 4, 8, 12),
    "range_select": (1, 2, 4, 8, 12),
    "read_write": (1, 4, 8, 12),
}
WORKERS = {"point_select": 48, "range_select": 32, "read_write": 48}


def _sweep():
    results = {}
    for system in ("dram", "cxl"):
        workload = SysbenchWorkload(rows=ROWS)
        setup = build_pooling_setup(system, 12, workload)
        for mix, points in POINTS.items():
            series = []
            for n in points:
                reset_meters(setup.instances)
                driver = PoolingDriver(
                    setup.sim,
                    setup.instances[:n],
                    workload.txn_fn(mix),
                    workers_per_instance=WORKERS[mix],
                    warmup_txns=1,
                    measure_txns=5,
                )
                res = driver.run()
                series.append((n, res.qps / 1e3))
            results[(system, mix)] = series
    return results


def test_fig3_dram_vs_cxl_buffer_pool(benchmark, report):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    text = [banner("Figure 3: DRAM-BP vs CXL-BP")]
    for mix, points in POINTS.items():
        rows = []
        for i, n in enumerate(points):
            dram = results[("dram", mix)][i][1]
            cxl = results[("cxl", mix)][i][1]
            rows.append((n, dram, cxl, (cxl / dram - 1) * 100))
        text.append(f"\n[{mix}]")
        text.append(
            format_table(["instances", "DRAM-BP K-QPS", "CXL-BP K-QPS", "delta %"], rows)
        )
    report("fig3_cxl_vs_dram", "\n".join(text))

    for mix, points in POINTS.items():
        for i, n in enumerate(points):
            dram = results[("dram", mix)][i][1]
            cxl = results[("cxl", mix)][i][1]
            # Paper: within ~10% at every scale (7% point-select).
            assert cxl > dram * 0.85, (mix, n, dram, cxl)
            assert cxl < dram * 1.10, (mix, n, dram, cxl)
        # Both scale with instance count until a shared bottleneck.
        first = results[("dram", mix)][0]
        last = results[("dram", mix)][-1]
        assert last[1] > first[1] * 2.0, mix
