"""Figure 1: impact of LBP size in the RDMA-based system (§2.2).

One 16-vCPU instance over RDMA disaggregated memory; LBP swept from
10% to 100% of the dataset, under sysbench point-select and read-write.
Shape: shrinking the LBP inflates RDMA bandwidth several-fold and costs
throughput; at 100% the system is all-local and RDMA traffic vanishes.
"""


from repro.bench.report import banner, format_table
from repro.obs.world import build_pooling_setup
from repro.workloads.driver import PoolingDriver
from repro.workloads.sysbench import SysbenchWorkload

FRACTIONS = (0.1, 0.3, 0.5, 0.7, 1.0)
ROWS = 4000
WORKERS = 48


def _sweep():
    results = {}
    for mix in ("point_select", "read_write"):
        rows_out = []
        for fraction in FRACTIONS:
            workload = SysbenchWorkload(rows=ROWS)
            setup = build_pooling_setup("rdma", 1, workload, lbp_fraction=fraction)
            driver = PoolingDriver(
                setup.sim,
                setup.instances,
                workload.txn_fn(mix),
                workers_per_instance=WORKERS,
                warmup_txns=2,
                measure_txns=8,
            )
            res = driver.run()
            rows_out.append(
                (
                    f"{int(fraction * 100)}%",
                    res.qps / 1e3,
                    res.pipe_bandwidth.get("rdma", 0.0) / 1e9,
                )
            )
        results[mix] = rows_out
    return results


def test_fig1_lbp_sweep(benchmark, report):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    text = [banner("Figure 1: LBP size in the RDMA-based system")]
    for mix, rows in results.items():
        text.append(f"\n[{mix}]")
        text.append(
            format_table(["LBP", "K-QPS", "RDMA GB/s"], rows)
        )
    report("fig1_lbp_sweep", "\n".join(text))

    for mix, rows in results.items():
        bw = {label: gbps for label, _, gbps in rows}
        qps = {label: kqps for label, kqps, _ in rows}
        # Bandwidth falls as the LBP grows (paper: 6.9 -> 3.8 GB/s from
        # 10% to 50%, a 1.8x ratio) and is (near) zero at 100%.
        assert bw["10%"] > 1.5 * bw["50%"], mix
        assert bw["10%"] > 2.2 * bw["70%"], mix
        assert bw["100%"] < 0.05, mix
        # Throughput at 100% local beats the 10% LBP configuration.
        assert qps["100%"] > qps["10%"], mix
