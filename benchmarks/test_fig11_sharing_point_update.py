"""Figure 11: multi-primary data sharing, sysbench point-update, 8 nodes.

Shared-data percentage swept 0–100%. Shapes from §4.4: PolarCXLMem
beats RDMA everywhere; the relative improvement *grows* with sharing up
to a mid-range peak (paper: 62% at 40%) because cache-line flushes beat
whole-page flushes exactly when synchronization dominates, then
declines as page-lock contention throttles both systems — but stays
clearly positive at 100% (paper: 27%). Latency moves inversely.
"""


from repro.bench.report import banner, format_table, improvement_pct
from repro.obs.world import build_sharing_setup
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

NODES = 8
ROWS = 1500
SHARE = (0, 20, 40, 60, 80, 100)


def _sweep():
    results = {}
    for system in ("rdma", "cxl"):
        workload = SysbenchWorkload(
            rows=ROWS, n_nodes=NODES, key_dist="zipf", zipf_theta=0.9
        )
        setup = build_sharing_setup(system, NODES, workload)
        series = []
        for pct in SHARE:
            for node in setup.nodes:
                node.engine.meter.reset()
            driver = SharingDriver(
                setup.sim,
                setup.nodes,
                setup.hosts,
                workload.sharing_txn_fn("point_update"),
                shared_pct=pct,
                cost=setup.cost,
                workers_per_node=16,
                warmup_txns=1,
                measure_txns=4,
            )
            res = driver.run()
            series.append((pct, res.qps / 1e3, res.avg_latency_ns / 1e3))
        results[system] = series
    return results


def test_fig11_sharing_point_update(benchmark, report):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = []
    for (pct, r_qps, r_lat), (_, c_qps, c_lat) in zip(
        results["rdma"], results["cxl"]
    ):
        rows.append(
            (
                f"{pct}%",
                r_qps,
                c_qps,
                improvement_pct(r_qps, c_qps),
                r_lat,
                c_lat,
            )
        )
    table = format_table(
        ["shared", "RDMA K-QPS", "CXL K-QPS", "improv %", "RDMA lat us", "CXL lat us"],
        rows,
    )
    report(
        "fig11_sharing_point_update",
        banner("Figure 11: sharing point-update (8 nodes)") + "\n" + table,
    )

    imp = {
        pct: improvement_pct(r_qps, c_qps)
        for (pct, r_qps, _), (_, c_qps, _) in zip(
            results["rdma"], results["cxl"]
        )
    }
    qps_cxl = {p: q for p, q, _ in results["cxl"]}
    qps_rdma = {p: q for p, q, _ in results["rdma"]}
    # PolarCXLMem wins at every sharing level (paper: 27–62%).
    for pct in SHARE:
        assert imp[pct] > 10.0, (pct, imp)
    # The peak improvement is strictly inside the sweep (paper: 40%).
    peak = max(imp, key=imp.get)
    assert peak not in (0, 100), imp
    # Contention throttles both systems as sharing rises.
    assert qps_cxl[100] < 0.6 * qps_cxl[0]
    assert qps_rdma[100] < 0.6 * qps_rdma[0]
    # Latency rises with contention for both.
    lat_cxl = {p: l for p, _, l in results["cxl"]}
    assert lat_cxl[100] > 1.5 * lat_cxl[0]
