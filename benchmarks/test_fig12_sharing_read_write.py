"""Figure 12: sharing, sysbench read-write, 8-node and 12-node clusters.

Shapes from §4.4: PolarCXLMem's improvement grows with the shared
percentage into the mid-range, and the *larger* cluster shows the
*larger* peak improvement (paper: 68.2% at 8 nodes vs 154.4% at 12
nodes, both at 60% shared) because synchronization demand scales with
node count. Improvement remains clearly positive at 100%.
"""


from repro.bench.report import banner, format_table, improvement_pct
from repro.obs.world import build_sharing_setup
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

ROWS = 1500
SHARE = (20, 40, 60, 80, 100)
CLUSTERS = (8, 12)


def _sweep():
    results = {}
    for n_nodes in CLUSTERS:
        for system in ("rdma", "cxl"):
            workload = SysbenchWorkload(
                rows=ROWS, n_nodes=n_nodes, key_dist="zipf", zipf_theta=0.9
            )
            setup = build_sharing_setup(system, n_nodes, workload)
            series = []
            for pct in SHARE:
                for node in setup.nodes:
                    node.engine.meter.reset()
                driver = SharingDriver(
                    setup.sim,
                    setup.nodes,
                    setup.hosts,
                    workload.sharing_txn_fn("read_write"),
                    shared_pct=pct,
                    cost=setup.cost,
                    workers_per_node=16,
                    warmup_txns=1,
                    measure_txns=3,
                )
                res = driver.run()
                series.append((pct, res.qps / 1e3))
            results[(n_nodes, system)] = series
    return results


def test_fig12_sharing_read_write(benchmark, report):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    text = [banner("Figure 12: sharing read-write")]
    improvements = {}
    for n_nodes in CLUSTERS:
        rows = []
        for (pct, r_qps), (_, c_qps) in zip(
            results[(n_nodes, "rdma")], results[(n_nodes, "cxl")]
        ):
            imp = improvement_pct(r_qps, c_qps)
            improvements[(n_nodes, pct)] = imp
            rows.append((f"{pct}%", r_qps, c_qps, imp))
        text.append(f"\n[{n_nodes} nodes]")
        text.append(
            format_table(["shared", "RDMA K-QPS", "CXL K-QPS", "improv %"], rows)
        )
    report("fig12_sharing_read_write", "\n".join(text))

    # PolarCXLMem wins at every point in both clusters.
    for key, imp in improvements.items():
        assert imp > 5.0, (key, imp)
    # The larger cluster peaks higher (synchronization scales with nodes).
    peak8 = max(improvements[(8, pct)] for pct in SHARE)
    peak12 = max(improvements[(12, pct)] for pct in SHARE)
    assert peak12 > peak8, (peak8, peak12)
    # Still clearly positive at 100% shared (paper: 34% / 126%).
    assert improvements[(8, 100)] > 10.0
    assert improvements[(12, 100)] > 10.0
