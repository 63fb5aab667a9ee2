"""Multi-primary data sharing over CXL: coherency without hardware help.

Two demonstrations on a 4-node cluster:

1. the coherency protocol at work — node A updates a row, node B reads
   the new value even though B had the page's cache lines cached (and
   would read stale bytes if the invalid-flag protocol were removed);
2. throughput vs the RDMA sharing baseline at a few sharing levels.

Run:  python examples/multi_primary_sharing.py
"""

from repro import SharingDriver, SysbenchWorkload, build_sharing_setup


def coherency_demo() -> None:
    print("--- coherency walk-through (2 of 4 nodes shown) ---")
    workload = SysbenchWorkload(rows=1000, n_nodes=4)
    setup = build_sharing_setup("cxl", 4, workload)
    sim = setup.sim
    a, b = setup.nodes[0], setup.nodes[1]

    row = sim.run_process(b.point_select("sbtest_shared", 500))
    print(f"node B reads row 500: k={row['k']} (lines now in B's CPU cache)")

    sim.run_process(a.point_update("sbtest_shared", 500, "k", 4242))
    print("node A updates row 500 to k=4242: clflush + invalid flag for B")

    row = sim.run_process(b.point_select("sbtest_shared", 500))
    print(f"node B reads row 500 again: k={row['k']}")
    assert row["k"] == 4242, "coherency protocol failed!"

    assert setup.fusion is not None
    print(
        f"fusion server pushed {setup.fusion.invalidations_pushed} "
        f"invalidation flag(s); node B observed "
        f"{b.engine.buffer_pool.invalidations_observed}\n"
    )


def throughput_comparison() -> None:
    print("--- point-update throughput, 4 nodes, CXL vs RDMA sharing ---")
    print(f"{'shared':>8s} {'RDMA K-QPS':>12s} {'CXL K-QPS':>12s} {'improv':>8s}")
    runs = {}
    for system in ("rdma", "cxl"):
        workload = SysbenchWorkload(
            rows=1500, n_nodes=4, key_dist="zipf", zipf_theta=0.9
        )
        setup = build_sharing_setup(system, 4, workload)
        for pct in (20, 60, 100):
            for node in setup.nodes:
                node.engine.meter.reset()
            driver = SharingDriver(
                setup.sim,
                setup.nodes,
                setup.hosts,
                workload.sharing_txn_fn("point_update"),
                shared_pct=pct,
                cost=setup.cost,
                workers_per_node=12,
                warmup_txns=1,
                measure_txns=4,
            )
            runs[(system, pct)] = driver.run().qps / 1e3
    for pct in (20, 60, 100):
        rdma, cxl = runs[("rdma", pct)], runs[("cxl", pct)]
        print(f"{pct:>7d}% {rdma:>12.0f} {cxl:>12.0f} {(cxl / rdma - 1) * 100:>+7.0f}%")


def main() -> None:
    coherency_demo()
    throughput_comparison()


if __name__ == "__main__":
    main()
