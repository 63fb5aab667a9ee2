"""Cost efficiency: the memory bill of tiered RDMA vs PolarCXLMem.

The paper's economic argument (§1, §4.4, Table 3): DRAM is ~40–50% of
server/rack cost, the RDMA design pays for a local buffer pool *on top
of* the disaggregated memory, and PolarCXLMem doesn't. This example
builds the Table 3 multi-primary deployments at small scale and prints
each configuration's throughput per unit of memory.

Run:  python examples/cost_efficiency.py
"""

from repro import SharingDriver, SysbenchWorkload, build_sharing_setup


def main() -> None:
    n_nodes = 6
    print(f"{n_nodes}-node multi-primary cluster, sysbench point-update, 20% shared\n")
    print(
        f"{'config':>14s} {'K-QPS':>8s} {'memory (MB)':>12s} "
        f"{'rel. memory':>12s} {'K-QPS per GB':>13s}"
    )
    rows = []
    for label, system, fraction in (
        ("RDMA 10% LBP", "rdma", 0.10),
        ("RDMA 30% LBP", "rdma", 0.30),
        ("RDMA 70% LBP", "rdma", 0.70),
        ("PolarCXLMem", "cxl", 0.0),
    ):
        workload = SysbenchWorkload(
            rows=1500, n_nodes=n_nodes, key_dist="zipf", zipf_theta=0.9
        )
        setup = build_sharing_setup(
            system, n_nodes, workload, lbp_fraction=fraction
        )
        driver = SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            workload.sharing_txn_fn("point_update"),
            shared_pct=20,
            cost=setup.cost,
            workers_per_node=12,
            warmup_txns=1,
            measure_txns=4,
        )
        result = driver.run()
        rows.append((label, result.qps, setup.total_memory_bytes()))
    base_memory = min(memory for _, _, memory in rows)
    for label, qps, memory in rows:
        print(
            f"{label:>14s} {qps / 1e3:>8.0f} {memory / (1 << 20):>12.1f} "
            f"{memory / base_memory:>11.2f}x "
            f"{qps / 1e3 / (memory / (1 << 30)):>13.0f}"
        )
    print(
        "\nPolarCXLMem needs no per-node local buffer pool: every byte of"
        "\nits footprint is the shared DBP itself, so throughput-per-GB"
        "\ndominates every RDMA configuration (paper Table 3's memory"
        "\noverhead column)."
    )


if __name__ == "__main__":
    main()
