"""Quickstart: a database on CXL disaggregated memory, in 60 lines.

Builds a single PolarCXLMem-backed instance, runs sysbench
point-select against it, and contrasts it with a plain DRAM buffer
pool — the Figure 3 experiment in miniature.

Run:  python examples/quickstart.py
"""

from repro import PoolingDriver, SysbenchWorkload, build_pooling_setup


def run_system(system: str, workload: SysbenchWorkload) -> None:
    setup = build_pooling_setup(system, n_instances=1, workload=workload)
    driver = PoolingDriver(
        setup.sim,
        setup.instances,
        workload.txn_fn("point_select"),
        workers_per_instance=24,
        warmup_txns=2,
        measure_txns=12,
    )
    result = driver.run()
    cxl_gbps = result.pipe_bandwidth.get("cxl", 0.0) / 1e9
    pool = setup.instances[0].engine.buffer_pool
    print(
        f"{system:>4s}-BP: {result.qps / 1e3:6.0f} K-QPS  "
        f"avg latency {result.avg_latency_ns / 1e3:5.1f} us  "
        f"CXL traffic {cxl_gbps:.2f} GB/s  "
        f"({type(pool).__name__}, "
        f"{pool.resident_count} pages resident, "
        f"hit ratio {pool.hits / (pool.hits + pool.misses):.3f})"
    )


def main() -> None:
    print("sysbench point-select, one 16-vCPU instance, warm buffer pool")
    workload = SysbenchWorkload(rows=3000)
    run_system("dram", workload)
    run_system("cxl", workload)
    print(
        "\nThe CXL buffer pool runs within a few percent of local DRAM —"
        "\nthe observation (paper Fig. 3) that lets PolarCXLMem drop the"
        "\ntiered local-buffer structure entirely."
    )


if __name__ == "__main__":
    main()
