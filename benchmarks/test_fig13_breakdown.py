"""Figure 13: breakdown — RDMA with LBP 10–100% vs PolarCXLMem.

Point-update on an 8-node cluster. Shapes from §4.4: at light sharing a
bigger LBP rescues the RDMA system (LBP-70% ≈ 94% of PolarCXLMem in the
paper, at 2.24× the memory); as sharing grows the LBP stops mattering
— every write still flushes a whole page — and all RDMA configurations
converge below PolarCXLMem, which wins even against LBP-100%.
"""


from repro.bench.harness import build_sharing_setup
from repro.bench.report import banner, format_table
from repro.obs.critical_path import summarize
from repro.obs.probes import PROBES
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

NODES = 8
ROWS = 1500
SHARE = (20, 60, 100)
LBP_FRACTIONS = (0.1, 0.3, 0.7, 1.0)


FLUSH_SHARE = {}  # (config, pct) -> span-derived cache_flush % of latency


def _run(setup, workload, pct, config=None):
    for node in setup.nodes:
        node.engine.meter.reset()
    tracer = PROBES.spans
    if tracer is not None:
        tracer.clear()
    driver = SharingDriver(
        setup.sim,
        setup.nodes,
        setup.hosts,
        workload.sharing_txn_fn("point_update"),
        shared_pct=pct,
        workers_per_node=12,
        warmup_txns=1,
        measure_txns=3,
    )
    qps = driver.run().qps / 1e3
    if tracer is not None and config is not None:
        breakdown = summarize(tracer)
        FLUSH_SHARE[(config, pct)] = 100.0 * breakdown.fraction("cache_flush")
        tracer.clear()
    return qps


def _sweep():
    results = {}
    for fraction in LBP_FRACTIONS:
        workload = SysbenchWorkload(
            rows=ROWS, n_nodes=NODES, key_dist="zipf", zipf_theta=0.9
        )
        setup = build_sharing_setup(
            "rdma", NODES, workload, lbp_fraction=fraction
        )
        config = f"RDMA LBP-{int(fraction * 100)}%"
        for pct in SHARE:
            results[(config, pct)] = _run(setup, workload, pct, config)
    workload = SysbenchWorkload(
        rows=ROWS, n_nodes=NODES, key_dist="zipf", zipf_theta=0.9
    )
    setup = build_sharing_setup("cxl", NODES, workload)
    for pct in SHARE:
        results[("PolarCXLMem", pct)] = _run(setup, workload, pct, "PolarCXLMem")
    return results


def test_fig13_breakdown(benchmark, report):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    configs = [f"RDMA LBP-{int(f * 100)}%" for f in LBP_FRACTIONS] + ["PolarCXLMem"]
    headers = ["config"] + [f"{pct}% shared (K-QPS)" for pct in SHARE]
    rows = [
        [config, *[results[(config, pct)] for pct in SHARE]] for config in configs
    ]
    if FLUSH_SHARE:
        # --spans: add the span-derived flush share of commit latency —
        # the page- vs line-granularity mechanism behind the QPS gap.
        headers.append(f"flush% of latency @{SHARE[-1]}%")
        for row in rows:
            share = FLUSH_SHARE.get((row[0], SHARE[-1]))
            row.append("-" if share is None else f"{share:.1f}%")
    table = format_table(headers, rows)
    report("fig13_breakdown", banner("Figure 13: LBP-size breakdown") + "\n" + table)

    # At light sharing, the RDMA system is sensitive to LBP size.
    assert results[("RDMA LBP-100%", 20)] > 1.15 * results[("RDMA LBP-10%", 20)]
    # PolarCXLMem beats LBP-10% big at light sharing (paper: 2.14x).
    assert results[("PolarCXLMem", 20)] > 1.5 * results[("RDMA LBP-10%", 20)]
    # At 100% shared, LBP size stops mattering: configurations converge.
    at_full = [results[(f"RDMA LBP-{int(f*100)}%", 100)] for f in LBP_FRACTIONS]
    assert max(at_full) < 1.4 * min(at_full)
    # ...and PolarCXLMem still wins, even against LBP-100% (paper: 22%).
    assert results[("PolarCXLMem", 100)] > 1.1 * results[("RDMA LBP-100%", 100)]
