"""Ablations of PolarCXLMem design choices (DESIGN.md §5).

Not paper figures — these isolate *why* the design decisions matter:

1. line-vs-page flush granularity in the sharing protocol,
2. invalidation via CXL flag store vs RDMA message,
3. metadata-in-CXL: PolarRecv vs replay recovery on identical state,
4. LRU move period (CXL metadata write traffic vs recency quality).
"""


from repro.bench.recovery_exp import run_recovery_experiment
from repro.bench.report import banner
from repro.db.constants import PAGE_SIZE
from repro.obs.world import build_pooling_setup, build_sharing_setup
from repro.sim.latency import LatencyConfig
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload


def test_ablation_flush_granularity(benchmark, report):
    """Cache-line clflush vs hypothetical whole-page CXL flush.

    Measures bytes pushed over the CXL link per update by each policy:
    line-granular flushing should move well under a tenth of a page.
    """

    def run():
        workload = SysbenchWorkload(rows=1500, n_nodes=4)
        setup = build_sharing_setup("cxl", 4, workload)
        for node in setup.nodes:
            node.engine.meter.reset()
        driver = SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            workload.sharing_txn_fn("point_update"),
            shared_pct=50,
            cost=setup.cost,
            workers_per_node=8,
            warmup_txns=1,
            measure_txns=4,
        )
        res = driver.run()
        lines = res.counters.get("lines_flushed", 0.0)
        updates = res.txns * 10
        return lines, updates

    lines, updates = benchmark.pedantic(run, rounds=1, iterations=1)
    lines_per_update = lines / max(1, updates)
    flushed_bytes = lines_per_update * 64
    report(
        "ablation_flush_granularity",
        banner("Ablation: flush granularity")
        + f"\nlines flushed/update: {lines_per_update:.2f} "
        f"({flushed_bytes:.0f} B vs {PAGE_SIZE} B full-page RDMA flush, "
        f"{PAGE_SIZE / max(1.0, flushed_bytes):.0f}x less)",
    )
    # A point update dirties a handful of lines, not 256.
    assert lines_per_update < 24
    assert flushed_bytes * 10 < PAGE_SIZE


def test_ablation_invalidation_path(benchmark, report):
    """Invalidation via CXL store vs RDMA message: per-event cost."""

    def run():
        config = LatencyConfig()
        return config.cxl_flag_store_ns, config.rdma_message_ns

    cxl_ns, rdma_ns = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_invalidation_path",
        banner("Ablation: invalidation path")
        + f"\nCXL flag store: {cxl_ns:.0f} ns vs RDMA message: {rdma_ns:.0f} ns "
        f"({rdma_ns / cxl_ns:.1f}x)",
    )
    assert rdma_ns > 5 * cxl_ns


def test_ablation_metadata_in_cxl(benchmark, report):
    """PolarRecv (metadata in CXL) vs vanilla replay on the same crash."""

    def run():
        polar = run_recovery_experiment("polarrecv", mix="write_only", rows=12_000)
        vanilla = run_recovery_experiment("vanilla", mix="write_only", rows=12_000)
        return polar, vanilla

    polar, vanilla = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_metadata_in_cxl",
        banner("Ablation: metadata in CXL")
        + f"\nPolarRecv: {polar.recovery_seconds * 1e3:.2f} ms recovery; "
        f"vanilla replay: {vanilla.recovery_seconds * 1e3:.2f} ms "
        f"({vanilla.recovery_seconds / max(1e-9, polar.recovery_seconds):.1f}x)",
    )
    assert vanilla.recovery_seconds > 3 * polar.recovery_seconds


def test_ablation_cxl3_hardware_coherency(benchmark, report):
    """Software protocol (CXL 2.0) vs modeled CXL 3.0 hardware coherency.

    The paper's forward-looking claim: hardware coherency removes the
    flag checks, clflushes and invalidation pushes from the application
    layer. The ablation measures what that protocol actually costs.
    """

    def run():
        out = {}
        for system in ("cxl", "cxl3"):
            workload = SysbenchWorkload(
                rows=1500, n_nodes=4, key_dist="zipf", zipf_theta=0.9
            )
            setup = build_sharing_setup(system, 4, workload)
            for node in setup.nodes:
                node.engine.meter.reset()
            driver = SharingDriver(
                setup.sim,
                setup.nodes,
                setup.hosts,
                workload.sharing_txn_fn("point_update"),
                shared_pct=60,
                cost=setup.cost,
                workers_per_node=12,
                warmup_txns=1,
                measure_txns=4,
            )
            out[system] = driver.run().qps
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    gain = (out["cxl3"] / out["cxl"] - 1) * 100
    report(
        "ablation_cxl3_hw_coherency",
        banner("Ablation: CXL 3.0 hardware coherency")
        + f"\nsoftware protocol (2.0): {out['cxl'] / 1e3:.0f} K-QPS; "
        f"hardware coherency (3.0): {out['cxl3'] / 1e3:.0f} K-QPS "
        f"({gain:+.1f}%)",
    )
    # Hardware coherency removes overhead; it must not be slower.
    assert out["cxl3"] >= out["cxl"] * 0.98


def test_ablation_lru_move_period(benchmark, report):
    """CXL-resident LRU: per-touch moves vs sampled moves.

    Moving a block to the LRU head costs ~6 CXL metadata writes; doing
    it on every touch measurably taxes point-select throughput.
    """

    def run():
        out = {}
        for period in (1, 8):
            workload = SysbenchWorkload(rows=3000)
            setup = build_pooling_setup(
                "cxl", 1, workload, lru_move_period=period
            )
            driver = PoolingDriver(
                setup.sim,
                setup.instances,
                workload.txn_fn("point_select"),
                workers_per_instance=24,
                warmup_txns=2,
                measure_txns=10,
            )
            out[period] = driver.run().qps
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_lru_move_period",
        banner("Ablation: LRU move period")
        + f"\nevery touch: {out[1] / 1e3:.0f} K-QPS; "
        f"sampled (1/8): {out[8] / 1e3:.0f} K-QPS "
        f"(+{(out[8] / out[1] - 1) * 100:.1f}%)",
    )
    assert out[8] >= out[1] * 0.99
