"""fig_scale: multi-primary sharing scaled 2 -> 32 nodes, CXL vs RDMA.

Not a paper figure — the paper stops at 8 nodes — but the scalability
consequence of its protocol: with a per-page sharer directory, flag
pushes per write release track *current sharers* (a workload constant
here), while the RDMA baseline's invalidation messages track how many
nodes hold the page, which the warmup scan makes O(fleet). The CXL
fusion tier shards ``n_nodes // 4`` ways, so metadata service capacity
grows with the fleet. Every point runs MemSan + trace + span
invariants internally (``run_scale_point``) and fails on any report.

A scale point outweighs a process spawn, so the points fan over a spawn
pool, one worker per core; the merged curve is byte-identical to a
serial run.
"""

from repro.bench.report import banner, format_table
from repro.bench.scale import SCALE_NODES, run_scale_curve


def test_fig_scale(benchmark, report):
    results = benchmark.pedantic(
        run_scale_curve, kwargs={"jobs": 0}, rounds=1, iterations=1
    )
    by = {(point["system"], point["n_nodes"]): point for point in results}
    rows = []
    for n in SCALE_NODES:
        rdma, cxl = by[("rdma", n)], by[("cxl", n)]
        gap = rdma["interconnect_bytes"] - cxl["interconnect_bytes"]
        rows.append(
            (
                n,
                cxl["n_shards"],
                rdma["tps"] / 1e3,
                cxl["tps"] / 1e3,
                rdma["invalidations_per_release"],
                cxl["invalidations_per_release"],
                gap / 1e6,
            )
        )
    table = format_table(
        [
            "nodes",
            "shards",
            "RDMA K-TPS",
            "CXL K-TPS",
            "RDMA inv/rel",
            "CXL inv/rel",
            "gap MB",
        ],
        rows,
    )
    report(
        "fig_scale",
        banner("fig_scale: sharing scalability, 2-32 nodes") + "\n" + table,
    )

    # Monitoring stack clean at every scale point.
    for point in results:
        assert point["memsan_reports"] == 0, point

    # The claim: CXL per-release invalidation traffic follows sharers
    # (a workload constant), not fleet size — bounded across a 16x
    # fleet growth, and the sharer directory is live (reshares flow).
    for n in SCALE_NODES:
        assert by[("cxl", n)]["invalidations_per_release"] < 3.0, (n, by)
        if n > 2:
            assert by[("cxl", n)]["reshares"] > 0, (n, by)

    # The baseline pays per registrant: strictly growing with the
    # fleet, and an order of magnitude past CXL by 32 nodes.
    rdma_ipr = [by[("rdma", n)]["invalidations_per_release"] for n in SCALE_NODES]
    assert all(b > a for a, b in zip(rdma_ipr, rdma_ipr[1:])), rdma_ipr
    assert rdma_ipr[-1] > 8 * rdma_ipr[0], rdma_ipr
    assert rdma_ipr[-1] > 10 * by[("cxl", 32)]["invalidations_per_release"]

    # Interconnect bytes: page flushes vs line flushes — the gap widens
    # monotonically with the fleet.
    gaps = [
        by[("rdma", n)]["interconnect_bytes"]
        - by[("cxl", n)]["interconnect_bytes"]
        for n in SCALE_NODES
    ]
    assert all(gap > 0 for gap in gaps), gaps
    assert all(b > a for a, b in zip(gaps, gaps[1:])), gaps

    # Throughput: CXL keeps scaling where the baseline's shared NIC +
    # page-sized invalidation traffic turn over.
    for n in (8, 16, 32):
        assert by[("cxl", n)]["tps"] > by[("rdma", n)]["tps"], (n, by)
    assert by[("cxl", 32)]["tps"] > by[("cxl", 2)]["tps"]
