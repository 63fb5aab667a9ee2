"""Span-derived mechanism breakdown of the figure-13 point-update slice.

Where figure 13 reports *throughput* for PolarCXLMem vs the RDMA LBP
configurations, this benchmark answers the §4.4 *why* with the causal
span tracer: each transaction's commit latency decomposed into lock
waits, cache-line flushes, RPCs, WAL appends, CXL/DRAM accesses and
pipe queueing, with per-mechanism percentiles.

Acceptance (ISSUE.md): the mechanism buckets must explain at least 95 %
of per-transaction commit latency for BOTH systems; the remainder is
reported explicitly as ``unattributed``.
"""

from contextlib import ExitStack

from repro.bench.harness import build_sharing_setup
from repro.bench.report import banner, format_span_breakdown
from repro.obs.critical_path import MechanismBreakdown, summarize
from repro.obs.probes import PROBES
from repro.obs.spans import SpanTracer
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

NODES = 4
ROWS = 800
SHARE = (20, 60, 100)
MIN_COVERAGE = 0.95

SYSTEMS = (
    ("PolarCXLMem", "cxl", {}),
    ("RDMA LBP-30%", "rdma", {"lbp_fraction": 0.3}),
)


def _run_one(tracer, setup, workload, pct) -> MechanismBreakdown:
    for node in setup.nodes:
        node.engine.meter.reset()
    tracer.clear()
    driver = SharingDriver(
        setup.sim,
        setup.nodes,
        setup.hosts,
        workload.sharing_txn_fn("point_update"),
        shared_pct=pct,
        workers_per_node=8,
        warmup_txns=1,
        measure_txns=3,
    )
    driver.run()
    breakdown = summarize(tracer)
    tracer.clear()
    return breakdown


def _sweep():
    with ExitStack() as stack:
        # Under ``--spans`` the session-wide tracer is already installed.
        tracer = PROBES.spans or stack.enter_context(SpanTracer())
        breakdowns = {}
        for label, system, kwargs in SYSTEMS:
            workload = SysbenchWorkload(
                rows=ROWS, n_nodes=NODES, key_dist="zipf", zipf_theta=0.9
            )
            setup = build_sharing_setup(system, NODES, workload, **kwargs)
            tracer.clear()  # drop the preload spans
            merged = MechanismBreakdown()
            for pct in SHARE:
                merged.merge(_run_one(tracer, setup, workload, pct))
            breakdowns[label] = merged
        return breakdowns


def test_spans_breakdown(benchmark, report):
    breakdowns = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    text = [banner("Figure 13 slice: span-derived latency breakdown")]
    for label, breakdown in breakdowns.items():
        text.append(format_span_breakdown(breakdown, title=label))
    report("spans_breakdown", "\n".join(text))

    for label, breakdown in breakdowns.items():
        assert breakdown.txns > 0, f"{label}: no transaction roots recorded"
        # The acceptance criterion: buckets explain >=95% of commit
        # latency for both systems; the rest is explicit unattributed.
        assert breakdown.coverage >= MIN_COVERAGE, (
            f"{label}: span buckets cover {100 * breakdown.coverage:.2f}% "
            f"< {100 * MIN_COVERAGE:.0f}% of per-txn commit latency"
        )
    # The mechanisms the paper names must actually show up on both sides.
    cxl = breakdowns["PolarCXLMem"]
    rdma = breakdowns["RDMA LBP-30%"]
    for kind in ("lock_wait", "cache_flush", "rpc", "wal_append"):
        assert cxl.buckets.get(kind, 0.0) > 0.0, f"cxl missing {kind}"
        assert rdma.buckets.get(kind, 0.0) > 0.0, f"rdma missing {kind}"
    # Line- vs page-granular flushes: RDMA pushes whole 16 KB pages on
    # every write release, so its flush share must exceed PolarCXLMem's.
    assert rdma.fraction("cache_flush") > cxl.fraction("cache_flush")
