"""Mechanism counters: bytes-moved amplification, rdma vs cxl (§4.2).

Runs the same sysbench point-select workload on all three pooling
systems with the observability tracer installed and exports the merged
counter snapshots (text table + JSON under ``benchmarks/results/``).
The headline number is interconnect traffic: the RDMA tier moves whole
16 KB pages per LBP miss while PolarCXLMem moves 64 B cache lines on
demand, so rdma bytes-moved shows a multi-x amplification over cxl on
identical queries.

A sharing run (CXL software coherency) is traced as well and its full
event stream is fed through the protocol invariant checker — every
invalidation observed, every write-lock release flushed, WAL LSNs
monotone per log.
"""


from pathlib import Path

from repro.bench.harness import counter_snapshot
from repro.bench.report import dump_counters_json, format_counters
from repro.obs import Tracer, assert_trace_invariants
from repro.obs.world import build_pooling_setup, build_sharing_setup, reset_meters
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

ROWS = 1200
INSTANCES = 2
SHARING_NODES = 4
SHARED_PCT = 40

RESULTS_DIR = Path(__file__).parent / "results"


def _pooling_run(system: str) -> dict[str, float]:
    workload = SysbenchWorkload(rows=ROWS)
    setup = build_pooling_setup(system, INSTANCES, workload)
    with Tracer() as tracer:
        reset_meters(setup.instances)
        driver = PoolingDriver(
            setup.sim,
            setup.instances,
            workload.txn_fn("point_select"),
            workers_per_instance=24,
            warmup_txns=1,
            measure_txns=6,
        )
        driver.run()
        return counter_snapshot(setup, tracer)


def _sharing_run(system: str) -> tuple[dict[str, float], object]:
    workload = SysbenchWorkload(
        rows=ROWS, n_nodes=SHARING_NODES, key_dist="zipf", zipf_theta=0.9
    )
    setup = build_sharing_setup(system, SHARING_NODES, workload)
    with Tracer() as tracer:
        for node in setup.nodes:
            node.engine.meter.reset()
        driver = SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            workload.sharing_txn_fn("point_update"),
            shared_pct=SHARED_PCT,
            cost=setup.cost,
            workers_per_node=8,
            warmup_txns=1,
            measure_txns=4,
        )
        driver.run()
        snap = counter_snapshot(setup, tracer)
        # The acceptance gate: the full benchmark trace satisfies every
        # protocol invariant (and actually exercised the protocol).
        stats = assert_trace_invariants(tracer)
    return snap, stats


def _collect():
    snapshots = {
        system: _pooling_run(system) for system in ("dram", "cxl", "rdma")
    }
    sharing_snap, stats = _sharing_run("cxl")
    snapshots["sharing-cxl"] = sharing_snap
    return snapshots, stats


def test_counters_amplification(benchmark, report):
    snapshots, stats = benchmark.pedantic(_collect, rounds=1, iterations=1)

    text = format_counters(
        snapshots, title="Mechanism counters: pooling dram/cxl/rdma + sharing"
    )
    text += (
        f"\n\ninvariant check: {stats.events} events, "
        f"{stats.accesses_checked} accesses, "
        f"{stats.invalidations_tracked} invalidations, "
        f"{stats.releases_checked} releases, "
        f"{stats.appends_checked} wal appends — all invariants hold"
    )
    cxl_moved = snapshots["cxl"]["bytes_moved.cxl"]
    rdma_moved = snapshots["rdma"]["bytes_moved.rdma"]
    text += (
        f"\nbytes moved on identical workload: cxl={cxl_moved:,.0f} "
        f"rdma={rdma_moved:,.0f} (amplification {rdma_moved / cxl_moved:.1f}x)"
    )
    report("counters_amplification", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    dump_counters_json(RESULTS_DIR / "counters_amplification.json", snapshots)

    # Page-granular RDMA transfers dwarf CXL's line-granular traffic.
    assert rdma_moved > 2.0 * cxl_moved
    # DRAM-BP moves nothing over the interconnect once warm.
    assert snapshots["dram"].get("bytes_moved.interconnect", 0.0) == 0.0
    # Tracer and meters agree on what the hardware layer saw.
    assert snapshots["rdma"]["rdma.page_reads"] > 0
    assert snapshots["cxl"]["mem.cxl.line_misses"] > 0
    # The sharing trace was non-trivial: the checker verified real work.
    assert stats.accesses_checked > 0
    assert stats.releases_checked > 0
    assert stats.appends_checked > 0
