"""The hot-path optimizations must not move a single pinned counter.

Two claims, pinned against ``benchmarks/results/counters_amplification.json``
(committed before the optimization pass, regenerated by
``python -m repro.bench counters``):

1. Re-running the exact benchmark workload reproduces the pinned JSON
   **byte for byte** — every latency charge, line miss, RPC and flushed
   line is identical, so batched settling, latency tables and the
   memoized access path changed *nothing* observable.
2. Running with the tracer disabled yields the identical simulation-side
   counters (the tracer only ever observes; it never perturbs).
"""

import json
from pathlib import Path

import pytest

from repro.bench.harness import counter_snapshot
from repro.bench.report import dump_counters_json
from repro.obs import Tracer
from repro.obs.world import build_pooling_setup, build_sharing_setup, reset_meters
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

PINNED = Path(__file__).parent.parent.parent / "benchmarks" / "results"
PINNED_FILE = PINNED / "counters_amplification.json"

# Exact parameters of benchmarks/test_counters_amplification.py.
ROWS = 1200
INSTANCES = 2
SHARING_NODES = 4
SHARED_PCT = 40


def _pooling_run(system: str, traced: bool) -> dict[str, float]:
    workload = SysbenchWorkload(rows=ROWS)
    setup = build_pooling_setup(system, INSTANCES, workload)
    tracer_ctx = Tracer() if traced else None

    def run():
        reset_meters(setup.instances)
        PoolingDriver(
            setup.sim,
            setup.instances,
            workload.txn_fn("point_select"),
            workers_per_instance=24,
            warmup_txns=1,
            measure_txns=6,
        ).run()
        return counter_snapshot(setup, tracer_ctx)

    if tracer_ctx is not None:
        with tracer_ctx:
            return run()
    return run()


def _sharing_run(system: str) -> dict[str, float]:
    workload = SysbenchWorkload(
        rows=ROWS, n_nodes=SHARING_NODES, key_dist="zipf", zipf_theta=0.9
    )
    setup = build_sharing_setup(system, SHARING_NODES, workload)
    with Tracer() as tracer:
        for node in setup.nodes:
            node.engine.meter.reset()
        SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            workload.sharing_txn_fn("point_update"),
            shared_pct=SHARED_PCT,
            cost=setup.cost,
            workers_per_node=8,
            warmup_txns=1,
            measure_txns=4,
        ).run()
        return counter_snapshot(setup, tracer)


@pytest.mark.skipif(not PINNED_FILE.exists(), reason="pinned snapshot not generated")
def test_benchmark_counters_byte_identical_to_pinned(tmp_path):
    snapshots = {
        system: _pooling_run(system, traced=True) for system in ("dram", "cxl", "rdma")
    }
    snapshots["sharing-cxl"] = _sharing_run("cxl")
    regenerated = tmp_path / "counters_amplification.json"
    dump_counters_json(regenerated, snapshots)
    assert regenerated.read_bytes() == PINNED_FILE.read_bytes()


@pytest.mark.skipif(not PINNED_FILE.exists(), reason="pinned snapshot not generated")
def test_tracer_off_counters_identical_to_pinned():
    # No tracer installed: the snapshot contains only simulation-side
    # counters (meter.*, pool_stats.*, fusion/dbp stats, bytes_moved.*).
    # Each must equal the pinned traced run exactly — proof the tracer
    # observes without perturbing, and that the tracer-off fast path
    # (one global load) charges identically.
    pinned = json.loads(PINNED_FILE.read_text())
    for system in ("cxl", "rdma"):
        snap = _pooling_run(system, traced=False)
        assert snap, system
        for key, value in snap.items():
            assert float(pinned[system][key]) == float(value), (system, key)
