"""fig_scale smoke: the scalability harness at its two smallest points.

The full 2–32 curve lives in ``benchmarks/test_fig_scale.py``; tier-1
pins the harness mechanics at N ∈ {2, 4} so a regression in the scale
workload, the shard sizing, or the per-point monitoring stack fails
fast. The scaling *shape* assertions (bounded CXL invalidations per
release, the widening interconnect gap) belong to the benchmark, but
the direction of every curve is already visible — and checked — here.
"""

import pytest

from repro.bench.scale import (
    SCALE_NODES,
    SCALE_SYSTEMS,
    make_scale_txn_fn,
    node_keys,
    run_scale_curve,
    run_scale_point,
    shards_for,
)
from repro.obs.metrics import MetricsPipeline
from repro.sim.rng import WorkloadRng

SEED = 7


@pytest.fixture(scope="module")
def curve():
    return run_scale_curve(nodes=(2, 4), seed=SEED)


class TestScaleWorkload:
    def test_key_blocks_tile_the_table(self):
        for n_nodes in SCALE_NODES:
            seen = set()
            for i in range(n_nodes):
                block = set(node_keys(i, n_nodes, 120))
                assert block, (i, n_nodes)
                assert not (seen & block)
                seen |= block
            assert seen == set(range(1, 121))

    def test_first_txn_per_node_is_the_global_scan(self):
        txn = make_scale_txn_fn(4)
        rng = WorkloadRng(seed=SEED)
        scan = txn(rng, 0, 100.0)
        assert all(op.kind == "select" for op in scan)
        assert len(scan) > 10  # strides the whole table
        steady = txn(rng, 0, 100.0)
        kinds = [op.kind for op in steady]
        assert kinds.count("update") == 4 and kinds.count("select") == 4
        # Updates stay in the node's own block; reads go to the peer's.
        mine, theirs = set(node_keys(0, 4, 120)), set(node_keys(1, 4, 120))
        for op in steady:
            assert op.key in (mine if op.kind == "update" else theirs)


class TestScaleCurveSmoke:
    def test_runs_every_point_for_both_systems(self, curve):
        assert {(p["system"], p["n_nodes"]) for p in curve} == {
            (system, n) for system in SCALE_SYSTEMS for n in (2, 4)
        }
        assert all(p["tps"] > 0 for p in curve)

    def test_every_point_is_memsan_clean(self, curve):
        assert all(p["memsan_reports"] == 0 for p in curve)

    def test_cxl_fleet_is_sharded_per_policy(self, curve):
        for point in curve:
            expected = shards_for(point["n_nodes"]) if point["system"] == "cxl" else 1
            assert point["n_shards"] == expected

    def test_invalidation_cost_diverges_with_the_fleet(self, curve):
        by = {(p["system"], p["n_nodes"]): p for p in curve}
        # Twice the fleet roughly doubles the baseline's per-release
        # invalidation messages; the directory keeps CXL's bounded.
        assert (
            by[("rdma", 4)]["invalidations_per_release"]
            > 2 * by[("cxl", 4)]["invalidations_per_release"]
        )
        assert by[("cxl", 4)]["invalidations_per_release"] < 3.0
        assert by[("cxl", 4)]["reshares"] > 0

    def test_interconnect_gap_widens(self, curve):
        by = {(p["system"], p["n_nodes"]): p for p in curve}
        gaps = [
            by[("rdma", n)]["interconnect_bytes"]
            - by[("cxl", n)]["interconnect_bytes"]
            for n in (2, 4)
        ]
        assert 0 < gaps[0] < gaps[1]

    def test_parallel_run_merges_identically(self, curve):
        again = run_scale_curve(nodes=(2, 4), seed=SEED, jobs=2)
        assert again == curve

    def test_a_point_is_the_same_under_a_callers_pipeline(self, curve):
        with MetricsPipeline():
            point = run_scale_point("cxl", 2, seed=SEED)
        assert point == next(p for p in curve if (p["system"], p["n_nodes"]) == ("cxl", 2))
