"""Counter regression snapshots: a fixed workload's exact mechanism counts.

Every counter here is derived purely from the seeded functional run —
no wall-clock, no ordering nondeterminism — so the numbers are exact,
and any drift means the mechanism changed: a different number of cache
misses, RPCs, flushed lines or WAL records for the identical workload.
That is precisely the regression an end-to-end assertion on recovered
state or on throughput shape cannot see.

If a change legitimately alters these numbers (e.g. a smarter eviction
policy), re-derive them by running the fixture workload and update the
pins — consciously, in the same commit.
"""

import pytest

from repro.bench.harness import counter_snapshot
from repro.obs import Tracer
from repro.obs.world import build_pooling_setup, build_sharing_setup, reset_meters
from repro.workloads.driver import PoolingDriver, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

ROWS = 400


def _pooling_snapshot(system: str) -> dict[str, float]:
    workload = SysbenchWorkload(rows=ROWS)
    setup = build_pooling_setup(system, 1, workload)
    with Tracer() as tracer:
        reset_meters(setup.instances)
        PoolingDriver(
            setup.sim,
            setup.instances,
            workload.txn_fn("point_select"),
            workers_per_instance=8,
            warmup_txns=1,
            measure_txns=4,
        ).run()
        return counter_snapshot(setup, tracer)


def _sharing_snapshot() -> dict[str, float]:
    workload = SysbenchWorkload(rows=ROWS, n_nodes=2)
    setup = build_sharing_setup("cxl", 2, workload)
    with Tracer() as tracer:
        for node in setup.nodes:
            node.engine.meter.reset()
        SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            workload.sharing_txn_fn("point_update"),
            shared_pct=50,
            cost=setup.cost,
            workers_per_node=4,
            warmup_txns=1,
            measure_txns=3,
        ).run()
        return counter_snapshot(setup, tracer)


@pytest.fixture(scope="module")
def cxl_pooling():
    return _pooling_snapshot("cxl")


@pytest.fixture(scope="module")
def rdma_pooling():
    return _pooling_snapshot("rdma")


@pytest.fixture(scope="module")
def cxl_sharing():
    return _sharing_snapshot()


# Exact values for the fixture workloads above; see module docstring
# before touching any of them.
CXL_POOLING_PINS = {
    "bytes_moved.cxl": 14912,
    "bytes_moved.interconnect": 14912,
    "mem.cxl.line_hits": 703,
    "mem.cxl.line_misses": 233,
    "meter.client_ops": 40,
    "meter.cxl_ops": 178,
    "mtr.commits": 41,
    "pool.cxl.hits": 81,
}

RDMA_POOLING_PINS = {
    "bytes_moved.rdma": 212992,  # 13 page transfers x 16 KB
    "bytes_moved.interconnect": 212992,
    "meter.client_ops": 40,
    "mtr.commits": 41,
    "pool.rdma.misses": 13,
    "pool.rdma.remote_fetches": 13,
    "pool.rdma.evictions": 13,
    "rdma.page_reads": 13,
    "rdma.read_bytes": 212992,
}

# Re-pinned when the per-page sharer directory replaced broadcast
# invalidation: pushes now go to current sharers only (157 -> 97 for
# the identical workload), every observed invalidation is followed by
# one reshare RPC (hence rpcs 42 -> 130 with reshares == observed),
# and flag stores shrink with the skipped pushes. The functional
# outputs (commits, WAL records, lines flushed) are unchanged.
CXL_SHARING_PINS = {
    "bytes_moved.cxl": 700864,
    "bytes_moved.wal": 8960,
    "cache.lines_flushed": 626,
    "coh.flag_reads": 2484,
    "coh.flag_stores": 269,
    "fusion.invalidations_pushed": 97,
    "fusion.pages_loaded": 31,
    "fusion.reshares": 88,
    "fusion.rpcs": 130,
    "lock.write_acquires": 320,
    "mtr.commits": 644,
    "sharing.invalidations_observed": 88,
    "sharing.lines_flushed": 626,
    "wal.records_appended": 320,
    "wal.records_flushed": 320,
    "wal.bytes_flushed": 8960,
}


def _assert_pinned(snapshot: dict[str, float], pins: dict[str, int]) -> None:
    mismatches = {
        name: (snapshot.get(name), expected)
        for name, expected in pins.items()
        if snapshot.get(name) != expected
    }
    assert not mismatches, (
        "mechanism counters drifted (got, pinned): "
        + ", ".join(f"{k}={v}" for k, v in sorted(mismatches.items()))
    )


class TestPinnedCounters:
    def test_cxl_pooling_exact(self, cxl_pooling):
        _assert_pinned(cxl_pooling, CXL_POOLING_PINS)

    def test_rdma_pooling_exact(self, rdma_pooling):
        _assert_pinned(rdma_pooling, RDMA_POOLING_PINS)

    def test_cxl_sharing_exact(self, cxl_sharing):
        _assert_pinned(cxl_sharing, CXL_SHARING_PINS)


class TestCrossCounterConsistency:
    """Relations that must hold between counters, whatever their values."""

    def test_tracer_and_meter_agree_on_interconnect_bytes(
        self, cxl_pooling, rdma_pooling
    ):
        assert (
            cxl_pooling["bytes_moved.cxl"] == cxl_pooling["meter.cxl_bytes"]
        )
        assert (
            rdma_pooling["bytes_moved.rdma"] == rdma_pooling["meter.rdma_bytes"]
        )

    def test_rdma_bytes_are_whole_pages(self, rdma_pooling):
        assert rdma_pooling["rdma.read_bytes"] == (
            rdma_pooling["rdma.page_reads"] * 16384
        )

    def test_sharing_flush_paths_agree(self, cxl_sharing):
        # The pool-level and cache-level accounting of release flushes
        # must count the same lines.
        assert (
            cxl_sharing["sharing.lines_flushed"]
            == cxl_sharing["cache.lines_flushed"]
        )
        assert cxl_sharing["sharing.flush_bytes"] == (
            cxl_sharing["sharing.lines_flushed"] * 64
        )

    def test_wal_appends_match_staged_records(self, cxl_sharing):
        assert (
            cxl_sharing["wal.records_appended"]
            == cxl_sharing["mtr.records_staged"]
        )
        assert (
            cxl_sharing["wal.records_appended"]
            == cxl_sharing["meter.redo_records"]
        )

    def test_amplification_visible_at_fixed_workload(
        self, cxl_pooling, rdma_pooling
    ):
        assert (
            rdma_pooling["bytes_moved.interconnect"]
            > 10 * cxl_pooling["bytes_moved.interconnect"]
        )
