"""Harness builders and the Table 1/2 microbenchmarks."""

import pytest

from repro.bench.microbench import (
    TABLE1_PAPER,
    TABLE2_PAPER,
    measure_load_latency,
    measure_transfer_latency,
)
from repro.bench.report import banner, format_series, format_table, improvement_pct
from repro.obs.world import build_pooling_setup, build_sharing_setup
from repro.workloads.sysbench import SysbenchWorkload


class TestPoolingBuilder:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            build_pooling_setup("tcp", 1, SysbenchWorkload(rows=100))

    def test_instances_are_isolated(self):
        setup = build_pooling_setup("dram", 2, SysbenchWorkload(rows=100))
        a, b = setup.instances
        assert a.engine.page_store is not b.engine.page_store
        assert a.engine.buffer_pool is not b.engine.buffer_pool
        assert a.host is b.host  # but they share the host's pipes

    def test_meters_start_clean(self):
        setup = build_pooling_setup("rdma", 1, SysbenchWorkload(rows=100))
        meter = setup.instances[0].engine.meter
        assert meter.ns == 0
        assert meter.transfers == []

    def test_pools_prewarmed(self):
        setup = build_pooling_setup("cxl", 1, SysbenchWorkload(rows=200))
        engine = setup.instances[0].engine
        assert engine.buffer_pool.resident_count == len(engine.page_store)

    def test_rdma_lbp_fraction_respected(self):
        small = build_pooling_setup(
            "rdma", 1, SysbenchWorkload(rows=3000), lbp_fraction=0.1
        )
        large = build_pooling_setup(
            "rdma", 1, SysbenchWorkload(rows=3000), lbp_fraction=0.7
        )
        small_pool = small.instances[0].engine.buffer_pool
        large_pool = large.instances[0].engine.buffer_pool
        assert small_pool.capacity_pages < large_pool.capacity_pages


class TestSharingBuilder:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            build_sharing_setup("dram", 2, SysbenchWorkload(rows=100, n_nodes=2))

    def test_nodes_share_one_lock_service(self):
        setup = build_sharing_setup(
            "cxl", 2, SysbenchWorkload(rows=100, n_nodes=2)
        )
        assert all(
            node.lock_service is setup.lock_service for node in setup.nodes
        )

    def test_rdma_nodes_share_server_nic(self):
        setup = build_sharing_setup(
            "rdma", 2, SysbenchWorkload(rows=100, n_nodes=2)
        )
        assert setup.dbp_host is not None
        server_pipe = setup.dbp_host.nic.data_pipe
        for host in setup.hosts:
            assert server_pipe in host.pipes["rdma"]


class TestMicrobench:
    @pytest.mark.parametrize("kind", list(TABLE1_PAPER))
    def test_table1_within_tolerance(self, kind):
        paper_local, paper_remote = TABLE1_PAPER[kind]
        assert measure_load_latency(kind, False) == pytest.approx(
            paper_local, rel=0.05
        )
        assert measure_load_latency(kind, True) == pytest.approx(
            paper_remote, rel=0.05
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            measure_load_latency("optane", False)

    @pytest.mark.parametrize("size", [64, 16384])
    def test_table2_endpoints(self, size):
        paper = TABLE2_PAPER[size]
        measured = measure_transfer_latency(size)
        assert measured.rdma_write_us == pytest.approx(paper[0], rel=0.35)
        assert measured.cxl_write_us == pytest.approx(paper[1], rel=0.15)
        assert measured.rdma_read_us == pytest.approx(paper[2], rel=0.35)
        assert measured.cxl_read_us == pytest.approx(paper[3], rel=0.15)


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("xx", "y")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in lines[2]

    def test_format_series(self):
        text = format_series("x", [(0.0, 1000.0), (1.0, 2000.0)])
        assert "peak=2" in text

    def test_format_series_empty(self):
        assert "(empty)" in format_series("x", [])

    def test_improvement_pct(self):
        assert improvement_pct(100.0, 150.0) == pytest.approx(50.0)
        assert improvement_pct(0.0, 10.0) == 0.0

    def test_banner(self):
        assert "hello" in banner("hello")
