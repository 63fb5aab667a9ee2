"""CXL fabric, RDMA NIC, hosts and cluster topology."""

import pytest

from repro.hardware.cxl import CxlFabric, CxlMemoryDevice, CxlSwitch
from repro.hardware.host import Cluster, Host
from repro.hardware.memory import PoisonedMemoryError
from repro.hardware.rdma import RdmaNic
from repro.sim.latency import LatencyConfig


class TestCxlFabric:
    def test_default_pool_is_paper_testbed(self, sim):
        fabric = CxlFabric(sim)
        assert fabric.capacity == 2 << 40  # 8 x 256 GB
        assert len(fabric.devices) == 8

    def test_pool_capacity_limit(self, sim):
        with pytest.raises(ValueError):
            CxlFabric(
                sim,
                devices=[CxlMemoryDevice(f"d{i}", 2 << 40) for i in range(9)],
            )

    def test_map_pool_and_region_survives_host_crash(self, sim):
        fabric = CxlFabric(sim)
        region = fabric.map_pool(1 << 20)
        region.write(0, b"persist")
        region.power_fail()  # host crashes never reach here anyway
        assert region.read(0, 7) == b"persist"

    def test_map_pool_cannot_grow(self, sim):
        fabric = CxlFabric(sim)
        fabric.map_pool(1 << 20)
        with pytest.raises(ValueError):
            fabric.map_pool(1 << 21)
        # Re-mapping smaller is fine (same region).
        assert fabric.map_pool(1 << 19) is fabric.region

    def test_region_before_map_raises(self, sim):
        with pytest.raises(RuntimeError):
            CxlFabric(sim).region

    def test_host_links_unique_per_host(self, sim):
        fabric = CxlFabric(sim)
        a = fabric.host_link("h0")
        b = fabric.host_link("h1")
        assert a is not b
        assert fabric.host_link("h0") is a

    def test_switch_port_exhaustion(self, sim):
        switch = CxlSwitch(sim, "sw", 1e12, max_ports=2)
        switch.connect("a")
        switch.connect("b")
        with pytest.raises(RuntimeError):
            switch.connect("c")

    def test_pool_box_failure_destroys_contents(self, sim):
        fabric = CxlFabric(sim)
        region = fabric.map_pool(1 << 20)
        region.write(0, b"gone")
        fabric.power_fail_pool()
        assert region.read(0, 4) == b"\x00" * 4

    def test_device_validation(self):
        with pytest.raises(ValueError):
            CxlMemoryDevice("bad", 0)


class TestRdmaNic:
    def test_latency_model_matches_table2(self, sim):
        nic = RdmaNic(sim, "nic")
        assert nic.read_ns(64) == pytest.approx(4550, rel=0.01)
        assert nic.write_ns(16384) == pytest.approx(6120, rel=0.01)

    def test_read_event_completes_with_base_plus_occupancy(self, sim):
        nic = RdmaNic(sim, "nic")

        def proc():
            yield nic.read(16384)
            return sim.now

        elapsed = sim.run_process(proc())
        config = LatencyConfig()
        expected = int(config.rdma_read_ns(16384)) + int(
            16384 * 1e9 / config.rdma_nic_bandwidth
        )
        assert elapsed == pytest.approx(expected, rel=0.01)

    def test_bandwidth_ceiling_serializes(self, sim):
        nic = RdmaNic(sim, "nic")
        done = []

        def proc():
            yield nic.write(12_000_000)  # 1 ms of pipe at 12 GB/s
            done.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert done[1] - done[0] == pytest.approx(1_000_000, rel=0.01)

    def test_ops_pipe_counts_iops(self, sim):
        nic = RdmaNic(sim, "nic")
        for _ in range(5):
            nic.read(64)
        assert nic.ops_pipe.total_transfers == 5


class TestHostAndCluster:
    def test_host_pipes_registered(self, cluster):
        host = cluster.add_host("h0")
        for key in ("rdma", "rdma_ops", "cxl", "storage", "wal", "client"):
            assert key in host.pipes, key

    def test_host_without_rdma(self, cluster):
        host = cluster.add_host("nordma", with_rdma=False)
        assert "rdma" not in host.pipes
        assert host.nic is None

    def test_duplicate_host_rejected(self, cluster):
        cluster.add_host("dup")
        with pytest.raises(ValueError):
            cluster.add_host("dup")

    def test_crash_poisons_only_dram(self, cluster):
        host = cluster.add_host("h0")
        dram = host.alloc_dram("x", 4096)
        dram.write(0, b"v")
        remote = cluster.alloc_remote_memory("rm", 4096)
        remote.write(0, b"r")
        host.crash()
        with pytest.raises(PoisonedMemoryError):
            dram.read(0, 1)
        assert remote.read(0, 1) == b"r"
        host.restart()
        assert dram.read(0, 1) == b"\x00"

    def test_duplicate_remote_region_rejected(self, cluster):
        cluster.alloc_remote_memory("rm", 4096)
        with pytest.raises(ValueError):
            cluster.alloc_remote_memory("rm", 4096)

    def test_cluster_without_fabric(self, sim):
        cluster = Cluster(sim, with_fabric=False)
        host = cluster.add_host("h0")
        assert "cxl" not in host.pipes
