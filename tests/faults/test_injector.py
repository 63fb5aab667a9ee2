"""Unit tests for the fault-injection subsystem.

The integration sweeps (``tests/integration/test_crash_sweep.py``) prove
recovery end to end; these tests pin down the injector's own contract —
hit counting, arming modes, installation rules, torn-write effects, and
the hardware fault semantics (volatile memory poisoning, cache drops on
host crash, RPC loss with retry/backoff) the sweeps build on.
"""

import pytest

from repro.faults.injector import FaultInjector, InjectedCrash, crash_point
from repro.hardware.cache import CpuCache, LineCacheModel
from repro.hardware.memory import MemoryRegion, PoisonedMemoryError
from repro.obs.probes import PROBES
from repro.storage.pagestore import SECTOR_SIZE, PageStore
from repro.storage.wal import RedoLog


class TestInjectorSemantics:
    def test_crash_point_is_noop_when_uninstalled(self):
        assert PROBES.injector is None
        crash_point("anything")  # must not raise

    def test_hits_are_counted_and_traced(self):
        inj = FaultInjector()
        inj.point("a")
        inj.point("b")
        inj.point("a")
        assert inj.hits == {"a": 2, "b": 1}
        assert inj.trace == [("a", 1), ("b", 1), ("a", 2)]
        assert inj.fired is None

    def test_arm_fires_at_exactly_the_armed_hit(self):
        inj = FaultInjector().arm("a", 2)
        inj.point("a")  # hit 1: survives
        inj.point("b")
        with pytest.raises(InjectedCrash) as exc:
            inj.point("a")  # hit 2: fires
        assert exc.value.point == "a"
        assert exc.value.hit == 2
        assert inj.fired == ("a", 2)

    def test_arm_after_total_counts_across_names(self):
        inj = FaultInjector().arm_after_total(3)
        inj.point("a")
        inj.point("b")
        with pytest.raises(InjectedCrash):
            inj.point("c")
        assert inj.fired == ("c", 1)

    def test_resume_after_counts_on_from_the_given_hits(self):
        inj = FaultInjector(seed=3).resume_after({"a": 2, "b": 1}).arm_after_total(5)
        untouched = FaultInjector(seed=3).rng.getstate()
        assert inj.rng.getstate() == untouched and inj.trace == []
        inj.point("a")  # total 4
        with pytest.raises(InjectedCrash):
            inj.point("b", torn=lambda rng: rng.random())  # total 5: fires, torn
        assert inj.trace == [("a", 3), ("b", 2)]  # starts at the boundary
        assert inj.hits == {"a": 3, "b": 2} and inj.fired == ("b", 2)
        assert inj.rng.getstate() != untouched  # only the torn callback drew

    def test_resumed_arm_fires_at_the_same_coordinate_as_a_full_count(self):
        full = FaultInjector().arm("a", 3)
        full.point("a")
        full.point("b")
        full.point("a")
        resumed = FaultInjector().resume_after(full.hits).arm("a", 3)
        for inj in (full, resumed):
            with pytest.raises(InjectedCrash) as exc:
                inj.point("a")
            assert (exc.value.point, exc.value.hit) == ("a", 3)
        assert resumed.hits == full.hits and resumed.trace == full.trace[-1:]

    def test_arming_is_one_based(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("a", 0)
        with pytest.raises(ValueError):
            FaultInjector().arm_after_total(0)

    def test_disarm_stops_firing(self):
        inj = FaultInjector().arm("a", 1)
        inj.disarm()
        inj.point("a")  # would have fired
        assert inj.fired is None

    def test_torn_callback_runs_only_when_firing(self):
        calls = []
        inj = FaultInjector().arm("a", 2)
        inj.point("a", torn=lambda rng: calls.append("no"))
        with pytest.raises(InjectedCrash):
            inj.point("a", torn=lambda rng: calls.append("yes"))
        assert calls == ["yes"]

    def test_bulk_hits_fire_at_the_armed_hit_with_the_trace_cut_there(self):
        with FaultInjector().arm("a", 7) as inj:
            crash_point("a", hits=4)  # hits 1..4 survive
            with pytest.raises(InjectedCrash) as exc:
                crash_point("a", hits=10)  # hit 7 is the third of these
        assert (exc.value.point, exc.value.hit) == ("a", 7)
        assert inj.fired == ("a", 7)
        assert inj.hits == {"a": 7}
        assert inj.trace == [("a", hit) for hit in range(1, 8)]

    def test_arm_after_total_fires_inside_a_bulk_advance(self):
        with FaultInjector().arm_after_total(5) as inj:
            crash_point("a", hits=2)
            crash_point("b")
            with pytest.raises(InjectedCrash):
                crash_point("a", hits=6)  # totals 4, 5: fires at a's 4th hit
        assert inj.fired == ("a", 4)
        assert inj.trace == [("a", 1), ("a", 2), ("b", 1), ("a", 3), ("a", 4)]

    def test_zero_hits_record_nothing_and_negative_hits_are_refused(self):
        crash_point("a", hits=0)  # nothing installed: still a no-op
        with FaultInjector().arm("a", 1) as inj:
            crash_point("a", hits=0)
            with pytest.raises(ValueError):
                crash_point("a", hits=-1)
        assert inj.trace == [] and inj.hits == {} and inj.fired is None

    def test_bulk_advances_sum_to_the_per_call_loop(self):
        with FaultInjector() as bulk:
            crash_point("a", hits=3)
            crash_point("b", hits=2)
            crash_point("a", hits=253)
        with FaultInjector() as loop:
            for name, hits in (("a", 3), ("b", 2), ("a", 253)):
                for _ in range(hits):
                    crash_point(name)
        assert bulk.trace == loop.trace
        assert bulk.hits == loop.hits == {"a": 256, "b": 2}
        assert bulk._total_hits == loop._total_hits == 258

    def test_rpc_failures_are_consumed(self):
        inj = FaultInjector().fail_rpcs("rpc", 2)
        assert inj.take_rpc_failure("rpc")
        assert inj.take_rpc_failure("rpc")
        assert not inj.take_rpc_failure("rpc")
        assert not inj.take_rpc_failure("other")
        assert inj.rpc_failures_injected == 2
        with pytest.raises(ValueError):
            inj.fail_rpcs("rpc", -1)


class TestInstallation:
    def test_context_manager_installs_and_uninstalls(self):
        with FaultInjector() as inj:
            assert PROBES.injector is inj
        assert PROBES.injector is None

    def test_double_install_of_a_different_injector_fails(self):
        with FaultInjector():
            with pytest.raises(RuntimeError):
                FaultInjector().__enter__()
        assert PROBES.injector is None

    def test_uninstalling_someone_elses_injector_fails(self):
        with FaultInjector():
            with pytest.raises(RuntimeError):
                PROBES.uninstall("injector", FaultInjector())
        assert PROBES.injector is None

    def test_uninstall_is_idempotent(self):
        PROBES.uninstall("injector")
        PROBES.uninstall("injector", FaultInjector())  # nothing installed: fine


class TestMemoryRegionPower:
    def test_volatile_region_is_poisoned_until_restored(self):
        region = MemoryRegion("dram", 128, volatile=True)
        region.write(0, b"hello")
        region.power_fail()
        assert region.poisoned
        with pytest.raises(PoisonedMemoryError, match="power_restore"):
            region.read(0, 5)
        with pytest.raises(PoisonedMemoryError):
            region.write(0, b"x")
        region.power_fail()  # cascading failure: still just poisoned
        region.power_restore()
        assert region.read(0, 5) == b"\x00" * 5  # contents gone

    def test_restore_of_a_healthy_region_keeps_contents(self):
        region = MemoryRegion("dram", 128, volatile=True)
        region.write(0, b"keep")
        region.power_restore()
        assert region.read(0, 4) == b"keep"

    def test_nonvolatile_region_survives_power_fail(self):
        region = MemoryRegion("cxl", 128, volatile=False)
        region.write(0, b"durable")
        region.power_fail()
        assert not region.poisoned
        assert region.read(0, 7) == b"durable"


class TestHostCrashDropsCaches:
    def test_dirty_cpu_cache_lines_die_unwritten(self, host):
        """Host SRAM does not survive power loss: a dirty line that was
        never flushed must not resurrect after the crash."""
        region = MemoryRegion("shared", 4096, volatile=False)
        region.write(0, b"\x11" * 64)
        cache = CpuCache("c0")
        host.register_cache(cache)
        cache.write(region, 0, b"\x22" * 64)  # dirty, not written back
        assert cache.read(region, 0, 64) == b"\x22" * 64
        host.crash()
        host.restart()
        # The cached copy is gone; reads refill from the backing region.
        assert cache.read(region, 0, 64) == b"\x11" * 64
        assert region.read(0, 64) == b"\x11" * 64

    def test_timing_cache_is_cold_after_crash(self, host):
        timing = LineCacheModel()
        host.register_cache(timing)
        assert not timing.touch("r", 0)  # miss
        assert timing.touch("r", 0)  # warm hit
        host.crash()
        host.restart()
        assert not timing.touch("r", 0)  # cold again

    def test_register_cache_deduplicates(self, host):
        cache = CpuCache("c1")
        before = len(host.caches)
        host.register_cache(cache)
        host.register_cache(cache)
        assert len(host.caches) == before + 1


class TestTornPageStoreWrites:
    def test_torn_write_leaves_sector_prefix_of_new_image(self):
        store = PageStore(page_size=4096)
        old = bytes([0xAA]) * 4096
        new = bytes([0xBB]) * 4096
        store.write_page(7, old)
        with FaultInjector(seed=123) as inj:
            inj.arm("pagestore.write_page")
            with pytest.raises(InjectedCrash):
                store.write_page(7, new)
        assert store.torn_writes == 1
        image = store.read_page_unmetered(7)
        assert len(image) == 4096
        cuts = [
            cut
            for cut in range(0, 4096 + 1, SECTOR_SIZE)
            if image == new[:cut] + old[cut:]
        ]
        assert cuts, "torn image is not a sector-granular prefix"

    def test_torn_write_is_deterministic_under_a_seed(self):
        def tear(seed):
            store = PageStore(page_size=4096)
            store.write_page(3, bytes(4096))
            with FaultInjector(seed=seed) as inj:
                inj.arm("pagestore.write_page")
                with pytest.raises(InjectedCrash):
                    store.write_page(3, bytes([0xCC]) * 4096)
            return store.read_page_unmetered(3)

        assert tear(99) == tear(99)

    def test_never_written_page_tears_over_zeros(self):
        store = PageStore(page_size=4096)
        with FaultInjector(seed=5) as inj:
            inj.arm("pagestore.write_page")
            with pytest.raises(InjectedCrash):
                store.write_page(1, bytes([0xDD]) * 4096)
        image = store.read_page_unmetered(1)
        assert set(image) <= {0xDD, 0x00}


class TestMemoryManagerCrashPoint:
    def test_crashed_allocation_leaks_but_never_overlaps(self, cluster):
        from repro.core.memmgr import CxlMemoryManager

        manager = CxlMemoryManager(cluster.fabric, 16 << 21)
        with FaultInjector() as inj:
            inj.arm("memmgr.allocate")
            with pytest.raises(InjectedCrash):
                manager.allocate("a", 1 << 21)
        # The reply was lost after the reservation: the space leaks
        # (bump allocator), so the retry gets a disjoint extent.
        extent = manager.allocate("a", 1 << 21)
        assert extent.offset >= 1 << 21


class TestRedoLogAlignment:
    def test_align_lsn_only_moves_forward(self):
        redo = RedoLog()
        redo.append(1, 0, b"x")  # consumes LSN 1
        redo.align_lsn(100)
        assert redo.next_lsn == 101
        redo.align_lsn(10)  # below the counter: no-op
        assert redo.next_lsn == 101
        assert redo.append(1, 0, b"y") == 101


class TestRpcLossRetryBackoff:
    def _setup(self, seed=3):
        from repro.bench.harness import build_sharing_setup
        from repro.workloads.sysbench import SysbenchWorkload

        workload = SysbenchWorkload(rows=60, n_nodes=2)
        return build_sharing_setup("cxl", 2, workload, seed=seed)

    def test_node_retries_through_transient_fusion_loss(self):
        setup = self._setup()
        node = setup.nodes[0]
        with FaultInjector() as inj:
            inj.fail_rpcs("fusion.request_page", 2)
            row = setup.sim.run_process(node.point_select("sbtest_shared", 5))
        assert row["id"] == 5
        assert node.engine.buffer_pool.rpc_retries == 2
        assert inj.rpc_failures_injected == 2

    def test_sustained_loss_surfaces_after_max_retries(self):
        from repro.core.fusion import FusionUnavailableError

        setup = self._setup()
        node = setup.nodes[0]
        max_retries = node.engine.buffer_pool.config.rpc_max_retries
        with FaultInjector() as inj:
            inj.fail_rpcs("fusion.request_page", max_retries + 1)
            with pytest.raises(FusionUnavailableError):
                setup.sim.run_process(node.point_select("sbtest_shared", 5))
        assert node.engine.buffer_pool.rpc_retries == max_retries + 1
