"""Sharer directory and the sharded fusion tier (router + protocol).

The directory half: invalidation cost on write release must scale with
the number of *current sharers* of the page, not with how many nodes
ever registered — dropped sharers rejoin via the reshare RPC after they
observe their sticky invalid flag. The router half: page operations go
only to the owning shard (deterministic hash), fleet operations fan out,
and failover/retirement stay per-shard.
"""

import pytest

from repro.core.directory import SharerDirectory
from repro.core.fusion import BufferFusionServer
from repro.core.shard_router import FusionShardRouter, shard_of_page
from repro.db.constants import PAGE_SIZE, PT_LEAF
from repro.db.page import format_empty_page
from repro.hardware.memory import AccessMeter, MemoryRegion
from repro.obs.world import build_sharing_setup
from repro.storage.pagestore import PageStore
from repro.workloads.sysbench import SysbenchWorkload


@pytest.fixture
def store():
    store = PageStore(PAGE_SIZE)
    for page_id in range(40):
        store.write_page(page_id, format_empty_page(page_id, PT_LEAF))
    return store


def _server(region, store, base, service="fusion"):
    return BufferFusionServer(
        region, pages_base=base, n_slots=16, page_store=store, service=service
    )


@pytest.fixture
def router(store):
    region = MemoryRegion("dbp", 40 * PAGE_SIZE, volatile=False)
    shards = [
        _server(region, store, 0, "fusion/0"),
        _server(region, store, 20 * PAGE_SIZE, "fusion/1"),
    ]
    return FusionShardRouter(shards)


class TestSharerDirectory:
    def test_add_is_idempotent(self):
        d = SharerDirectory()
        d.add(1, "a")
        d.add(1, "a")
        assert d.sharers(1) == ("a",)
        assert d.adds == 1

    def test_drop_semantics(self):
        d = SharerDirectory()
        d.add(1, "a")
        d.add(1, "b")
        assert d.drop(1, "a") is True
        assert d.drop(1, "a") is False  # already gone
        assert d.sharers(1) == ("b",)

    def test_drop_node_spans_pages(self):
        d = SharerDirectory()
        d.add(1, "a")
        d.add(2, "a")
        d.add(2, "b")
        assert d.drop_node("a") == 2
        assert d.sharers(1) == ()
        assert d.sharers(2) == ("b",)

    def test_drop_page_forgets_everyone(self):
        d = SharerDirectory()
        d.add(3, "a")
        d.add(3, "b")
        assert d.drop_page(3) == 2
        assert d.page_count() == 0


class TestDirectoryDrivenInvalidation:
    """The flag-push cost scales with sharers, not registrants."""

    def _fusion(self, store):
        region = MemoryRegion("dbp", 20 * PAGE_SIZE, volatile=False)
        return _server(region, store, 0)

    def _flag_region(self):
        return MemoryRegion("flags", 4096, volatile=False)

    def test_release_pushes_only_to_current_sharers(self, store):
        fusion = self._fusion(store)
        meter = AccessMeter()
        # Eight nodes register (broadcast would push 7 flags per release)
        for i in range(8):
            fusion.request_page(3, f"n{i}", 100 + 2 * i, 101 + 2 * i, meter)
        assert fusion.on_write_release(3, "n0", meter) == 7
        # Every non-writer was dropped from the directory at push time;
        # until someone reshares, the writer's next release pushes 0.
        assert fusion.directory.sharers(3) == ("n0",)
        assert fusion.on_write_release(3, "n0", meter) == 0

    def test_reshare_rejoins_the_directory(self, store):
        fusion = self._fusion(store)
        meter = AccessMeter()
        fusion.request_page(5, "n0", 100, 101, meter)
        fusion.request_page(5, "n1", 102, 103, meter)
        fusion.on_write_release(5, "n0", meter)
        assert fusion.directory.sharers(5) == ("n0",)
        assert fusion.reshare(5, "n1", meter) is True
        assert fusion.directory.sharers(5) == ("n0", "n1")
        assert fusion.on_write_release(5, "n0", meter) == 1
        assert fusion.reshares == 1

    def test_reshare_of_unknown_page_or_node_is_refused(self, store):
        fusion = self._fusion(store)
        meter = AccessMeter()
        assert fusion.reshare(9, "n0", meter) is False  # page not resident
        fusion.request_page(9, "n0", 100, 101, meter)
        assert fusion.reshare(9, "ghost", meter) is False  # never registered

    def test_deregister_and_recycle_drop_directory_state(self, store):
        fusion = self._fusion(store)
        meter = AccessMeter()
        fusion.request_page(7, "n0", 100, 101, meter)
        fusion.request_page(7, "n1", 102, 103, meter)
        fusion.deregister(7, "n1")
        assert fusion.directory.sharers(7) == ("n0",)
        fusion.recycle(16, meter)
        assert fusion.directory.page_count() == 0

    def test_hw_coherent_registrants_never_enter_the_directory(self, store):
        fusion = self._fusion(store)
        meter = AccessMeter()
        # Address 0 = no flags (cxl3 hardware-coherent mode).
        fusion.request_page(2, "hw0", 0, 0, meter)
        assert fusion.directory.sharers(2) == ()


class TestShardOfPage:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for page in range(200):
                owner = shard_of_page(page, n)
                assert 0 <= owner < n
                assert owner == shard_of_page(page, n)

    def test_single_shard_is_always_zero(self):
        assert all(shard_of_page(p, 1) == 0 for p in range(100))

    def test_sequential_pages_spread(self):
        owners = {shard_of_page(p, 4) for p in range(16)}
        assert len(owners) == 4  # mixing breaks allocation-order striping


class TestFusionShardRouter:
    def test_page_ops_go_to_the_owning_shard(self, router, store):
        meter = AccessMeter()
        page = 6
        owner = router.owner_index(page)
        router.request_page(page, "n0", 100, 101, meter)
        assert router.shards[owner].has_page(page)
        assert not router.shards[1 - owner].has_page(page)
        assert router.has_page(page)
        assert router.entry_of(page).active["n0"] == (100, 101)

    def test_counters_aggregate_across_shards(self, router):
        meter = AccessMeter()
        for page in range(10):
            router.request_page(page, "n0", 100, 101, meter)
        assert router.rpcs == 10
        assert router.pages_loaded == 10
        assert router.resident_count == 10
        per_shard = [shard.pages_loaded for shard in router.shards]
        assert sum(per_shard) == 10
        assert all(count > 0 for count in per_shard)  # both shards used

    def test_deregister_node_fans_out(self, router):
        meter = AccessMeter()
        for page in range(10):
            router.request_page(page, "n0", 100, 101, meter)
        assert router.deregister_node("n0") == 10
        assert all(
            shard.directory.page_count() == 0 for shard in router.shards
        )

    def test_recycle_respects_the_total_budget(self, router):
        meter = AccessMeter()
        for page in range(12):
            router.request_page(page, "n0", 100, 101, meter)
        recycled = router.recycle(5, meter)
        assert len(recycled) == 5
        assert router.resident_count == 7


class TestShardedSetupBuild:
    def test_build_rejects_sharding_off_cxl(self):
        workload = SysbenchWorkload(rows=80, n_nodes=2)
        with pytest.raises(ValueError, match="sharded fusion tier"):
            build_sharing_setup("rdma", 2, workload, n_shards=2)

    def test_single_shard_build_is_a_plain_server(self):
        workload = SysbenchWorkload(rows=80, n_nodes=2)
        setup = build_sharing_setup("cxl", 2, workload)
        assert isinstance(setup.fusion, BufferFusionServer)
        assert setup.fusion_shards == [setup.fusion]
        assert setup.n_shards == 1

    def test_sharded_build_routes_and_runs(self):
        workload = SysbenchWorkload(rows=120, n_nodes=2)
        setup = build_sharing_setup("cxl", 2, workload, n_shards=2)
        assert isinstance(setup.fusion, FusionShardRouter)
        assert len(setup.fusion_shards) == 2
        node = setup.nodes[0]
        row = setup.sim.run_process(node.point_select("sbtest_shared", 5))
        assert row is not None
        # The page landed on exactly its hash-owner shard.
        resident = [shard.resident_count for shard in setup.fusion_shards]
        assert sum(resident) == setup.fusion.resident_count > 0
