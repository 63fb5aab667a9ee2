"""Crash-anywhere recovery sweep (tier-1 robustness gate).

Enumerates every crash point the canonical workloads reach, then crashes
at each one and asserts recovery restores exactly the committed state.
See ``repro.faults.sweep`` for the harness; these tests pin down the
acceptance bar: ≥25 distinct crash points across the mtr / WAL / flush /
LRU / clflush / fusion / recovery paths, every coordinate recovering
exactly, deterministically under a fixed seed.
"""

import json

import pytest

from repro.db.constants import OFF_NEXT_LEAF
from repro.faults import sweep
from repro.faults.sweep import (
    _build_scenario,
    _golden_run,
    _roll_to,
    _verdict,
    report_to_json,
    sweep_failover_storm_points,
    sweep_recovery_points,
    sweep_sharing_points,
    sweep_workload_points,
)
from repro.obs import Tracer

from ..conftest import SMALL_CODEC, fill_table, make_cxl_engine, recover_cxl_ctx

SEED = 7


@pytest.fixture(scope="module")
def workload_report():
    return sweep_workload_points(seed=SEED)


@pytest.fixture(scope="module")
def recovery_report():
    return sweep_recovery_points(seed=SEED)


@pytest.fixture(scope="module")
def sharing_report():
    return sweep_sharing_points(seed=SEED)


@pytest.fixture(scope="module")
def storm_report():
    return sweep_failover_storm_points(seed=SEED)


class TestSingleNodeSweep:
    def test_every_coordinate_recovers_exact_committed_state(
        self, workload_report
    ):
        workload_report.raise_for_failures()
        assert workload_report.outcomes, "sweep ran no coordinates"

    def test_covers_all_engine_subsystems(self, workload_report):
        points = set(workload_report.distinct_points)
        for prefix in ("mtr.", "wal.", "pool.", "pagestore."):
            assert any(p.startswith(prefix) for p in points), (
                f"no crash point under {prefix!r} reached: {sorted(points)}"
            )
        # Eviction, miss-reload, and free-claim must all be exercised —
        # the workload is sized to overflow the pool on purpose.
        assert {
            "pool.evict.victim",
            "pool.get.loaded",
            "pool.claim.free",
            "pool.new.formatted",
        } <= points

    def test_a_tree_out_of_order_is_the_coordinate_detail(self):
        """The oracle read checks key order and the leaf chain on its one
        walk; a violation fails the coordinate, it does not raise."""
        scenario = _build_scenario()
        work = _roll_to(scenario, SEED, 0)
        engine = scenario.engine
        assert _verdict("p", 1, engine, scenario.redo, work.model).ok
        mtr = engine.mtr()
        first = mtr.get_page(engine.tables["t"].btree.leaf_page_id_for(mtr, 0))
        first.write_u64(OFF_NEXT_LEAF, 0)  # cut the chain after the first leaf
        mtr.commit()
        outcome = _verdict("p", 1, engine, scenario.redo, work.model)
        assert not outcome.ok
        assert outcome.detail.startswith(
            f"recovered tree is corrupt: leaf {first.page_id} names next leaf 0"
        )

    def test_a_raising_unit_is_a_red_coordinate_with_its_repro(
        self, workload_report, monkeypatch
    ):
        """A coordinate whose unit raises does not stop the sweep: it is
        red, names the exception and its serial repro, and the others
        keep their verdicts."""
        clean = workload_report.outcomes[:3]
        point, hit = clean[1].point, clean[1].hit
        unit = sweep._crash_and_recover

        def raising(seed, at_point, at_hit, golden):
            if (at_point, at_hit) == (point, hit):
                raise RuntimeError("unit blew up")
            return unit(seed, at_point, at_hit, golden)

        monkeypatch.setattr(sweep, "_crash_and_recover", raising)
        report = sweep_workload_points(seed=SEED, limit=3)
        assert [(o.point, o.hit) for o in report.outcomes] == [
            (o.point, o.hit) for o in clean
        ]
        assert report.outcomes[0] == clean[0] and report.outcomes[2] == clean[2]
        red = report.outcomes[1]
        assert not red.crashed and not red.ok
        assert red.detail.startswith("unit error RuntimeError: unit blew up")
        assert f"--point {point} --hit {hit}" in red.detail
        blob = report_to_json(report)
        assert json.dumps(json.loads(blob), sort_keys=True, indent=1) + "\n" == blob


class TestRecoveryReentrancySweep:
    def test_recovery_survives_crashing_itself_anywhere(self, recovery_report):
        recovery_report.raise_for_failures()

    def test_covers_all_recovery_phases(self, recovery_report):
        assert {
            "recovery.scan",
            "recovery.rebuild.image",
            "recovery.rebuild.marked",
            "recovery.rebuild.done",
            "recovery.lru",
            "recovery.done",
        } <= set(recovery_report.distinct_points)


class TestSharingFailoverSweep:
    def test_survivor_sees_exactly_committed_state(self, sharing_report):
        sharing_report.raise_for_failures()

    def test_covers_the_sharing_protocol(self, sharing_report):
        points = set(sharing_report.distinct_points)
        assert {
            "node.update.logged",
            "sharing.flush.lines",
            "cache.clflush.line",
            "fusion.release.dirty",
            "fusion.request.loaded",
        } <= points


class TestFailoverStormSweep:
    """Crash the failover coordinator *inside* failover, then fail over
    the failed failover — the storm half of the fleet HA model. Every
    coordinate must converge on the second attempt with the survivor
    reading exactly the committed state, under MemSan.
    """

    def test_every_storm_coordinate_converges(self, storm_report):
        storm_report.raise_for_failures()
        assert storm_report.outcomes, "storm sweep ran no coordinates"

    def test_covers_failover_and_retirement(self, storm_report):
        points = set(storm_report.distinct_points)
        assert {
            "fusion.failover.rebuilt",
            "fusion.failover.released",
            "fusion.failover.done",
            "pagestore.write_page",  # torn hardening write mid-failover
            "recovery.retire.page",  # log retirement is re-entrant too
        } <= points

    def test_sharded_coordinates_converge_too(self):
        # The sharded-fusion coordinate of the storm: the wedged attempt
        # is confined to the owning shard, the other shard must serve a
        # read mid-storm, and retirement runs shard by shard — still
        # oracle-exact and MemSan-clean at every coordinate.
        report = sweep_failover_storm_points(
            seed=SEED, n_shards=2, limit=8
        )
        report.raise_for_failures()
        assert report.outcomes, "sharded storm sweep ran no coordinates"
        assert "fusion.failover.rebuilt" in set(report.distinct_points)


class TestRecoveryMechanismCounters:
    """How recovery restored state, not just what it restored.

    The sweeps above compare recovered *contents*; none of them would
    catch a regression where clean-pool recovery silently fell back to
    scanning and replaying the redo log — same final state, but the
    instant-recovery property of §3.2 (Fig. 10's warm restart) gone.
    The observability counters pin the mechanism itself.
    """

    def test_clean_pool_recovery_replays_zero_redo_records(
        self, cluster, host
    ):
        ctx = make_cxl_engine(cluster, host, n_blocks=128)
        fill_table(ctx, rows=300)
        ctx.engine.checkpoint()
        ctx.engine.crash()
        with Tracer() as tracer:
            _, stats = recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])
        counters = tracer.counters.snapshot()
        assert counters["recv.recoveries"] == 1
        # The heart of the gap: a clean pool must be adopted, not
        # replayed — zero redo records applied, log never scanned.
        assert counters.get("recv.redo_records_applied", 0) == 0
        assert counters.get("recv.log_scans", 0) == 0
        assert counters.get("recv.pages_rebuilt", 0) == 0
        assert counters.get("recv.lru_rebuilds", 0) == 0
        assert counters["recv.pages_kept"] == stats.pages_kept > 0
        assert counters["recv.blocks_scanned"] == 128

    def test_interrupted_update_recovery_does_replay(self, cluster, host):
        ctx = make_cxl_engine(cluster, host, n_blocks=128)
        table = fill_table(ctx, rows=300)
        ctx.engine.checkpoint()
        # First update durable, second only in the volatile log buffer:
        # the page's LSN exceeds the durable max ("too new"), so it must
        # be rebuilt from the storage image plus the durable redo — and
        # come back holding exactly the first update.
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 42, "k", 77)
        mtr.commit()
        ctx.engine.redo_log.flush()
        mtr = ctx.engine.mtr()
        table.update_field(mtr, 42, "k", 88)
        mtr.commit()
        ctx.engine.crash()
        with Tracer() as tracer:
            engine, _ = recover_cxl_ctx(ctx, [("t", SMALL_CODEC)])
        counters = tracer.counters.snapshot()
        assert counters["recv.redo_records_applied"] > 0
        assert counters["recv.log_scans"] == 1
        assert counters["recv.pages_rebuilt"] >= 1
        mtr = engine.mtr()
        assert engine.tables["t"].get(mtr, 42)["k"] == 77
        mtr.commit()


class TestSweepAcceptance:
    def test_at_least_25_distinct_crash_points(
        self, workload_report, recovery_report, sharing_report, storm_report
    ):
        union = (
            set(workload_report.distinct_points)
            | set(recovery_report.distinct_points)
            | set(sharing_report.distinct_points)
            | set(storm_report.distinct_points)
        )
        assert len(union) >= 25, sorted(union)

    def test_golden_run_is_deterministic(self):
        first = _golden_run(SEED)
        second = _golden_run(SEED)
        assert first.trace == second.trace
        assert first.snapshots == second.snapshots
        assert first.model == second.model
