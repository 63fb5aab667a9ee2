"""Double-failure recovery re-entrancy (fleet HA acceptance).

The single-failure story is covered by the crash sweeps; what those
cannot show is that recovery stays correct when failures *stack*:

* the failover coordinator itself dies mid-failover (a storm), so a
  second coordinator must re-run force-apply rebuild, hardening, and
  log retirement over half-finished state; and then
* the node that inherited the dead node's partition dies too, so the
  next failover retires a log whose pages partially overlap pages the
  previous failover already rebuilt and hardened.

Both failovers run under MemSan and end with the exact committed-state
oracle: the last survivor must read precisely the committed values for
every key in the fleet, including keys whose ownership changed hands
twice.
"""

import pytest

from repro.ha.scenarios import FleetOracleError, _Fleet, _run_scenario

SEED = 29


@pytest.fixture(scope="module")
def double_failure_result():
    def body(fleet: _Fleet):
        tl, sim = fleet.timeline, fleet.sim
        tl.begin_phase("warmup", "up", sim.now, live=3)
        fleet.partition_writes(keys_per_node=3)
        tl.begin_phase("healthy", "up", sim.now, live=3)
        fleet.pump(fleet.mixed_ops(2))

        # Failure 1, with a storm: node0 dies mid-flush, and the first
        # failover attempt dies inside the page rebuild — the second
        # attempt re-runs failover over half-finished state.
        fleet.crash_node(0, "sharing.flush.lines",
                         storm=("fusion.failover.rebuilt",))
        first = dict(fleet.last_failover)
        fleet.pump(fleet.mixed_ops(1))

        # Failure 2: node1 — which just inherited node0's partition and
        # has written to it — dies mid-update. Its retirement covers
        # pages the first failover already hardened.
        fleet.crash_node(1, "node.update.logged")
        second = dict(fleet.last_failover)
        fleet.pump(fleet.mixed_ops(1))
        fleet.verify()
        return {
            "first_attempts": first["attempts"],
            "second_attempts": second["attempts"],
            "first_retired": first["pages_retired"],
            "second_retired": second["pages_retired"],
            "live_nodes": len(fleet.live),
        }

    return _run_scenario("double-failure", SEED, 3, 240, body)


@pytest.fixture(scope="module")
def sharded_double_failure_result():
    """Double failure on a 2-shard fusion tier: the first failover's
    storm wedges one shard mid-rebuild while the other shard keeps
    serving, and the second failure lands on the node that inherited the
    first victim's partition."""

    def body(fleet: _Fleet):
        tl, sim, setup = fleet.timeline, fleet.sim, fleet.setup
        tl.begin_phase("warmup", "up", sim.now, live=4)
        fleet.partition_writes(keys_per_node=3)
        tl.begin_phase("healthy", "up", sim.now, live=4)
        fleet.pump(fleet.mixed_ops(2))

        victim_key = fleet.write_keys[0][0]
        victim_shard = setup.fusion.owner_index(fleet.key_leaf[victim_key])
        served = [0]

        def keep_serving(attempt):
            # Shard `victim_shard` is wedged; every other shard's pages
            # must still serve through the live nodes.
            for owner in sorted(fleet.write_keys)[1:]:
                for key in fleet.write_keys[owner]:
                    leaf = fleet.key_leaf.get(key)
                    if leaf is None or setup.fusion.owner_index(leaf) == victim_shard:
                        continue
                    fleet.run_op(("select", key, owner, None))
                    tl.count("ok")
                    served[0] += 1

        fleet.crash_node(
            0,
            "sharing.flush.lines",
            storm=("fusion.failover.rebuilt",),
            between_attempts=keep_serving,
        )
        first = dict(fleet.last_failover)
        fleet.pump(fleet.mixed_ops(1))

        fleet.crash_node(1, "node.update.logged")
        second = dict(fleet.last_failover)
        fleet.pump(fleet.mixed_ops(1))
        fleet.verify()
        return {
            "first_attempts": first["attempts"],
            "second_attempts": second["attempts"],
            "first_retired": first["pages_retired"],
            "second_retired": second["pages_retired"],
            "mid_failover_reads": served[0],
            "victim_shard": victim_shard,
            "live_nodes": len(fleet.live),
        }

    return _run_scenario("sharded-double-failure", SEED, 4, 320, body, n_shards=2)


class TestShardedDoubleFailure:
    def test_both_failovers_completed_on_the_sharded_tier(
        self, sharded_double_failure_result
    ):
        result = sharded_double_failure_result
        assert result.failovers == 2
        assert result.detail["live_nodes"] == 2

    def test_one_shard_kept_serving_while_the_other_was_wedged(
        self, sharded_double_failure_result
    ):
        assert sharded_double_failure_result.detail["mid_failover_reads"] > 0

    def test_per_shard_retirement_stayed_oracle_exact(
        self, sharded_double_failure_result
    ):
        result = sharded_double_failure_result
        assert result.detail["first_attempts"] == 2
        assert result.detail["second_attempts"] == 1
        assert result.detail["first_retired"] >= 1
        assert result.detail["second_retired"] >= 1

    def test_monitoring_stack_was_clean(self, sharded_double_failure_result):
        result = sharded_double_failure_result
        assert result.memsan_reports == 0
        assert result.oracle_checks > 0


class TestDoubleFailure:
    def test_both_failovers_completed(self, double_failure_result):
        result = double_failure_result
        assert result.failovers == 2
        assert result.detail["live_nodes"] == 1

    def test_first_failover_was_reentrant(self, double_failure_result):
        # The armed storm point killed attempt 1; attempt 2 converged.
        assert double_failure_result.detail["first_attempts"] == 2
        assert double_failure_result.detail["second_attempts"] == 1

    def test_both_logs_were_retired(self, double_failure_result):
        # Each dead node's durable history was folded into storage, so
        # no surviving page depends on a dead node's log.
        assert double_failure_result.detail["first_retired"] >= 1
        assert double_failure_result.detail["second_retired"] >= 1

    def test_monitoring_stack_was_clean(self, double_failure_result):
        result = double_failure_result
        assert result.memsan_reports == 0
        assert result.oracle_checks > 0

    def test_crash_target_must_be_live(self):
        def body(fleet: _Fleet):
            tl, sim = fleet.timeline, fleet.sim
            tl.begin_phase("warmup", "up", sim.now, live=2)
            fleet.partition_writes(keys_per_node=2)
            tl.begin_phase("healthy", "up", sim.now, live=2)
            fleet.crash_node(0, "node.update.logged")
            fleet.crash_node(0, "node.update.logged")  # already dead

        with pytest.raises(FleetOracleError, match="not live"):
            _run_scenario("double-crash-same-node", SEED, 2, 200, body)
