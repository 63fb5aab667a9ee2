"""CommittedState: the one committed-state oracle of the sharing harnesses.

Two layers:

* **Rules.** The read rule (real-time floor, per-node monotonic, values
  in flight), crash resolution by durable LSN, and the read-back, each
  on a case the harnesses' earlier private oracles got wrong: the
  explorer let a node's *first* read return an already superseded
  value and flagged a rewrite of the loaded value as going backwards;
  the HA fleet adopted a key's first read unchecked.
* **Mutation matrix.** The explorer, stress and HA ``rolling-crash``
  against each protocol mutation: which check catches each cell is
  pinned, so a cell can never silently move from caught to missed.
"""

import pytest

import repro.ha.scenarios as scenarios
import repro.obs.world as world
from repro.analysis.checked import CommittedState
from repro.analysis.explore import MUTATIONS, _apply_mutation, explore_config
from repro.analysis.memsan import MemSanError
from repro.ha.scenarios import FleetOracleError, _run_scenario, run_rolling_crash
from repro.obs import InvariantViolationError
from repro.parallel.stress import _stress_shard
from repro.workloads.sysbench import SysbenchWorkload


def _state():
    return CommittedState(SysbenchWorkload.loaded_row)


def _row(value):
    return {"k": value}


# -- the read rule -----------------------------------------------------------


def test_a_first_read_may_not_return_a_value_superseded_before_it_started():
    state = _state()
    assert state.read("node0", 5, _row(5)) == ""
    state.commit(5, 1001)
    # node1 has never read key 5: its first read still has a floor.
    assert state.read("node1", 5, _row(5)) == (
        "node1 read key 5 = 5; it may see only [1001]"
    )


def test_a_read_that_started_before_a_commit_may_return_the_older_value():
    state = _state()
    since = state.clock
    state.commit(5, 1001)
    assert state.read("node1", 5, _row(5), since) == ""
    # ... but never move backwards once it has seen the newer one.
    assert state.read("node1", 5, _row(1001), since) == ""
    assert "may see only [1001]" in state.read("node1", 5, _row(5), since)


def test_rewriting_the_loaded_value_is_not_going_backwards():
    # Stress values come from randrange(1 << 20) and can equal a loaded k.
    state = _state()
    state.commit(5, 9)
    assert state.read("node0", 5, _row(9)) == ""
    state.commit(5, 5)  # the loaded value again
    assert state.read("node0", 5, _row(5)) == ""
    assert state.read("node1", 5, _row(5)) == ""
    assert state.seen["node0", 5] == 2  # the rewrite, not the load
    assert state.read("node0", 5, _row(9)) != ""


def test_a_missing_row_is_never_committed():
    assert _state().read("node0", 5, None) == (
        "node0 read key 5 = None; it may see only [5]"
    )


# -- writes in flight and crash resolution -------------------------------------


def test_a_write_in_flight_is_readable_until_it_resolves():
    state = _state()
    state.start_write(5, 1001, 10)
    assert state.read("node1", 5, _row(1001)) == ""
    assert state.read("node1", 5, _row(5)) == ""
    assert "may see only [5, 1001]" in state.read("node1", 5, _row(7))


@pytest.mark.parametrize(
    "durable_after, committed, readable, stale",
    [(10, False, 5, 1001), (11, True, 1001, 5)],
    ids=["log-not-durable", "log-durable"],
)
def test_a_crashed_write_resolves_by_its_writers_durable_lsn(
    durable_after, committed, readable, stale
):
    state = _state()
    state.start_write(5, 1001, 10)
    assert state.resolve(5, 1001, durable_after) is committed
    assert state.read("node1", 5, _row(readable)) == ""
    assert state.read("node1", 5, _row(stale)) != ""
    assert state.clock == int(committed)


# -- read-back -----------------------------------------------------------------


def test_read_back_reads_every_key_read_or_committed_in_key_order():
    state = _state()
    state.read("node0", 9, _row(9))
    state.commit(3, 77)
    state.start_write(4, 88, 0)
    assert state.resolve(4, 88, 0) is False  # never committed: not read back
    stored = {3: 77, 9: 9}
    asked = []

    def check(key):
        asked.append(key)
        return state.read("node1", key, _row(stored[key]))

    assert state.read_back(check) == ""
    assert asked == [3, 9]
    stored[3] = 3
    assert state.read_back(check) == (
        "node1 read key 3 = 3; it may see only [77]"
    )


def test_ha_checks_the_first_read_of_a_key_changed_behind_the_oracle():
    def body(fleet):
        key = 7  # never written by the scenario
        # A write the oracle never saw: straight to the node, not an op.
        fleet.sim.run_process(
            fleet.setup.nodes[0].point_update("sbtest_shared", key, "k", 424242)
        )
        fleet.run_op(("select", key, 1, None))

    with pytest.raises(FleetOracleError, match=" read key 7 = 424242"):
        _run_scenario("corrupted-key", 5, 2, 200, body)


# -- the mutation matrix -------------------------------------------------------

# Which checks report each (harness, mutation) cell. Stress and HA run
# their ops one at a time, so an interleaving-only bug
# (clear_before_invalidate) shows only to MemSan there.
MATRIX = {
    ("explore", "skip_flush"): {"invariant", "memsan"},
    ("explore", "skip_invalidate"): {"memsan"},
    ("explore", "clear_before_invalidate"): {"memsan"},
    ("stress", "skip_flush"): {"invariant", "oracle"},
    ("stress", "skip_invalidate"): {"memsan", "oracle"},
    ("stress", "clear_before_invalidate"): {"memsan"},
    ("ha", "skip_flush"): {"oracle"},
    ("ha", "skip_invalidate"): {"oracle"},
    ("ha", "clear_before_invalidate"): {"memsan"},
}


def _mutated(build, mutation):
    def build_mutated(*args, **kwargs):
        setup = build(*args, **kwargs)
        _apply_mutation(setup, mutation)
        return setup

    return build_mutated


def _explore_checks(mutation):
    report = explore_config(
        f"cxl-2p1pg+{mutation}", max_schedules=60, stop_on_violation=True
    )
    if not report.violations:
        return set()
    return {message.split(":")[0] for message in report.violations[0]["messages"]}


def _stress_checks(mutation, monkeypatch):
    monkeypatch.setattr(
        world, "build_sharing_setup", _mutated(world.build_sharing_setup, mutation)
    )
    result = _stress_shard("cxl", 1000, 10)
    checks = set()
    for failure in result.failures:
        detail = failure.split(": ", 1)[1] if failure.startswith("seed ") else failure
        kind = detail.split(":")[0]
        checks.add(kind if kind in ("memsan", "invariant") else "oracle")
    return checks


def _ha_checks(mutation, monkeypatch):
    monkeypatch.setattr(
        scenarios,
        "build_sharing_setup",
        _mutated(scenarios.build_sharing_setup, mutation),
    )
    try:
        run_rolling_crash()
    except FleetOracleError as exc:
        assert " read key " in str(exc), exc
        return {"oracle"}
    except MemSanError:
        return {"memsan"}
    except InvariantViolationError:
        return {"invariant"}
    return set()


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("harness", ["explore", "stress", "ha"])
def test_each_mutation_is_caught_by_the_pinned_checks(harness, mutation, monkeypatch):
    if harness == "explore":
        checks = _explore_checks(mutation)
    elif harness == "stress":
        checks = _stress_checks(mutation, monkeypatch)
    else:
        checks = _ha_checks(mutation, monkeypatch)
    assert checks == MATRIX[harness, mutation]
