"""The fleet's own membership, ring routing and op execution.

The scenarios in ``test_scenarios.py`` only ever route around the nodes
they crash; these tests pin the routing table and the op counter on a
bare fleet, outside any scenario body.
"""

from contextlib import contextmanager

import pytest

from repro.analysis.checked import CheckedRun
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.ha.scenarios import _Fleet
from repro.obs.world import add_sharing_node


@contextmanager
def _fleet(n_nodes):
    injector = FaultInjector(seed=3)
    with CheckedRun(metrics=True) as run, injector:
        yield _Fleet("unit", n_nodes, 200, 3, injector, run)


def test_route_passes_dead_nodes_to_the_ring_successor():
    with _fleet(3) as fleet:
        assert [fleet.route(i) for i in range(3)] == [0, 1, 2]
        fleet.mark_dead(1)
        assert [fleet.route(i) for i in range(3)] == [0, 2, 2]
        fleet.mark_dead(2)
        # The ring wraps: node2's successor is node0.
        assert [fleet.route(i) for i in range(3)] == [0, 0, 0]
        assert fleet.live == {0}


def test_a_joiner_routes_at_its_index_and_inherits_the_dead_slot():
    with _fleet(2) as fleet:
        fleet.mark_dead(1)
        joiner = add_sharing_node(fleet.setup)
        index = fleet.add_node(joiner)
        assert index == 2
        assert fleet.live == {0, 2}
        assert fleet.route(index) == index
        # Ring order puts the joiner right after the dead node1.
        assert fleet.route(1) == index


def test_routing_with_no_live_nodes_is_an_error():
    with _fleet(2) as fleet:
        fleet.mark_dead(0)
        fleet.mark_dead(1)
        with pytest.raises(RuntimeError, match="no live nodes"):
            fleet.route(0)
        with pytest.raises(RuntimeError, match="no live nodes"):
            fleet.run_op(("select", 1, 0, None))


def test_a_crash_inside_an_op_is_counted_and_reraised():
    with _fleet(2) as fleet:
        windows = []
        fleet.run.metrics.add_listener(windows.append)
        assert fleet.run_op(("select", 1, 1, None)) == 1
        point = "node.update.logged"
        fleet.injector.arm(point, fleet.injector.hits.get(point, 0) + 1)
        with pytest.raises(InjectedCrash):
            fleet.run_op(("update", 1, 0, 4242))
        fleet.injector.disarm()
        assert fleet.ops_run == 2
        fleet.run.flush(fleet.sim.now)

    counts = {}
    for window in windows:
        for (name, labels), amount in window.counts.items():
            if name == "fleet.client_ops":
                counts[labels] = counts.get(labels, 0.0) + amount
    assert counts == {
        (("kind", "select"), ("status", "ok")): 1.0,
        (("kind", "update"), ("status", "crashed")): 1.0,
    }
