"""Unit tests for declarative fault schedules."""

import pytest

from repro.faults.schedule import ACTIONS, FaultEvent, FaultSchedule


class TestFaultEventValidation:
    def test_all_actions_enumerated(self):
        assert ACTIONS == {"crash", "outage", "restore", "leave", "join"}

    def test_crash_needs_node_and_point(self):
        with pytest.raises(ValueError):
            FaultEvent(at_op=1, action="crash", node=0)
        with pytest.raises(ValueError):
            FaultEvent(at_op=1, action="crash", point="wal.append")

    def test_outage_and_restore_need_an_rpc(self):
        with pytest.raises(ValueError):
            FaultEvent(at_op=1, action="outage")
        with pytest.raises(ValueError):
            FaultEvent(at_op=1, action="restore")

    def test_leave_needs_a_node(self):
        with pytest.raises(ValueError):
            FaultEvent(at_op=1, action="leave")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at_op=1, action="melt")

    def test_negative_op_index_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at_op=-1, action="join")


class TestFaultSchedule:
    def test_events_sort_by_op_index_stably(self):
        first = FaultEvent(at_op=5, action="outage", rpc="a")
        second = FaultEvent(at_op=5, action="restore", rpc="a")
        early = FaultEvent(at_op=2, action="join")
        sched = FaultSchedule([first, second, early])
        assert sched.events == [early, first, second]

    def test_pop_due_is_strictly_before_the_op(self):
        sched = FaultSchedule(
            [
                FaultEvent(at_op=2, action="join"),
                FaultEvent(at_op=5, action="outage", rpc="a"),
            ]
        )
        assert sched.pop_due(2) == []
        assert [e.at_op for e in sched.pop_due(3)] == [2]
        assert sched.pending == 1
        assert [e.at_op for e in sched.pop_due(6)] == [5]
        assert sched.pending == 0
        assert sched.pop_due(100) == []

