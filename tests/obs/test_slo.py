"""Unit tests for SLO burn-rate alerting and health timelines.

Burn math, fire/clear hysteresis, the alignment oracle's five rules,
and post-hoc health derivation from gauge series — everything the HA
scenarios lean on, exercised here on hand-built scrape windows so each
rule is tested in isolation from fleet choreography.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.obs.metrics import MetricsPipeline, ScrapeWindow
from repro.obs.slo import (
    HealthTimeline,
    SLObjective,
    SLOMonitor,
    check_alignment,
)


def _window(t_ns: float, good: float = 0.0, bad: float = 0.0) -> ScrapeWindow:
    counts = {}
    if good:
        counts[("fleet.ops", (("result", "ok"),))] = good
    if bad:
        counts[("fleet.ops", (("result", "failed"),))] = bad
    return ScrapeWindow(t_ns, counts)


@dataclass(frozen=True)
class _Phase:
    kind: str
    start_ns: int
    end_ns: Optional[int]


# -- the objective -------------------------------------------------------------


class TestSLObjective:
    def test_defaults_are_three_nines(self):
        obj = SLObjective()
        assert obj.error_budget == pytest.approx(0.001)

    def test_rejects_degenerate_objective(self):
        with pytest.raises(ValueError):
            SLObjective(objective=1.0)
        with pytest.raises(ValueError):
            SLObjective(objective=0.0)

    def test_rejects_inverted_windows(self):
        with pytest.raises(ValueError):
            SLObjective(fast_windows=10, slow_windows=3)


# -- burn math -----------------------------------------------------------------


class TestBurnRate:
    def test_idle_burns_nothing(self):
        monitor = SLOMonitor()
        monitor.record_window(_window(100.0))
        assert monitor.burn_rate(1) == 0.0

    def test_all_bad_burns_at_inverse_budget(self):
        monitor = SLOMonitor(SLObjective(objective=0.999))
        monitor.record_window(_window(100.0, good=0.0, bad=5.0))
        # bad/served = 1.0, budget = 0.001 -> burning 1000x budget
        assert monitor.burn_rate(1) == pytest.approx(1000.0)

    def test_burn_at_exactly_budget_is_one(self):
        monitor = SLOMonitor(SLObjective(objective=0.999))
        monitor.record_window(_window(100.0, good=999.0, bad=1.0))
        assert monitor.burn_rate(1) == pytest.approx(1.0)

    def test_window_width_bounds_lookback(self):
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
        monitor.record_window(_window(100.0, bad=10.0))
        monitor.record_window(_window(200.0, good=10.0))
        # fast window sees only the clean scrape; slow sees both
        assert monitor.burn_rate(1) == 0.0
        assert monitor.burn_rate(2) == pytest.approx(500.0)


# -- fire / clear hysteresis ---------------------------------------------------


class TestFireClear:
    def test_fires_when_both_windows_burn(self):
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
        monitor.record_window(_window(100.0, bad=5.0))
        assert monitor.firing is not None
        assert monitor.alerts[0].fired_at_ns == 100.0

    def test_slow_window_suppresses_oneoff_blip(self):
        # After a long clean stretch, one bad window cannot push the
        # slow burn over threshold: no page.
        monitor = SLOMonitor(
            SLObjective(fast_windows=1, slow_windows=10, slow_burn=2.0)
        )
        for tick in range(9):
            monitor.record_window(_window(100.0 * (tick + 1), good=1000.0))
        monitor.record_window(_window(1000.0, good=998.0, bad=2.0))
        # slow burn = (2 / ~9000) / 0.001 ≈ 0.22x — under the 2x gate
        assert monitor.firing is None
        assert monitor.alerts == []

    def test_clears_when_fast_window_calms(self):
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
        monitor.record_window(_window(100.0, bad=5.0))
        monitor.record_window(_window(200.0, good=5.0))
        alert = monitor.alerts[0]
        assert alert.cleared_at_ns == 200.0
        assert not alert.active
        assert monitor.firing is None

    def test_refires_as_a_new_alert(self):
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
        monitor.record_window(_window(100.0, bad=5.0))
        monitor.record_window(_window(200.0, good=5.0))
        monitor.record_window(_window(300.0, bad=5.0))
        assert len(monitor.alerts) == 2
        assert monitor.alerts[1].active

    def test_peak_burn_recorded_while_firing(self):
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
        monitor.record_window(_window(100.0, good=5.0, bad=5.0))
        monitor.record_window(_window(200.0, bad=10.0))  # worse
        alert = monitor.alerts[0]
        assert alert.fast_burn == pytest.approx(1000.0)

    def test_attach_feeds_scrapes_through_pipeline(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2)).attach(mp)
        mp.maybe_scrape(0.0)
        mp.count("fleet.ops", 5.0, result="failed")
        mp.maybe_scrape(100.0)
        mp.maybe_scrape(200.0)
        assert monitor.ticks == 2
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].cleared_at_ns == 200.0

    def test_to_dict_round_trips_alerts(self):
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
        monitor.record_window(_window(100.0, bad=5.0))
        doc = monitor.to_dict()
        assert doc["bad_total"] == 5.0
        assert doc["alerts"][0]["fired_at_ns"] == 100.0
        assert doc["alerts"][0]["cleared_at_ns"] is None
        assert monitor.summary_lines()[1].endswith("STILL FIRING")


# -- the alignment oracle ------------------------------------------------------


class TestAlignment:
    INTERVAL = 100.0

    def _monitor(self, *windows: ScrapeWindow) -> SLOMonitor:
        monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
        for window in windows:
            monitor.record_window(window)
        return monitor

    def test_clean_run_silent_is_aligned(self):
        monitor = self._monitor(_window(100.0, good=5.0))
        assert check_alignment(monitor, [_Phase("up", 0, 1000)], self.INTERVAL) == []

    def test_bad_ops_without_alert_flagged(self):
        # bad ops but too diluted to page: rule 1 fires
        monitor = self._monitor(_window(100.0, good=100000.0, bad=1.0))
        problems = check_alignment(
            monitor, [_Phase("down", 50, 150)], self.INTERVAL
        )
        assert any("no alert fired" in p for p in problems)

    def test_alert_on_clean_run_flagged(self):
        monitor = self._monitor(_window(100.0, bad=5.0), _window(200.0, good=1.0))
        monitor.bad_total = 0.0  # forge a clean run with a stray alert
        problems = check_alignment(monitor, [_Phase("up", 0, 1000)], self.INTERVAL)
        assert any("clean run" in p for p in problems)

    def test_alert_before_degradation_flagged(self):
        monitor = self._monitor(_window(100.0, bad=5.0), _window(200.0, good=1.0))
        problems = check_alignment(
            monitor, [_Phase("down", 500, 600)], self.INTERVAL
        )
        assert any("before the first degradation" in p for p in problems)

    def test_alert_inside_phase_with_grace_is_aligned(self):
        monitor = self._monitor(_window(100.0, bad=5.0), _window(200.0, good=1.0))
        problems = check_alignment(
            monitor, [_Phase("down", 50, 150), _Phase("up", 150, 1000)], self.INTERVAL
        )
        assert problems == []

    def test_alert_outside_every_phase_flagged(self):
        monitor = self._monitor(_window(5000.0, bad=5.0), _window(5100.0, good=1.0))
        problems = check_alignment(
            monitor,
            [_Phase("down", 50, 150), _Phase("up", 150, 10000)],
            self.INTERVAL,
        )
        assert any("outside every degraded phase" in p for p in problems)

    def test_uncleared_alert_flagged(self):
        monitor = self._monitor(_window(100.0, bad=5.0))
        problems = check_alignment(
            monitor, [_Phase("down", 50, 150)], self.INTERVAL
        )
        assert any("never cleared" in p for p in problems)


# -- health timelines ----------------------------------------------------------


def _scraped_pipeline() -> MetricsPipeline:
    """One failover blip on node n1, one breaker-open stretch, bad ops."""
    mp = MetricsPipeline(scrape_interval_ns=100.0)
    mp.maybe_scrape(0.0)
    mp.maybe_scrape(100.0)  # all healthy
    mp.gauge("ha.failover_inflight", 1.0, node="n1")
    mp.maybe_scrape(200.0)  # n1 wedged
    mp.gauge("ha.failover_inflight", 0.0, node="n1")
    mp.gauge("ha.breaker_open", 1.0, breaker="fusion")
    mp.maybe_scrape(300.0)  # degraded via breaker
    mp.gauge("ha.breaker_open", 0.0, breaker="fusion")
    mp.maybe_scrape(400.0)  # healthy again
    mp.maybe_scrape(500.0)
    return mp


class TestHealthTimeline:
    def test_entities_discovered_from_gauges(self):
        timeline = HealthTimeline.derive(_scraped_pipeline())
        assert timeline.entities() == ["fleet", "breaker=fusion", "node=n1"]

    def test_node_wedged_while_failover_inflight(self):
        timeline = HealthTimeline.derive(_scraped_pipeline())
        states = [(i.state, i.start_ns, i.end_ns) for i in timeline.states("node=n1")]
        assert states == [
            ("healthy", 0.0, 200.0),
            ("wedged", 200.0, 300.0),
            ("healthy", 300.0, 400.0),
        ]

    def test_fleet_aggregates_worst_state(self):
        timeline = HealthTimeline.derive(_scraped_pipeline())
        assert timeline.worst("fleet") == "wedged"
        assert timeline.worst("breaker=fusion") == "degraded"
        assert [(i.state, i.start_ns, i.end_ns) for i in timeline.states("fleet")] == [
            ("healthy", 0.0, 200.0),
            ("wedged", 200.0, 300.0),
            ("degraded", 300.0, 400.0),
        ]

    def test_bad_op_rate_degrades_fleet_only(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.count("fleet.ops", 3.0, result="failed")
        mp.maybe_scrape(100.0)
        mp.maybe_scrape(200.0)  # zero edge clears the rate
        timeline = HealthTimeline.derive(mp)
        assert timeline.worst("fleet") == "degraded"
        assert timeline.entities() == ["fleet"]

    def test_quiet_pipeline_is_one_healthy_interval(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        timeline = HealthTimeline.derive(mp)
        assert [i.state for i in timeline.states("fleet")] == ["healthy"]

    def test_to_dict_groups_by_entity(self):
        timeline = HealthTimeline.derive(_scraped_pipeline())
        doc = timeline.to_dict()
        assert set(doc["entities"]) == {"fleet", "breaker=fusion", "node=n1"}
        first = doc["entities"]["node=n1"][0]
        assert first == {
            "entity": "node=n1",
            "state": "healthy",
            "start_ns": 0.0,
            "end_ns": 200.0,
        }

    def test_summary_lines_render_every_entity(self):
        timeline = HealthTimeline.derive(_scraped_pipeline())
        lines = timeline.summary_lines()
        assert len(lines) == 3
        assert any("wedged" in line for line in lines)
