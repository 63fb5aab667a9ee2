"""Unit tests for the live metrics pipeline.

The scrape clock is the heart of the module: every published stamp must
be an exact interval multiple, catch-up after a long quiet stretch must
fire one scrape per missed grid point, and window-boundary samples must
land in exactly one window. These tests pin that math plus the
install/uninstall discipline, counter-source deltas, zero-edge rate
compaction, gauge change-detection, ring drop accounting, and the
``PROBES.suspended("metrics")`` escape hatch sub-experiments rely on.
"""

import math

import pytest

from repro.obs.metrics import (
    MetricsError,
    MetricsPipeline,
    ScrapeWindow,
    series_id,
)
from repro.obs.probes import PROBES


@pytest.fixture(autouse=True)
def _no_active_pipeline():
    assert PROBES.metrics is None
    yield
    assert PROBES.metrics is None


# -- install discipline --------------------------------------------------------


class TestInstall:
    def test_context_manager_scopes_installation(self):
        mp = MetricsPipeline()
        with mp:
            assert PROBES.metrics is mp
        assert PROBES.metrics is None

    def test_double_install_rejected(self):
        with MetricsPipeline():
            with pytest.raises(RuntimeError, match="already installed"):
                MetricsPipeline().__enter__()

    def test_uninstall_wrong_pipeline_rejected(self):
        with MetricsPipeline():
            with pytest.raises(RuntimeError, match="different"):
                PROBES.uninstall("metrics", MetricsPipeline())

    def test_uninstall_idempotent(self):
        PROBES.uninstall("metrics")
        PROBES.uninstall("metrics")

    def test_suspended_deactivates_and_restores(self):
        mp = MetricsPipeline()
        with mp:
            with PROBES.suspended("metrics") as seen:
                assert seen is mp
                assert PROBES.metrics is None
            assert PROBES.metrics is mp

    def test_suspended_restores_on_exception(self):
        mp = MetricsPipeline()
        with mp:
            with pytest.raises(ValueError):
                with PROBES.suspended("metrics"):
                    raise ValueError("boom")
            assert PROBES.metrics is mp

    def test_suspended_with_nothing_installed(self):
        with PROBES.suspended("metrics") as seen:
            assert seen is None


# -- the scrape clock ----------------------------------------------------------


class TestScrapeClock:
    def test_first_call_only_aligns(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        assert mp.maybe_scrape(250.0) == 0
        assert mp.scrapes == 0
        # ...but the grid is now anchored: the next multiple is 300.
        assert mp.maybe_scrape(299.0) == 0
        assert mp.maybe_scrape(300.0) == 1

    def test_catchup_fires_one_scrape_per_grid_point(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)  # align: next due at 100
        assert mp.maybe_scrape(1000.0) == 10
        assert mp.scrapes == 10

    def test_stamps_are_exact_grid_multiples(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.count("ops", 1.0)
        mp.maybe_scrape(437.0)  # scrapes at 100, 200, 300, 400 — never 437
        series = mp.get("ops")
        assert [t for t, _ in series.samples] == [100.0, 200.0]

    def test_window_boundary_sample_lands_in_exactly_one_window(self):
        # A count recorded *between* scrape calls belongs to the window
        # that closes at the next grid point, regardless of the now_ns
        # values the clock observed around it.
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.maybe_scrape(100.0)  # closes (0, 100]: empty
        mp.count("ops", 4.0)
        mp.maybe_scrape(200.0)  # closes (100, 200]: the 4 ops
        mp.maybe_scrape(300.0)  # closes (200, 300]: empty again
        series = mp.get("ops")
        # 4 ops over a 100 ns window = 4e7/s, then one zero edge.
        assert list(series.samples) == [(200.0, 4e7), (300.0, 0.0)]

    def test_empty_window_publishes_nothing_for_observations(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.observe("lat", 5.0)
        mp.maybe_scrape(100.0)
        mp.maybe_scrape(500.0)  # four empty windows
        quantile_series = [s for s in mp.all_series() if s.name == "lat"]
        assert len(quantile_series) == 3  # p50/p99/p999
        for series in quantile_series:
            assert len(series.samples) == 1  # only the nonempty window

    def test_single_sample_window_percentiles_collapse(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.observe("lat", 42.0)
        mp.maybe_scrape(100.0)
        for q in ("p50", "p99", "p999"):
            series = mp.get("lat", q=q)
            assert series.values() == [42.0]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsPipeline(scrape_interval_ns=0.0)

    def test_flush_closes_the_partial_window_on_grid(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.count("ops", 3.0)
        mp.flush(150.0)  # catch-up scrapes at 100, closing scrape at 200
        series = mp.get("ops")
        # the rate at 100 plus the closing scrape's zero edge at 200
        assert list(series.samples) == [(100.0, 3e7), (200.0, 0.0)]
        assert mp.scrapes == 2
        mp.check_consistent()

    def test_flush_without_prior_alignment(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.count("ops", 1.0)
        mp.flush(50.0)
        series = mp.get("ops")
        assert [t for t, _ in series.samples] == [100.0]

    def test_anchor_discards_partials_and_realigns(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.count("ops", 9.0)  # never scraped: discarded by anchor
        mp.anchor(1000.0)
        mp.count("ops", 1.0)
        mp.maybe_scrape(1100.0)
        series = mp.get("ops")
        assert list(series.samples) == [(1100.0, 1e7)]

    def test_anchor_enables_monotonic_epochs(self):
        # Two back-to-back "runs" on one pipeline: the second anchors
        # past the first's horizon, so stamps stay strictly increasing.
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.count("ops", 1.0)
        mp.flush(100.0)
        mp.anchor(200.0)
        mp.count("ops", 1.0)
        mp.flush(300.0)
        mp.check_consistent()


# -- gauges --------------------------------------------------------------------


class TestGauges:
    def test_published_on_change_only(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.gauge("depth", 3.0, queue="q0")
        mp.maybe_scrape(100.0)
        mp.maybe_scrape(200.0)  # unchanged: silent
        mp.gauge("depth", 5.0, queue="q0")
        mp.maybe_scrape(300.0)
        series = mp.get("depth", queue="q0")
        assert list(series.samples) == [(100.0, 3.0), (300.0, 5.0)]

    def test_anchor_forces_republish(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.gauge("depth", 3.0)
        mp.maybe_scrape(100.0)
        mp.anchor(500.0)
        mp.maybe_scrape(600.0)  # unchanged value, fresh epoch: published
        assert mp.get("depth").values() == [3.0, 3.0]


# -- counter sources -----------------------------------------------------------


class TestCounterSources:
    def test_deltas_become_windowed_rates(self):
        counters = {"rpcs": 0.0}
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.add_counter_source("fusion.", lambda: counters, shard="0")
        mp.maybe_scrape(0.0)
        counters["rpcs"] = 4.0
        mp.maybe_scrape(100.0)
        counters["rpcs"] = 4.0  # no movement: zero edge, then silence
        mp.maybe_scrape(300.0)
        series = mp.get("fusion.rpcs", shard="0")
        assert list(series.samples) == [(100.0, 4e7), (200.0, 0.0)]

    def test_baseline_taken_at_registration(self):
        counters = {"rpcs": 100.0}  # history from before registration
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.add_counter_source("fusion.", lambda: counters)
        mp.maybe_scrape(0.0)
        mp.maybe_scrape(100.0)
        assert mp.get("fusion.rpcs") is None  # no delta, no series

    def test_anchor_rebaselines_sources(self):
        counters = {"rpcs": 0.0}
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.add_counter_source("fusion.", lambda: counters)
        mp.maybe_scrape(0.0)
        counters["rpcs"] = 7.0  # grows while un-anchored epoch is open
        mp.anchor(1000.0)  # re-baseline: that growth belongs to no epoch
        mp.maybe_scrape(1100.0)
        assert mp.get("fusion.rpcs") is None

    def test_new_counter_keys_picked_up(self):
        counters: dict = {}
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.add_counter_source("meter.", lambda: counters, node="n0")
        mp.maybe_scrape(0.0)
        counters["select"] = 2.0
        mp.maybe_scrape(100.0)
        assert mp.get("meter.select", node="n0").values() == [2e7]


# -- series & drop accounting --------------------------------------------------


class TestSeries:
    def test_series_id_sorts_labels(self):
        assert series_id("x", (("a", "1"), ("b", "2"))) == "x{a=1,b=2}"
        assert series_id("x", ()) == "x"

    def test_label_values_coerced_to_str(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.gauge("g", 1.0, shard=3)
        mp.maybe_scrape(100.0)
        assert mp.get("g", shard="3") is mp.get("g", shard=3)

    def test_ring_overflow_drops_oldest_and_counts(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0, max_samples_per_series=3)
        mp.maybe_scrape(0.0)
        for tick in range(1, 6):
            mp.count("ops", float(tick))
            mp.maybe_scrape(tick * 100.0)
        series = mp.get("ops")
        assert series.dropped == 2
        assert mp.total_dropped == 2
        assert len(series.samples) == 3
        # the survivors are the newest three, still monotonic
        mp.check_consistent()

    def test_dropped_samples_reach_self_observation(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0, max_samples_per_series=2)
        mp.maybe_scrape(0.0)
        for tick in range(1, 5):
            mp.count("ops", 1.0)
            mp.maybe_scrape(tick * 100.0)
        mp.maybe_scrape(500.0)
        meta = mp.get("obs.metrics_dropped")
        assert meta is not None
        assert meta.values()[-1] >= 1.0

    def test_to_json_is_stable(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.count("ops", 2.0, node="n1")
        mp.count("ops", 2.0, node="n0")
        mp.maybe_scrape(100.0)
        assert mp.to_json() == mp.to_json()
        assert '"ops{node=n0}"' in mp.to_json()


# -- consistency oracle --------------------------------------------------------


class TestCheckConsistent:
    def test_clean_pipeline_passes(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.maybe_scrape(0.0)
        mp.count("ops", 1.0)
        mp.flush(250.0)
        mp.check_consistent()

    def test_non_monotonic_stamp_raises(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp._publish(("ops", ()), 200.0, 1.0)
        mp._publish(("ops", ()), 100.0, 1.0)
        with pytest.raises(MetricsError, match="non-monotonic"):
            mp.check_consistent()

    def test_non_finite_value_raises(self):
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp._publish(("ops", ()), 100.0, math.inf)
        with pytest.raises(MetricsError, match="non-finite"):
            mp.check_consistent()


# -- scrape windows (the listener contract) ------------------------------------


class TestScrapeWindowListeners:
    def test_listeners_see_raw_window_counts(self):
        seen: list[ScrapeWindow] = []
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.add_listener(seen.append)
        mp.maybe_scrape(0.0)
        mp.count("fleet.ops", 3.0, result="ok")
        mp.count("fleet.ops", 1.0, result="failed")
        mp.maybe_scrape(100.0)
        mp.maybe_scrape(200.0)  # idle window still delivered
        assert [w.t_ns for w in seen] == [100.0, 200.0]
        assert seen[0].total("fleet.ops") == 4.0
        assert seen[0].total("fleet.ops", ("result", "failed")) == 1.0
        assert seen[1].total("fleet.ops") == 0.0

    def test_remove_listener_detaches(self):
        seen: list[ScrapeWindow] = []
        mp = MetricsPipeline(scrape_interval_ns=100.0)
        mp.add_listener(seen.append)
        mp.maybe_scrape(0.0)
        mp.maybe_scrape(100.0)
        mp.remove_listener(seen.append)
        mp.maybe_scrape(200.0)
        assert len(seen) == 1
