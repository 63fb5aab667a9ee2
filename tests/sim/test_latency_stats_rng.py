"""Latency calibration, statistics utilities, and deterministic RNG."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.latency import CACHE_LINE, CostModel, LatencyConfig
from repro.sim.rng import WorkloadRng, ZipfGenerator
from repro.sim.stats import (
    LatencyRecorder,
    TimeSeries,
    percentile,
)


class TestLatencyConfig:
    def test_table2_endpoints_exact(self):
        config = LatencyConfig()
        # The linear model is fit to Table 2's 64 B and 16 KB endpoints.
        assert config.rdma_write_ns(64) == pytest.approx(4480, rel=0.01)
        assert config.rdma_write_ns(16384) == pytest.approx(6120, rel=0.01)
        assert config.rdma_read_ns(64) == pytest.approx(4550, rel=0.01)
        assert config.rdma_read_ns(16384) == pytest.approx(7130, rel=0.01)
        assert config.cxl_write_ns(64) == pytest.approx(780, rel=0.01)
        assert config.cxl_write_ns(16384) == pytest.approx(1680, rel=0.01)
        assert config.cxl_read_ns(64) == pytest.approx(750, rel=0.01)
        assert config.cxl_read_ns(16384) == pytest.approx(2460, rel=0.01)

    def test_table1_ratios(self):
        config = LatencyConfig()
        assert config.cxl_switch_local_ns / config.dram_local_ns == pytest.approx(
            3.76, rel=0.02
        )
        assert config.cxl_switch_remote_ns / config.dram_remote_ns == pytest.approx(
            2.82, rel=0.02
        )

    def test_cxl_beats_rdma_at_every_size(self):
        config = LatencyConfig()
        for size in (64, 512, 1024, 4096, 16384):
            assert config.cxl_read_ns(size) < config.rdma_read_ns(size)
            assert config.cxl_write_ns(size) < config.rdma_write_ns(size)

    def test_cache_line_is_64(self):
        assert CACHE_LINE == 64

    def test_cost_model_carries_latency_config(self):
        custom = LatencyConfig(dram_local_ns=99.0)
        cost = CostModel(latency=custom)
        assert cost.latency.dram_local_ns == 99.0


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_bounded_by_min_max(self, values):
        values.sort()
        for q in (0, 25, 50, 95, 100):
            p = percentile(values, q)
            assert values[0] <= p <= values[-1]

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=100))
    def test_monotone_in_q(self, values):
        values.sort()
        ps = [percentile(values, q) for q in (10, 50, 90)]
        # Monotone up to float interpolation round-off.
        for lo, hi in zip(ps, ps[1:]):
            assert lo <= hi or math.isclose(lo, hi, rel_tol=1e-9)


class TestLatencyRecorder:
    def test_percentiles(self):
        rec = LatencyRecorder()
        for value in range(1, 101):
            rec.add(float(value))
        assert rec.mean_ns == pytest.approx(50.5)
        assert rec.p95_ns == pytest.approx(95.05)
        assert rec.percentile_ns(99.0) == pytest.approx(99.01)
        assert rec.count == 100


class TestTimeSeries:
    def test_bucketing_and_gap_filling(self):
        ts = TimeSeries(bucket_ns=1_000_000_000)
        ts.record(100, count=5)
        ts.record(2_500_000_000, count=10)
        series = ts.series()
        assert len(series) == 3
        assert series[0] == (0.0, 5.0)
        assert series[1] == (1.0, 0.0)
        assert series[2] == (2.0, 10.0)

    def test_empty(self):
        assert TimeSeries(bucket_ns=1000).series() == []


class TestWorkloadRng:
    def test_deterministic_given_seed(self):
        a = WorkloadRng(5)
        b = WorkloadRng(5)
        assert [a.uniform_int(0, 1000) for _ in range(20)] == [
            b.uniform_int(0, 1000) for _ in range(20)
        ]

    def test_fork_streams_differ(self):
        root = WorkloadRng(5)
        a, b = root.fork(1), root.fork(2)
        assert [a.uniform_int(0, 10**6) for _ in range(10)] != [
            b.uniform_int(0, 10**6) for _ in range(10)
        ]

    def test_zipf_skews_toward_few_keys(self):
        rng = WorkloadRng(3)
        counts: dict[int, int] = {}
        for _ in range(4000):
            key = rng.zipf(1000, 0.99)
            counts[key] = counts.get(key, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # The hottest key gets far more than the uniform share (4).
        assert top[0] > 40
        # Hot keys are scattered across the key space, not clustered in
        # one run of adjacent ids.
        top5 = sorted(counts, key=counts.get, reverse=True)[:5]
        assert max(top5) - min(top5) > 10

    def test_zipf_range(self):
        rng = WorkloadRng(4)
        assert all(0 <= rng.zipf(50, 0.9) < 50 for _ in range(500))

    def test_zipf_validation(self):
        rng = WorkloadRng(1)
        with pytest.raises(ValueError):
            ZipfGenerator(0, 0.9, rng._rng)
        with pytest.raises(ValueError):
            ZipfGenerator(10, -1.0, rng._rng)

    def test_weighted_choice_respects_weights(self):
        rng = WorkloadRng(9)
        picks = [rng.weighted_choice(["a", "b"], [95, 5]) for _ in range(500)]
        assert picks.count("a") > 400

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            WorkloadRng(1).weighted_choice(["a"], [1, 2])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25)
    def test_bytes_length(self, seed):
        assert len(WorkloadRng(seed).bytes(17)) == 17
