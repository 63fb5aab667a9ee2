"""Edge cases for percentile() endpoints and LatencyRecorder.merge()."""

import pytest

from repro.sim.stats import LatencyRecorder, percentile


class TestPercentileEndpoints:
    def test_exact_endpoints_skip_interpolation(self):
        values = [1.0, 2.0, 4.0, 8.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 8.0

    def test_endpoints_immune_to_rank_rounding(self):
        # 1/3-spaced ranks are where float rank arithmetic drifts; the
        # endpoint fast paths must return the extremes exactly.
        values = [float(i) for i in range(7)]
        assert percentile(values, 0.0) == values[0]
        assert percentile(values, 100.0) == values[-1]

    def test_duplicate_heavy_data(self):
        values = [5.0] * 10
        for q in (0.0, 37.5, 50.0, 99.0, 100.0):
            assert percentile(values, q) == 5.0


class TestLatencyRecorderEmpty:
    def test_empty_percentile_is_zero_not_raise(self):
        recorder = LatencyRecorder()
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert recorder.percentile_ns(q) == 0.0
        assert recorder.p95_ns == 0.0
        assert recorder.percentile_ns(99.0) == 0.0
        assert recorder.mean_ns == 0.0
        assert recorder.count == 0

    def test_bare_percentile_still_raises_on_empty(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_single_sample_answers_every_q(self):
        recorder = LatencyRecorder()
        recorder.add(42.0)
        for q in (0.0, 50.0, 100.0):
            assert recorder.percentile_ns(q) == 42.0


class TestLatencyRecorderMerge:
    def test_merge_combines_samples(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        for value in (1.0, 3.0):
            a.add(value)
        for value in (2.0, 4.0):
            b.add(value)
        assert a.merge(b) is a  # chains
        assert a.count == 4
        assert a.mean_ns == 2.5
        assert a.percentile_ns(0.0) == 1.0
        assert a.percentile_ns(100.0) == 4.0
        assert a.percentile_ns(50.0) == 2.5

    def test_merge_empty_other_is_noop(self):
        a = LatencyRecorder()
        a.add(7.0)
        a.percentile_ns(50.0)  # force the sorted fast path
        a.merge(LatencyRecorder())
        assert a.count == 1
        assert a.percentile_ns(50.0) == 7.0

    def test_merge_into_empty(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        b.add(9.0)
        a.merge(b)
        assert a.count == 1
        assert a.percentile_ns(99.0) == 9.0

    def test_merge_invalidates_sorted_cache(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.add(10.0)
        assert a.percentile_ns(50.0) == 10.0  # marks a sorted
        b.add(1.0)
        a.merge(b)  # appends below the sorted prefix
        assert a.percentile_ns(0.0) == 1.0
        assert a.percentile_ns(100.0) == 10.0

    def test_merge_does_not_mutate_source(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        b.add(5.0)
        a.merge(b)
        a.add(6.0)
        assert b.count == 1
        assert b.percentile_ns(100.0) == 5.0
