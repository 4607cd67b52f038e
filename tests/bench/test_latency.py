"""LatencyRecorder percentiles and run_stream integration."""

import pytest

from repro import TimingMatcher
from repro.bench.metrics import LatencyRecorder, run_stream

from ..conftest import fig3_stream, fig5_query


class TestLatencyRecorder:
    def test_empty(self):
        recorder = LatencyRecorder()
        assert recorder.p50 == 0.0
        assert recorder.max == 0.0

    def test_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):          # 1..100
            recorder.record(float(value))
        assert recorder.p50 == 50.0          # nearest-rank: ceil(p·n)-th
        assert recorder.p95 == 95.0
        assert recorder.p99 == 99.0
        assert recorder.percentile(0.0) == 1.0
        assert recorder.percentile(0.501) == 51.0
        assert recorder.percentile(1.0) == 100.0
        assert recorder.max == 100.0

    def test_fraction_validation(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.percentile(1.5)     # checked before the empty case
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(1.5)
        with pytest.raises(ValueError):
            recorder.percentile(-0.1)

    @pytest.mark.parametrize("samples, fraction, expected", [
        ([5.0], 0.0, 5.0),
        ([5.0], 1.0, 5.0),
        ([1.0, 2.0], 0.5, 1.0),        # exactly half: the lower sample
        ([1.0, 2.0], 0.51, 2.0),
        ([3.0, 1.0, 4.0, 2.0], 0.25, 1.0),   # unsorted input
        ([3.0, 1.0, 4.0, 2.0], 0.75, 3.0),
        ([float(v) for v in range(1, 11)], 0.9, 9.0),
        ([float(v) for v in range(1, 11)], 0.91, 10.0),
    ])
    def test_nearest_rank(self, samples, fraction, expected):
        """The smallest sample with at least ``fraction`` of all samples
        at or below it."""
        recorder = LatencyRecorder()
        for value in samples:
            recorder.record(value)
        assert recorder.percentile(fraction) == expected

    def test_nan_fraction_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(float("nan"))

    def test_run_stream_integration(self):
        recorder = LatencyRecorder()
        matcher = TimingMatcher(fig5_query(), window=9.0)
        result = run_stream(matcher, fig3_stream(), latency=recorder)
        assert result.edges_processed == 10
        assert len(recorder.samples) == 10
        assert recorder.p99 >= recorder.p50 > 0.0
