"""Tests for the footnote-8 boxplot summaries."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads.stats import boxplot_summary


class TestBoxplotSummary:
    def test_simple_sample(self):
        summary = boxplot_summary([1, 2, 3, 4, 5])
        assert summary.median == 3
        assert summary.q1 == 2
        assert summary.q3 == 4
        assert summary.whisker_low == 1
        assert summary.whisker_high == 5
        assert summary.outliers == ()

    def test_outlier_detected(self):
        summary = boxplot_summary([1, 2, 3, 4, 5, 100])
        assert 100 in summary.outliers
        assert summary.whisker_high < 100

    def test_single_value(self):
        summary = boxplot_summary([7.0])
        assert summary.median == 7.0
        assert summary.iqr == 0.0
        assert summary.outliers == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_summary([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    @example([5e-324, 5e-324])  # equal denormals once underflowed to 0.0
    def test_invariants(self, values):
        summary = boxplot_summary(values)
        assert summary.count == len(values)
        assert summary.q1 <= summary.median <= summary.q3
        # Whiskers are actual data points (interpolated quartiles may sit
        # slightly outside them for tiny samples).
        assert summary.whisker_low <= summary.whisker_high
        ordered = sorted(values)
        assert summary.whisker_low >= ordered[0] - 1e-9
        assert summary.whisker_high <= ordered[-1] + 1e-9
        # Outliers + inside points = all points.
        inside = [v for v in ordered
                  if summary.whisker_low <= v <= summary.whisker_high]
        assert len(inside) + len(summary.outliers) == len(values)
