"""Boxplot statistics per the paper's footnote 8.

"The box of each interval was drawn around the region between the first
and third quartiles, and a horizontal line at the median value.  The
whiskers extended from the ends of the box to the most distant point with
a runtime within 1.5 times the interquartile range.  Points that lie
outside the whiskers were outliers."

The per-ball runtime figures (12, 14, 19-21) are boxplots over these
summaries; this module computes them so the benchmarks can print the same
five-number series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile on a pre-sorted list."""
    if not ordered:
        raise ValueError("empty sample")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    # Interpolate from the lower neighbour and clamp: the two-product form
    # underflows to 0.0 between equal denormals, which put the median
    # outside [q1, q3].
    value = ordered[low] + (ordered[high] - ordered[low]) * fraction
    return min(max(value, ordered[low]), ordered[high])


@dataclass(frozen=True)
class BoxplotSummary:
    """The five-number summary plus outliers, footnote-8 style."""

    count: int
    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_summary(values: list[float]) -> BoxplotSummary:
    """Summarize a sample exactly as the paper's figures draw it."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    q1 = _quantile(ordered, 0.25)
    median = _quantile(ordered, 0.5)
    q3 = _quantile(ordered, 0.75)
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = [v for v in ordered if low_fence <= v <= high_fence]
    whisker_low = inside[0] if inside else q1
    whisker_high = inside[-1] if inside else q3
    outliers = tuple(v for v in ordered
                     if v < whisker_low or v > whisker_high)
    return BoxplotSummary(count=len(ordered), q1=q1, median=median, q3=q3,
                          whisker_low=whisker_low,
                          whisker_high=whisker_high, outliers=outliers)
