"""Statistical machinery for the experiments.

Boxplot summaries (the paper's dominant visual), empirical CDFs, and the
two hypothesis tests the paper runs: Welch's t-test (SIM vs eSIM RTTs)
and Levene's test (variance homogeneity of RTTs). The two tests compute
their statistics with numpy, in ``scipy.stats``' own operation order, and
take their p-values from the ``scipy.special`` ufuncs ``scipy.stats``
calls (``stdtr``, ``fdtrc``), so they return its floats bit for bit
without importing ``scipy.stats``. ``scipy.special`` is imported inside
the two tests only: it would otherwise dominate the start-up of every
CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary plus mean and sample count."""

    count: int
    mean: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def whisker_low(self) -> float:
        """Tukey lower whisker: smallest point above Q1 - 1.5 IQR."""
        return max(self.minimum, self.q1 - 1.5 * self.iqr)

    @property
    def whisker_high(self) -> float:
        """Tukey upper whisker: largest point below Q3 + 1.5 IQR."""
        return min(self.maximum, self.q3 + 1.5 * self.iqr)


def boxplot_summary(values: Sequence[float]) -> BoxplotSummary:
    """Summary statistics for one boxplot."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    return BoxplotSummary(
        count=arr.size,
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(arr.max()),
    )


def empirical_cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Sorted sample values and their cumulative probabilities."""
    if not values:
        raise ValueError("cannot build a CDF from an empty sample")
    xs = sorted(float(v) for v in values)
    n = len(xs)
    ys = [(i + 1) / n for i in range(n)]
    return xs, ys


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """P(X <= threshold) under the empirical distribution."""
    if not values:
        raise ValueError("cannot evaluate a CDF on an empty sample")
    return sum(1 for v in values if v <= threshold) / len(values)


def percent_above(values: Sequence[float], threshold: float) -> float:
    """Share of the sample strictly above ``threshold`` (0..1)."""
    if not values:
        raise ValueError("empty sample")
    return sum(1 for v in values if v > threshold) / len(values)


def percent_below(values: Sequence[float], threshold: float) -> float:
    """Share of the sample at or below ``threshold`` (0..1)."""
    return 1.0 - percent_above(values, threshold)


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's unequal-variance t-test; returns (statistic, p-value).

    Equals ``scipy.stats.ttest_ind(a, b, equal_var=False)`` bit for bit:
    the same numpy operations on the same scalar types, then the
    two-sided p-value ``2 * stdtr(df, -|t|)``.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("t-test needs at least two samples per group")
    from scipy.special import stdtr

    x1 = np.asarray(a, dtype=float)
    x2 = np.asarray(b, dtype=float)
    n1, n2 = x1.size, x2.size
    # numpy scalars, as in scipy.stats: ``**2`` on a scalar calls pow(),
    # on an array it squares, and the two can differ in the last bit.
    with np.errstate(divide="ignore", invalid="ignore"):
        vn1 = _sample_variance(x1) / n1
        vn2 = _sample_variance(x2) / n2
        df = (vn1 + vn2)**2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        # A NaN df means both variances are zero; any df then works.
        df = np.where(np.isnan(df), 1.0, df)
        t = np.divide(np.mean(x1) - np.mean(x2), np.sqrt(vn1 + vn2))
    p = 2 * stdtr(df, -np.abs(t))
    return float(t), float(p)


def _sample_variance(x: np.ndarray) -> np.floating:
    """Variance with ddof=1, as ``scipy.stats`` computes it: the mean
    squared deviation, then the ``n / (n - 1)`` correction."""
    n = np.asarray(x.size, dtype=float)
    return np.mean((x - np.mean(x, axis=-1, keepdims=True))**2) * (n / (n - 1))


def levene_test(*groups: Sequence[float]) -> Tuple[float, float]:
    """Levene's test (median-centred) for homogeneity of variances.

    Equals ``scipy.stats.levene(*groups)`` bit for bit: the
    Brown-Forsythe statistic ``W`` in its operation order, then
    ``fdtrc(k - 1, N - k, W)``.
    """
    if len(groups) < 2:
        raise ValueError("Levene's test needs at least two groups")
    if any(len(g) < 2 for g in groups):
        raise ValueError("each group needs at least two samples")
    from scipy.special import fdtrc

    samples = [np.asarray(g, dtype=float) for g in groups]
    k = len(samples)
    sizes = [x.size for x in samples]
    total = sum(sizes)
    # One-element arrays (keepdims), as in scipy.stats, for the same
    # ``**2`` reason as in welch_ttest.
    deviations = [np.abs(x - np.median(x, axis=-1, keepdims=True)) for x in samples]
    group_means = [np.mean(z, axis=-1, keepdims=True) for z in deviations]
    grand_mean = sum(n * zbar for n, zbar in zip(sizes, group_means)) / total
    numer = (total - k) * sum(
        n * (zbar - grand_mean)**2 for n, zbar in zip(sizes, group_means)
    )
    denom = (k - 1.0) * sum(
        np.sum((z - zbar)**2, axis=-1, keepdims=True)
        for z, zbar in zip(deviations, group_means)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.squeeze(numer / denom)
    p = fdtrc(np.float64(k - 1.0), np.float64(total - k), w)
    return float(w), float(p)
