"""Tests for statistical helpers."""

import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    boxplot_summary,
    cdf_at,
    empirical_cdf,
    levene_test,
    percent_above,
    percent_below,
    welch_ttest,
)


def test_boxplot_summary_known_values():
    summary = boxplot_summary([1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert summary.count == 9
    assert summary.median == 5
    assert summary.q1 == 3
    assert summary.q3 == 7
    assert summary.mean == 5
    assert summary.minimum == 1 and summary.maximum == 9
    assert summary.iqr == 4


def test_boxplot_whiskers_clamped_to_data():
    summary = boxplot_summary([1, 2, 3, 4, 100])
    assert summary.whisker_low >= summary.minimum
    assert summary.whisker_high <= summary.maximum
    # The outlier at 100 sits beyond the Tukey fence.
    assert summary.whisker_high < 100


def test_boxplot_empty_rejected():
    with pytest.raises(ValueError):
        boxplot_summary([])


def test_empirical_cdf_shape():
    xs, ys = empirical_cdf([3.0, 1.0, 2.0])
    assert xs == [1.0, 2.0, 3.0]
    assert ys == pytest.approx([1 / 3, 2 / 3, 1.0])
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_cdf_at_and_percentiles():
    values = [10, 20, 30, 40]
    assert cdf_at(values, 25) == 0.5
    assert percent_above(values, 25) == 0.5
    assert percent_below(values, 25) == 0.5
    assert percent_above(values, 40) == 0.0
    with pytest.raises(ValueError):
        cdf_at([], 1)


def test_welch_detects_difference():
    rng = random.Random(1)
    a = [rng.gauss(50, 5) for _ in range(100)]
    b = [rng.gauss(300, 50) for _ in range(100)]
    stat, p = welch_ttest(a, b)
    assert p < 1e-10
    assert stat < 0  # a's mean is lower


def test_welch_no_difference():
    rng = random.Random(2)
    a = [rng.gauss(50, 5) for _ in range(100)]
    b = [rng.gauss(50, 5) for _ in range(100)]
    _, p = welch_ttest(a, b)
    assert p > 0.01


def test_welch_requires_samples():
    with pytest.raises(ValueError):
        welch_ttest([1.0], [1.0, 2.0])


def test_levene_detects_variance_difference():
    rng = random.Random(3)
    narrow = [rng.gauss(100, 2) for _ in range(100)]
    wide = [rng.gauss(100, 40) for _ in range(100)]
    _, p = levene_test(narrow, wide)
    assert p < 1e-6


def test_levene_homogeneous():
    rng = random.Random(4)
    a = [rng.gauss(0, 10) for _ in range(200)]
    b = [rng.gauss(5, 10) for _ in range(200)]
    _, p = levene_test(a, b)
    assert p > 0.01


def test_levene_validation():
    with pytest.raises(ValueError):
        levene_test([1.0, 2.0])
    with pytest.raises(ValueError):
        levene_test([1.0], [1.0, 2.0])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_boxplot_invariants(values):
    summary = boxplot_summary(values)
    assert summary.minimum <= summary.q1 <= summary.median <= summary.q3 <= summary.maximum
    # Tolerate float summation error on the mean.
    span = max(1e-9, abs(summary.maximum - summary.minimum) * 1e-9)
    assert summary.minimum - span <= summary.mean <= summary.maximum + span


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_cdf_monotone_and_bounded(values):
    xs, ys = empirical_cdf(values)
    assert xs == sorted(xs)
    assert ys[-1] == pytest.approx(1.0)
    assert all(0 < y <= 1 for y in ys)
    assert all(a <= b for a, b in zip(ys, ys[1:]))


# -- bit-for-bit against scipy.stats ------------------------------------------
#
# welch_ttest and levene_test reimplement scipy.stats' statistics in numpy
# and call the same scipy.special ufuncs for the p-values. scipy.stats is
# imported here only, as the reference.


def _same_float(got, expected):
    return got == expected or (math.isnan(got) and math.isnan(expected))


def _assert_bitwise(got, expected):
    assert all(_same_float(g, e) for g, e in zip(got, expected)), (got, expected)


def _scipy_welch(a, b):
    from scipy import stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = stats.ttest_ind(list(a), list(b), equal_var=False)
    return float(result.statistic), float(result.pvalue)


def _scipy_levene(*groups):
    from scipy import stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = stats.levene(*[list(g) for g in groups])
    return float(result.statistic), float(result.pvalue)


def _ours(test, *groups):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return test(*groups)


_samples = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12),
    min_size=2, max_size=40,
)


# No deadline: the first example pays for importing scipy.stats.
@settings(deadline=None, max_examples=300)
@given(_samples, _samples)
def test_welch_equals_scipy_bitwise(a, b):
    _assert_bitwise(_ours(welch_ttest, a, b), _scipy_welch(a, b))


@settings(deadline=None, max_examples=300)
@given(st.lists(_samples, min_size=2, max_size=4))
def test_levene_equals_scipy_bitwise(groups):
    _assert_bitwise(_ours(levene_test, *groups), _scipy_levene(*groups))


#: Degenerate inputs: zero variances (nan/inf statistics), identical
#: samples, overflowing squares, and a three-group Levene.
EDGE_CASES = [
    ([1.0, 1.0, 1.0], [2.0, 2.0]),
    ([3.0, 3.0], [3.0, 3.0]),
    ([0.0, 0.0], [0.0, 1e-300]),
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]),
    ([1e300, -1e300, 1e300], [-1e300, 1e300]),
    ([1e300, 1e300], [1.0, 2.0]),
    ([1.0, 2.0, 4.0], [3.0, 3.5, 9.0, 1.0], [0.5, 0.25]),
]


@pytest.mark.parametrize("groups", EDGE_CASES)
def test_edge_cases_equal_scipy_bitwise(groups):
    if len(groups) == 2:
        _assert_bitwise(_ours(welch_ttest, *groups), _scipy_welch(*groups))
    _assert_bitwise(_ours(levene_test, *groups), _scipy_levene(*groups))
