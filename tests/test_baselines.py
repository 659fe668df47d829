import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapsense import (METHODS, Sample, Sensitivity, boxplot_detect,
                      builtin_dataset, chauvenet_detect, mad_detect,
                      mean_sigma_detect, run_method)
from gapsense.baselines import (MAD_CONSISTENCY, _fences, _hinges,
                                _mad_interval)

FIVE = ("rosner", "barnett", "grubbs1", "grubbs3", "cushny")


# --- mean +- k sigma ------------------------------------------------------

def test_mean_sigma_three_sigma_flags_nothing_on_table_datasets():
    for name in FIVE:
        det = mean_sigma_detect(builtin_dataset(name), 3.0)
        assert det.outlier_values == (), name


def test_mean_sigma_two_sigma_cushny():
    det = mean_sigma_detect(builtin_dataset("cushny"), 2.0)
    assert det.outlier_values == (4.6,)


def test_mean_sigma_constant_data():
    det = mean_sigma_detect(Sample.from_iterable([2, 2, 2]), 3.0)
    assert det.outlier_values == ()
    assert det.normal_low == det.normal_high == 2.0


def test_mean_sigma_validation():
    with pytest.raises(ValueError):
        mean_sigma_detect(Sample.from_iterable([1.0]))
    with pytest.raises(ValueError):
        mean_sigma_detect(Sample.from_iterable([1, 2]), k=0)


# --- hinges and boxplot ----------------------------------------------------

def hinges(sample):
    return tuple(float(q) for q in _hinges(sample.values))


def test_hinges():
    assert hinges(builtin_dataset("cushny")) == (1.0, 1.8)
    assert hinges(builtin_dataset("barnett")) == (5.5, 479.5)
    assert hinges(Sample.from_iterable([1, 2, 3, 4])) == (1.5, 3.5)


def test_boxplot_table_cells():
    assert boxplot_detect(builtin_dataset("rosner")).outlier_values == (40.0,)
    assert boxplot_detect(builtin_dataset("cushny")).outlier_values == (4.6,)
    assert boxplot_detect(builtin_dataset("grubbs1")).outlier_values == (596.0,)
    assert boxplot_detect(builtin_dataset("grubbs3")).outlier_values == ()
    det = boxplot_detect(builtin_dataset("barnett"))
    assert det.outlier_values == ()
    assert det.normal_high == pytest.approx(1190.5)


def test_boxplot_collapsed_iqr_still_flags():
    det = boxplot_detect(Sample.from_iterable([0, 0, 0, 0, 10]))
    assert det.outlier_values == (10.0,)


# --- median +- k MADn -------------------------------------------------------

def test_mad_grubbs1():
    det = mad_detect(builtin_dataset("grubbs1"), 3.0)
    assert det.outlier_values == (584.0, 596.0)
    # median 572, MADn = 1.4826 * 2
    assert det.normal_low == pytest.approx(572 - 3 * 2.9652)
    assert det.normal_high == pytest.approx(572 + 3 * 2.9652)


def test_mad_grubbs3_depends_on_k():
    assert mad_detect(builtin_dataset("grubbs3"), 3.0).outlier_values == ()
    assert mad_detect(builtin_dataset("grubbs3"), 2.0).outlier_values == (2.02, 2.22)


def test_mad_table_cells():
    assert mad_detect(builtin_dataset("rosner")).outlier_values == (40.0,)
    assert mad_detect(builtin_dataset("barnett")).outlier_values == (949.0, 951.0)
    assert mad_detect(builtin_dataset("cushny")).outlier_values == (4.6,)


def test_mad_zero_scale_flags_all_nonmedian():
    det = mad_detect(Sample.from_iterable([1, 1, 1, 1, 9]))
    assert det.outlier_values == (9.0,)
    assert det.normal_low == det.normal_high == 1.0


# --- expected-count criterion ----------------------------------------------

def test_chauvenet_rosner():
    det = chauvenet_detect(builtin_dataset("rosner"))
    assert det.outlier_values == (40.0,)
    # hand oracle: mean 82.2, sd 16.07, z = 2.63, expected count ~ 0.085
    z = (82.2 - 40) / 16.0679
    assert 10 * math.erfc(z / math.sqrt(2)) == pytest.approx(0.085, abs=0.005)


def test_chauvenet_cushny():
    det = chauvenet_detect(builtin_dataset("cushny"))
    assert det.outlier_values == (4.6,)
    z = (4.6 - 1.58) / 1.2301
    assert 10 * math.erfc(z / math.sqrt(2)) == pytest.approx(0.14, abs=0.01)
    # next candidate is retained with expected count far above 1/2
    z = (2.4 - 1.58) / 1.2301
    assert 10 * math.erfc(z / math.sqrt(2)) == pytest.approx(5.05, abs=0.05)


def test_chauvenet_small_clean_sample():
    assert chauvenet_detect(Sample.from_iterable([-1, 0, 1])).outlier_values == ()


def test_chauvenet_needs_three():
    with pytest.raises(ValueError):
        chauvenet_detect(Sample.from_iterable([1, 2]))


def test_chauvenet_constant():
    assert chauvenet_detect(Sample.from_iterable([3, 3, 3])).outlier_values == ()


# --- values near the largest double -----------------------------------------

# the middle pairs of both halves, and the whole sum, overflow a double
HUGE = [0.0] + [0.9e308] * 3 + [0.95e308] * 3 + [1.0e308]


def _matches_scaled_data(detect):
    """``detect`` on HUGE equals ``detect`` on HUGE * 2**-1000, scaled back:
    power-of-two scaling is exact, so the answers must agree bit for bit."""
    big = detect(Sample.from_iterable(HUGE))
    small = detect(Sample.from_iterable([math.ldexp(x, -1000) for x in HUGE]))
    assert big.outlier_values == (0.0,)
    assert (big.normal_low, big.normal_high) == (
        math.ldexp(small.normal_low, 1000), math.ldexp(small.normal_high, 1000))


@pytest.mark.parametrize("detect", [boxplot_detect, mad_detect],
                         ids=["boxplot", "mad"])
def test_median_of_values_near_the_double_max(detect):
    _matches_scaled_data(detect)


def test_median_rows_keep_their_sums_beside_an_overflowing_row():
    ordinary = np.array([0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 2.9, 3.3])
    both = np.array([ordinary, np.sort(HUGE)])
    for kernel in (lambda v: _fences(v, 1.5),
                   lambda v: _mad_interval(v, 3.0, MAD_CONSISTENCY)):
        low, high = kernel(both)
        assert (low[0], high[0]) == kernel(ordinary)
        assert np.isfinite([low, high]).all()


@pytest.mark.parametrize("detect", [lambda s: mean_sigma_detect(s, 2.0),
                                    chauvenet_detect],
                         ids=["mean", "chauvenet"])
def test_mean_of_values_near_the_double_max(detect):
    _matches_scaled_data(detect)


def _exact_median(xs):
    xs = sorted(xs)
    i = len(xs) // 2
    return xs[i] if len(xs) % 2 else (xs[i - 1] + xs[i]) / 2


def _exact_flags(values, method):
    """Indices outside the boxplot (whisker 1.5) or MAD (k 3) interval of
    ``values``, in exact rational arithmetic: no intermediate overflows."""
    xs = [Fraction(x) for x in values]
    n = len(xs)
    if method == "boxplot":
        q1, q3 = _exact_median(xs[:(n + 1) // 2]), _exact_median(xs[n // 2:])
        low, high = (q1 - Fraction(1.5) * (q3 - q1),
                     q3 + Fraction(1.5) * (q3 - q1))
    else:
        med = _exact_median(xs)
        madn = Fraction(MAD_CONSISTENCY) * _exact_median(
            [abs(x - med) for x in xs])
        low, high = med - 3 * madn, med + 3 * madn
    return tuple(i for i, x in enumerate(xs) if x < low or x > high)


@pytest.mark.parametrize("method, values, flagged", [
    # k * MADn overflows, but the high end is 1.0238e308
    ("mad", [-1.2677964076059891e308, -1.2080361574019415e308,
             -1.1959149445462517e308, -4.495957798003728e307,
             1.0677789619922068e308, 1.6830158023912567e308], (4, 5)),
    # whisker * IQR overflows, but the high fence is 1.75e308
    ("boxplot", [-1.6e308, -1.5e308, -1.5e308, -1.4e308, -0.3e308, -0.2e308,
                 -0.2e308, -0.1e308, 1.79e308], (8,)),
])
def test_interval_ends_that_are_doubles_survive_an_overflow(method, values,
                                                            flagged):
    det = run_method(method, Sample.from_iterable(values))
    assert det.outlier_indices == flagged == _exact_flags(values, method)
    assert math.isfinite(det.normal_high)


# doubles up to the largest, down to where a difference of two is still
# normal after any scaling below (subnormal rounding is another matter),
# and samples near the double max, where intervals overflow most
wide_values = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(2.0 ** -400, 1.79e308),
                       st.floats(-1.79e308, -2.0 ** -400)),
             min_size=3, max_size=12),
    st.lists(st.integers(-179, 179).map(lambda m: m * 1e306), min_size=3,
             max_size=12))


@settings(max_examples=300, deadline=None)
@given(values=wide_values, k=st.integers(1, 400))
def test_boxplot_and_mad_flag_the_same_values_at_every_binary_scale(values,
                                                                    k):
    s1 = Sample.from_iterable(values)
    s2 = Sample.from_iterable([math.ldexp(x, -k) for x in values])
    for detect in (boxplot_detect, mad_detect):
        assert detect(s1).outlier_indices == detect(s2).outlier_indices


# --- shared properties --------------------------------------------------------

DETECTORS = [
    lambda s: mean_sigma_detect(s, 3.0),
    lambda s: boxplot_detect(s, 1.5),
    lambda s: mad_detect(s, 3.0),
    chauvenet_detect,
]

# dyadic rationals keep the affine transform itself exact in binary floats
values_strategy = st.lists(
    st.integers(-128000, 128000).map(lambda k: k / 16.0),
    min_size=3, max_size=40)
scale_strategy = st.integers(1, 65536).map(lambda m: m / 64.0)
shift_strategy = st.integers(-1024000, 1024000).map(lambda j: j / 16.0)


@settings(max_examples=120)
@given(values=values_strategy, a=scale_strategy, b=shift_strategy)
def test_baseline_affine_equivariance(values, a, b):
    s1 = Sample.from_iterable(values)
    s2 = Sample.from_iterable([a * x + b for x in values])
    for detect in DETECTORS:
        assert detect(s1).outlier_indices == detect(s2).outlier_indices


@settings(max_examples=120)
@given(values=values_strategy, a=scale_strategy)
def test_baseline_mirror_under_negative_scale(values, a):
    s1 = Sample.from_iterable(values)
    s2 = Sample.from_iterable([-a * x for x in values])
    n = s1.n
    for detect in DETECTORS:
        mirrored = tuple(sorted(n - 1 - k for k in detect(s2).outlier_indices))
        assert detect(s1).outlier_indices == mirrored


def test_monotone_in_k():
    rng = random.Random(99)
    for _ in range(200):
        values = [rng.gauss(0, 1) for _ in range(rng.randint(3, 30))]
        s = Sample.from_iterable(values)
        for factory in (mean_sigma_detect, mad_detect):
            k1, k2 = sorted([rng.uniform(0.5, 4), rng.uniform(0.5, 4)])
            small = set(factory(s, k2).outlier_indices)
            large = set(factory(s, k1).outlier_indices)
            assert small <= large


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=3, max_size=40),
       st.sampled_from(sorted(METHODS)),
       st.sampled_from([0.0, 1.0, 1.81, 2.0]))
def test_every_method_flags_exactly_the_values_outside_its_interval(
        ints, name, c):
    s = Sample.from_iterable([x / 4.0 for x in ints])
    det = run_method(name, s, Sensitivity.from_threshold(c))
    lo, hi = det.normal_low, det.normal_high
    expect = [j for j, x in enumerate(s.values.tolist())
              if lo is None or x < lo or x > hi]
    assert (lo is None) == (hi is None)
    assert list(det.outlier_indices) == expect
    assert list(det.outlier_values) == [s.values[j] for j in expect]
    assert all(type(x) is float for x in det.outlier_values)
    assert all(type(x) in (float, type(None)) for x in (lo, hi))


def test_method_table_dispatch():
    s = builtin_dataset("cushny")
    assert set(METHODS) == {"iir", "iir-high", "mean", "boxplot", "mad",
                            "chauvenet"}
    assert run_method("boxplot", s).outlier_values == (4.6,)
    assert run_method("mean", s).outlier_values == ()
    assert run_method("mean", s, k=2.0).outlier_values == (4.6,)
    assert run_method("mad", s).outlier_values == (4.6,)
    assert run_method("chauvenet", s).outlier_values == (4.6,)
    with pytest.raises(ValueError):
        run_method("zscore", s)
    with pytest.raises(ValueError):
        run_method("mad", s, k=-1)
