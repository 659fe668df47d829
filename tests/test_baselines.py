import random

import pytest
from hypothesis import given, settings, strategies as st

from gapsense import (METHODS, Sample, Sensitivity, boxplot_detect,
                      builtin_dataset, chauvenet_detect, mad_detect,
                      mean_sigma_detect, normal_tail, run_method,
                      tukey_hinges)

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

def test_hinges():
    assert tukey_hinges(builtin_dataset("cushny")) == (1.0, 1.8)
    assert tukey_hinges(builtin_dataset("barnett")) == (5.5, 479.5)
    assert tukey_hinges(Sample.from_iterable([1, 2, 3, 4])) == (1.5, 3.5)


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
    assert 10 * normal_tail(z) == pytest.approx(0.085, abs=0.005)


def test_chauvenet_cushny():
    det = chauvenet_detect(builtin_dataset("cushny"))
    assert det.outlier_values == (4.6,)
    assert 10 * normal_tail((4.6 - 1.58) / 1.2301) == pytest.approx(0.14, abs=0.01)
    # next candidate is retained with expected count far above 1/2
    assert 10 * normal_tail((2.4 - 1.58) / 1.2301) == pytest.approx(5.05, abs=0.05)


def test_chauvenet_small_clean_sample():
    assert chauvenet_detect(Sample.from_iterable([-1, 0, 1])).outlier_values == ()


def test_chauvenet_needs_three():
    with pytest.raises(ValueError):
        chauvenet_detect(Sample.from_iterable([1, 2]))


def test_chauvenet_constant():
    assert chauvenet_detect(Sample.from_iterable([3, 3, 3])).outlier_values == ()


# --- normal tail -------------------------------------------------------------

def test_normal_tail_values():
    assert normal_tail(0.0) == 1.0
    assert normal_tail(1.96) == pytest.approx(0.0500, abs=1e-4)
    assert normal_tail(3.0) == pytest.approx(0.0027, abs=1e-4)


def test_normal_tail_domain():
    with pytest.raises(ValueError):
        normal_tail(-0.5)


def test_normal_tail_monotone_and_bounded():
    zs = [i * 0.05 for i in range(200)]
    ps = [normal_tail(z) for z in zs]
    assert all(0 < p <= 1 for p in ps)
    assert all(a > b for a, b in zip(ps, ps[1:]))


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
