"""Expanding-detector tests, including the independent two-sided oracle."""
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gapsense import (Sample, Sensitivity, builtin_dataset, detect_high_side,
                      detect_two_sided, iir_closed_form, threshold_to_weber,
                      weber_to_threshold)
from scan_oracles import high_side_loop, two_sided_loop, two_sided_oracle

SENS = Sensitivity.from_threshold(1.81)


# --- closed-form score -------------------------------------------------

def test_closed_form_barnett_border():
    # spreadsheet oracle: 6 * 936 / 948
    assert iir_closed_form(939, 3, 7, 948) == pytest.approx(6 * 936 / 948)
    assert iir_closed_form(939, 3, 7, 948) == pytest.approx(5.9241, abs=1e-4)


def test_closed_form_zero_when_gap_equals_max():
    assert iir_closed_form(0.7, 0.7, 12, 3.1) == 0.0


def test_closed_form_venus_value():
    # 14 * 0.19 / 2.41, reported as 1.10
    assert iir_closed_form(0.38, 0.19, 15, 2.41) == pytest.approx(1.1037, abs=1e-4)


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        iir_closed_form(1.0, 0.5, 10, 0.0)
    with pytest.raises(ValueError):
        iir_closed_form(1.0, 0.5, 10, -2.0)
    with pytest.raises(ValueError):
        iir_closed_form(1.0, 0.5, 1, 1.0)
    with pytest.raises(OverflowError):
        iir_closed_form(1.0, 0.5, 10, float("inf"))


@given(gap=st.floats(1e-6, 1e6), max_prev=st.floats(0, 1e6),
       n=st.integers(2, 10000), span=st.floats(1e-6, 1e9))
def test_closed_form_matches_ratio_form(gap, max_prev, n, span):
    """(n-1)*gap/span divided by gap/(gap-max_prev), where defined."""
    if gap == max_prev:
        return
    er = (n - 1) * gap / span
    ihr = gap / (gap - max_prev)
    assert iir_closed_form(gap, max_prev, n, span) == pytest.approx(
        er / ihr, rel=1e-9)


# --- Weber mapping ------------------------------------------------------

def test_weber_to_threshold_values():
    assert weber_to_threshold(0.05) == pytest.approx(1.8095, abs=1e-4)
    assert weber_to_threshold(0.0) == 2.0
    assert weber_to_threshold(1.0) == 0.0
    assert weber_to_threshold(0.1) == pytest.approx(1.6363, abs=1e-4)


def test_threshold_to_weber_values():
    assert threshold_to_weber(1.10) == pytest.approx(0.2903, abs=1e-4)
    assert threshold_to_weber(0.29) == pytest.approx(0.7467, abs=1e-4)
    assert threshold_to_weber(2.0) == 0.0


def test_weber_domain_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            weber_to_threshold(bad)
    for bad in (-0.1, 2.1):
        with pytest.raises(ValueError):
            threshold_to_weber(bad)


def test_threshold_bijection_grid():
    prev = None
    for i in range(1000):
        k = i / 999.0
        c = weber_to_threshold(k)
        assert abs(threshold_to_weber(c) - k) <= 1e-12
        if prev is not None:
            assert c < prev  # strictly decreasing
        prev = c


def test_sensitivity_constructors_agree():
    a = Sensitivity.from_weber(0.05)
    b = Sensitivity.from_threshold(a.threshold_c)
    assert abs(a.weber_k - b.weber_k) <= 1e-12
    with pytest.raises(ValueError):
        Sensitivity(weber_k=0.05, threshold_c=1.0)


# --- high-side detector -------------------------------------------------

def test_high_side_barnett():
    det = detect_high_side(builtin_dataset("barnett"), SENS)
    assert det.outlier_values == (949.0, 951.0)
    assert det.border.index == 5
    assert det.border.iir == pytest.approx(5.924, abs=1e-3)
    assert det.normal_high == 10.0


def test_high_side_grubbs1():
    det = detect_high_side(builtin_dataset("grubbs1"), SENS)
    assert det.outlier_values == (596.0,)
    assert det.border.iir == pytest.approx(9 * (12 - 6) / 28, rel=1e-12)


def test_high_side_uniform_spacing_finds_nothing():
    det = detect_high_side(Sample.from_iterable(range(1, 11)), SENS)
    assert det.outlier_values == ()
    assert det.border is None
    # after the first gap every score is <= 0
    assert all(rec.iir <= 0 for rec in det.trace)


def test_high_side_degenerate_and_small():
    det = detect_high_side(Sample.from_iterable([5, 5, 5, 5]), SENS)
    assert det.outlier_values == () and det.degenerate
    det = detect_high_side(Sample.from_iterable([1, 2]), SENS)
    assert det.outlier_values == () and not det.degenerate


# --- two-sided detector --------------------------------------------------

def test_two_sided_cushny():
    det = detect_two_sided(builtin_dataset("cushny"), SENS)
    assert det.outlier_values == (4.6,)
    assert det.border.iir == pytest.approx(9 * (2.2 - 0.8) / 4.6, rel=1e-12)
    assert det.border.side == "high"
    assert (det.normal_low, det.normal_high) == (0.0, 2.4)


def test_two_sided_grubbs3():
    det = detect_two_sided(builtin_dataset("grubbs3"), SENS)
    assert det.outlier_values == (2.02, 2.22)
    assert det.border.iir == pytest.approx(9 * (0.82 - 0.36) / 2.11, rel=1e-12)
    assert det.border.side == "low"


def test_two_sided_venus_trace():
    det = detect_two_sided(builtin_dataset("venus"), SENS)
    assert det.outlier_values == (-1.40,)
    v = det  # gap ending at +0.39 is sorted index 11; at +1.01 index 14
    by_index = {rec.index: rec for rec in v.trace}
    assert by_index[11].iir == pytest.approx(0.29, abs=0.005)
    assert by_index[11].accepted
    assert by_index[14].iir == pytest.approx(1.10, abs=0.005)
    assert by_index[14].accepted


def test_two_sided_venus_more_sensitive():
    det = detect_two_sided(builtin_dataset("venus"),
                           Sensitivity.from_weber(0.29))
    assert 1.01 in det.outlier_values
    assert -1.40 in det.outlier_values


def test_two_sided_degenerate():
    det = detect_two_sided(Sample.from_iterable([5, 5, 5, 5]), SENS)
    assert det.outlier_values == ()
    assert det.degenerate


def test_two_sided_rosner_and_barnett():
    assert detect_two_sided(builtin_dataset("rosner"), SENS).outlier_values == (40.0,)
    assert detect_two_sided(builtin_dataset("barnett"), SENS).outlier_values == (949.0, 951.0)


def test_determinism_bit_identical():
    s = builtin_dataset("venus")
    assert detect_two_sided(s, SENS) == detect_two_sided(s, SENS)
    assert detect_high_side(s, SENS) == detect_high_side(s, SENS)


# --- reference loops and the independent brute-force oracle ------------------

def test_two_sided_matches_oracle_on_small_samples():
    rng = random.Random(20260810)
    for trial in range(1000):
        n = rng.randint(3, 12)
        if trial % 3 == 0:
            values = [rng.randint(0, 8) for _ in range(n)]  # force ties
        else:
            values = [rng.uniform(-5, 5) for _ in range(n)]
        c = rng.choice([0.5, 1.1, 1.81, 1.96])
        det = detect_two_sided(Sample.from_iterable(values),
                               Sensitivity.from_threshold(c))
        assert set(det.outlier_indices) == two_sided_oracle(values, c), (
            values, c)


ORACLE_THRESHOLDS = (0.0, 0.5, 1.1, 1.81, 1.96, 2.0)


def test_detectors_equal_reference_loops_record_for_record():
    rng = random.Random(20261017)
    for trial in range(3000):
        n = rng.randint(1, 40)
        if trial % 3 == 0:
            values = [rng.randint(0, rng.choice([1, 3, 8])) for _ in range(n)]
        else:
            values = [rng.uniform(-5, 5) for _ in range(n)]
        sample = Sample.from_iterable(values)
        sens = Sensitivity.from_threshold(rng.choice(ORACLE_THRESHOLDS))
        assert detect_high_side(sample, sens) == high_side_loop(sample, sens), (
            values, sens)
        assert detect_two_sided(sample, sens) == two_sided_loop(sample, sens), (
            values, sens)


def test_two_sided_majority_guarantee():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(3, 40)
        values = [rng.uniform(-10, 10) for _ in range(n)]
        det = detect_two_sided(Sample.from_iterable(values),
                               Sensitivity.from_threshold(rng.uniform(0.05, 2)))
        assert det.n_outliers <= n - (n // 2 + 1)


def test_scores_near_the_largest_double_equal_scaled_copies():
    # 3 * (1.1e308 - 0.3e308) overflows, though the top score is 1.41 < c
    base = [0.0, 0.3e308, 0.6e308, 1.7e308]
    for detect in (detect_high_side, detect_two_sided):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [(k, detect(Sample.from_iterable(
                [math.ldexp(x, -k) for x in base]), SENS))
                for k in (0, 1, 1000)]
        assert runs[0][1].trace
        for k, det in runs:
            assert det.outlier_indices == runs[0][1].outlier_indices == ()
            assert [(r.index, r.side, math.ldexp(r.gap, k),
                     math.ldexp(r.max_prev, k), r.er, r.ihr, r.iir,
                     r.accepted) for r in det.trace] == [
                tuple(r) for r in runs[0][1].trace]


# --- affine equivariance --------------------------------------------------

# dyadic rationals keep the affine transform itself exact in binary floats
values_strategy = st.lists(
    st.integers(-128000, 128000).map(lambda k: k / 16.0),
    min_size=3, max_size=40)
scale_strategy = st.integers(1, 65536).map(lambda m: m / 64.0)
shift_strategy = st.integers(-1024000, 1024000).map(lambda j: j / 16.0)


@settings(max_examples=150)
@given(values=values_strategy, a=scale_strategy, b=shift_strategy)
def test_affine_equivariance_positive_scale(values, a, b):
    s1 = Sample.from_iterable(values)
    s2 = Sample.from_iterable([a * x + b for x in values])
    for detect in (detect_high_side, detect_two_sided):
        assert detect(s1, SENS).outlier_indices == detect(s2, SENS).outlier_indices


@settings(max_examples=150)
@given(values=values_strategy, a=scale_strategy)
def test_two_sided_mirror_under_negative_scale(values, a):
    s1 = Sample.from_iterable(values)
    s2 = Sample.from_iterable([-a * x for x in values])
    n = s1.n
    flipped = tuple(sorted(n - 1 - k for k in
                           detect_two_sided(s2, SENS).outlier_indices))
    assert detect_two_sided(s1, SENS).outlier_indices == flipped
