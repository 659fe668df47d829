import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gapsense import GapSeries, Sample, gap_series


def test_sample_sorts_and_labels():
    s = Sample.from_iterable([3, 1, 2], label="demo")
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    assert s.label == "demo"
    assert s.n == 3
    assert s.min == 1.0 and s.max == 3.0


def test_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        Sample.from_iterable([1.0, float("nan")])
    with pytest.raises(ValueError):
        Sample.from_iterable([1.0, float("inf")])


def test_sample_rejects_empty_and_unsorted():
    with pytest.raises(ValueError):
        Sample.from_iterable([])
    with pytest.raises(ValueError):
        Sample(values=(2.0, 1.0))


def test_sample_orders_signed_zeros_like_sorted():
    # 17+ values: a short-array insertion sort would hide an unstable sort
    values = [0.0, -0.0, 1.0, -0.0, 0.0, 0.0, -1.0, -0.0, 0.0, -0.0,
              -0.0, 0.0, 2.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -2.0]
    got = Sample.from_iterable(values).values.tolist()
    assert got == sorted(values)
    assert [math.copysign(1.0, x) for x in got] == \
        [math.copysign(1.0, x) for x in sorted(values)]


def test_sample_values_are_a_read_only_copy():
    src = np.array([1.0, 2.0, 3.0])
    s = Sample(src)
    src[0] = -5.0
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    assert s.values.dtype == np.float64
    assert not s.values.flags.writeable
    with pytest.raises(ValueError):
        s.values[0] = 0.0
    assert Sample.from_iterable([2, 1]).values.flags.writeable is False


def test_gap_series_barnett():
    s = Sample.from_iterable([3, 4, 7, 8, 10, 949, 951])
    gs = gap_series(s)
    assert gs.gaps == (1, 3, 1, 2, 939, 2)
    assert gs.span == 948
    assert not gs.degenerate
    assert abs(sum(gs.normalized) - 1.0) <= 1e-12


def test_gap_series_two_points():
    gs = gap_series(Sample.from_iterable([5, 9]))
    assert gs.gaps == (4.0,)
    assert gs.span == 4.0
    assert gs.normalized == (1.0,)


def test_gap_series_constant_is_degenerate():
    gs = gap_series(Sample.from_iterable([7, 7, 7]))
    assert gs.degenerate
    assert gs.normalized is None
    assert gs.gaps == (0.0, 0.0)


def test_gap_series_needs_two_values():
    with pytest.raises(ValueError):
        gap_series(Sample.from_iterable([1.0]))


finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=2, max_size=200))
def test_gap_sum_normalization(values):
    s = Sample.from_iterable(values)
    gs = gap_series(s)
    assert len(gs.gaps) == s.n - 1
    assert all(g >= 0 for g in gs.gaps)
    if gs.degenerate:
        assert gs.normalized is None
    else:
        assert abs(sum(gs.normalized) - 1.0) <= 1e-12
