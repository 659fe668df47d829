"""The row kernels behind the detectors, the simulation and the partner
scan.

``expanding._two_sided``, ``baselines._fences`` and
``baselines._mad_interval`` read a normal interval off every ascending row
of a block at once, and ``expanding._high_side`` the index of each row's
border value; a detector calls them on its one sample.  Each row of a
block must give exactly what the one-row call and the independent oracles
give on that row alone, with no tolerance, down to the sign of a zero.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from gapsense import Sample, Sensitivity, detect_two_sided
from gapsense.baselines import MAD_CONSISTENCY, _fences, _mad_interval
from gapsense.expanding import _high_side, _outside, _two_sided
from scan_oracles import (fences_oracle, high_side_loop, mad_interval_oracle,
                          two_sided_loop, two_sided_oracle)

THRESHOLDS = (0.0, 0.5, 1.1, 1.81, 1.96, 2.0)


def same(a, b):
    """Equal as doubles, and zeros of the same sign."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def row_strategy(n):
    """One row of n values of a kind the block mixes."""
    flat = st.sampled_from([-0.0, 0.0, 2.0]).map(lambda x: [x] * n)
    zeros = st.lists(st.sampled_from([-0.0, 0.0]), min_size=n, max_size=n)
    ties = st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 3.0]),
                    min_size=n, max_size=n)
    ints = st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)
    # equal gaps: the score never rises above 0, so c > 0 finds no border
    even = st.tuples(st.integers(-50, 50), st.integers(1, 8)).map(
        lambda ab: [float(ab[0] + ab[1] * i) for i in range(n)])
    wide = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n,
                    max_size=n)
    return st.one_of(flat, zeros, ties, ints, even, wide)


blocks = st.sampled_from([2, 3, 4, 5, 6, 9, 16]).flatmap(
    lambda n: st.lists(row_strategy(n), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(block=blocks, c=st.sampled_from(THRESHOLDS))
def test_row_kernels_equal_one_row_calls_and_oracles(block, c):
    v = np.sort(np.array(block), axis=-1, kind="stable")
    sens = Sensitivity.from_threshold(c)
    n = v.shape[1]
    low, high, _ = _two_sided(v, c)
    cut, _ = _high_side(v, c, n // 2 - 1)
    box = _fences(v, 1.5)
    mad = _mad_interval(v, 3.0, MAD_CONSISTENCY)
    for i, row in enumerate(v):
        values = row.tolist()
        sample = Sample.from_iterable(values)
        border = high_side_loop(sample, sens).border
        assert cut[i] == (n if border is None else border.index)
        assert _high_side(row[None], c, n // 2 - 1)[0][0] == cut[i]
        loop = two_sided_loop(sample, sens)
        det = detect_two_sided(sample, sens)
        for one in (loop, det):
            assert same(low[i], one.normal_low)
            assert same(high[i], one.normal_high)
        assert set(np.flatnonzero(_outside(row, low[i], high[i])).tolist()) \
            == two_sided_oracle(values, c)
        one_low, one_high, _ = _two_sided(row[None], c)
        assert same(one_low[0], low[i]) and same(one_high[0], high[i])
        for (lo, hi), one, oracle in (
                (box, _fences(row, 1.5), fences_oracle(values, 1.5)),
                (mad, _mad_interval(row, 3.0, MAD_CONSISTENCY),
                 mad_interval_oracle(values, 3.0, MAD_CONSISTENCY))):
            assert same(lo[i], one[0]) and same(hi[i], one[1])
            assert same(lo[i], oracle[0]) and same(hi[i], oracle[1])


def test_mad_of_zero_keeps_a_negative_zero_median():
    v = np.array([[-0.0, -0.0, -0.0], [-0.0, -0.0, 0.0], [1.0, 1.0, 1.0]])
    low, high = _mad_interval(v, 3.0, MAD_CONSISTENCY)
    assert [math.copysign(1.0, x) for x in (*low[:2], *high[:2])] == [-1.0] * 4
    assert low[2] == high[2] == 1.0


def test_two_sided_block_of_flat_short_and_borderless_rows():
    v = np.array([[5.0, 5.0, 5.0, 5.0],           # zero span
                  [0.0, 1.0, 2.0, 3.0],           # equal gaps: no border
                  [0.0, 0.1, 0.2, 50.0]])         # border at the last gap
    low, high, scan = _two_sided(v, 1.81)
    assert low.tolist() == [5.0, 0.0, 0.0]
    assert high.tolist() == [5.0, 3.0, 0.2]
    border, gaps = scan[-1], scan[2]
    assert border[1] == gaps.shape[1] and border[2] < gaps.shape[1]
    low, high, scan = _two_sided(np.array([[-2.0, 1.0], [3.0, 3.0]]), 1.81)
    assert scan is None
    assert low.tolist() == [-2.0, 3.0] and high.tolist() == [1.0, 3.0]
