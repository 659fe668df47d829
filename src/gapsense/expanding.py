"""Gap-expansion outlier detection with Weber-law sensitivity.

The score of a candidate gap is its inconsistency rate: with n sorted
values, span R, candidate gap g, and m the largest gap already accepted
as normal,

    score = (n - 1) * (g - m) / R

This closed form equals the ratio of the gap's expansion rate
((n-1) * g / R, gap size relative to the average gap) to its inhibition
rate (g / (g - m), which discounts gaps no bigger than what the normal
set already contains), but stays defined when g == m, where the ratio
form divides by zero.  Both factors are recorded in traces for
explainability; only the closed form is ever used for decisions.

Two detectors share the score, each through a row kernel that scans
every ascending row of a block at once:

* :func:`detect_high_side` grows the normal set upward from the minimum
  and flags a high-value tail.  Its kernel :func:`_high_side` also runs
  the partner-set scan of :mod:`gapsense.oscillator`.
* :func:`detect_two_sided` grows the normal set outward from the median
  and flags both tails.  Its kernel :func:`_two_sided` also runs the
  simulation of :mod:`gapsense.simulate`.

Both kernels hand their gaps, each with the running maximum it is scored
against, to one scan, :func:`_first_border`, which holds the stop rule and
the zero-span rule.  Each kernel finds that maximum its own way: the
high side accumulates it, the two-sided scan reads it off its merge keys.

Sensitivity is a single knob: either the score threshold c in [0, 2]
directly, or a Weber fraction K in [0, 1] (the just-noticeable
difference ratio), linked bijectively by c = 2(1-K)/(1+K).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .samples import Sample

#: Threshold used throughout the package unless the caller overrides it;
#: corresponds to a Weber fraction of 0.05.
DEFAULT_THRESHOLD = 1.81

Side = Literal["low", "high"]


def weber_to_threshold(weber_k: float) -> float:
    """Map a Weber fraction K in [0, 1] to the score threshold c = 2(1-K)/(1+K)."""
    if not 0.0 <= weber_k <= 1.0:
        raise ValueError(f"Weber fraction must be in [0, 1], got {weber_k}")
    return 2.0 * (1.0 - weber_k) / (1.0 + weber_k)


def threshold_to_weber(threshold_c: float) -> float:
    """Inverse of :func:`weber_to_threshold`: K = (2-c)/(2+c) for c in [0, 2]."""
    if not 0.0 <= threshold_c <= 2.0:
        raise ValueError(f"threshold must be in [0, 2], got {threshold_c}")
    return (2.0 - threshold_c) / (2.0 + threshold_c)


@dataclass(frozen=True)
class Sensitivity:
    """A Weber fraction and its equivalent score threshold, kept in sync.

    Build with :meth:`from_weber` or :meth:`from_threshold`.
    """

    weber_k: float
    threshold_c: float

    def __post_init__(self):
        expect = weber_to_threshold(self.weber_k)
        if abs(expect - self.threshold_c) > 1e-12:
            raise ValueError(
                f"inconsistent sensitivity: K={self.weber_k} implies "
                f"c={expect}, got c={self.threshold_c}")

    @classmethod
    def from_weber(cls, weber_k: float) -> "Sensitivity":
        return cls(weber_k=weber_k, threshold_c=weber_to_threshold(weber_k))

    @classmethod
    def from_threshold(cls, threshold_c: float) -> "Sensitivity":
        return cls(weber_k=threshold_to_weber(threshold_c),
                   threshold_c=threshold_c)


DEFAULT_SENSITIVITY = Sensitivity.from_threshold(DEFAULT_THRESHOLD)


def iir_closed_form(gap: float | np.ndarray, max_prev: float | np.ndarray,
                    n: int, span: float) -> float | np.ndarray:
    """Inconsistency score of a gap: (n-1) * (gap - max_prev) / span.

    ``n`` is the number of data points (so n-1 is the gap count), ``span``
    their full range.  Negative when the gap is smaller than the largest
    previously accepted one, zero when equal.  ``gap`` and ``max_prev``
    may be numpy arrays, scored elementwise, and ``span`` an array that
    broadcasts against them (one span per row, each row scored as it would
    be alone).  A span that overflowed to infinity raises
    :class:`OverflowError`.
    """
    low, high = ((span.min(), span.max()) if isinstance(span, np.ndarray)
                 else (span, span))
    if not math.isfinite(high):
        raise OverflowError(f"span must be finite, got {high}")
    if low <= 0.0:
        raise ValueError(f"span must be positive, got {low}")
    if n < 2:
        raise ValueError(f"need at least two points, got n={n}")
    # scaled by 2**-e, with span < 2**e and e >= 0 for each span on its own,
    # (n-1) times a difference cannot overflow nor a small span underflow;
    # the scaling is exact, so ordinary scores keep every bit
    e = -np.maximum(np.frexp(span)[1], 0)
    iir = np.ldexp(n - 1.0, e) * (gap - max_prev) / np.ldexp(span, e)
    return iir if isinstance(iir, np.ndarray) else float(iir)


def _gaps(v: np.ndarray) -> tuple:
    """Consecutive differences and span of each ascending row of the 2-D
    ``v``.  One that overflows stays infinite, without a warning, and
    :func:`iir_closed_form` rejects the infinite span."""
    with np.errstate(over="ignore", invalid="ignore"):
        return v[:, 1:] - v[:, :-1], v[:, -1] - v[:, 0]


#: Values per block of rows handed to the row kernels at once (one row
#: when a row alone is longer); the simulation and the partner scan share it.
_BLOCK = 1 << 14


def _first_border(gap: np.ndarray, max_prev: np.ndarray, n: int, span,
                  c: float, first: int = 0) -> tuple:
    """The expanding scan: score each gap against the largest one before it.

    Rows run along the last axis of ``gap``, and ``max_prev`` holds the
    running maximum each gap is scored against (the caller's kernel knows
    its gap order, and so the cheapest way to that maximum).  ``span``
    holds each row's span in a trailing axis of length one.  The border is
    the first t >= ``first`` whose score reaches c, or the gap count when
    there is none; a row of zero span has none (it is scored on a unit
    span).  The gaps after the border are never accepted, but all are
    scored.  Returns the border with every gap's score.
    """
    keep = span != 0.0
    iir = iir_closed_form(gap, max_prev, n, np.where(keep, span, 1.0))
    # a hit appended past the last gap: no border reads as the gap count
    hits = np.empty(iir.shape[:-1] + (iir.shape[-1] - first + 1,), bool)
    hits[..., -1] = True
    np.greater_equal(iir[..., first:], c, out=hits[..., :-1])
    return np.where(keep[..., 0], first + hits.argmax(axis=-1),
                    iir.shape[-1]), iir


class IirRecord(NamedTuple):
    """One evaluated candidate gap.

    ``index`` is the gap's position i in sorted order (gap i separates
    values i-1 and i, 0-based values).  ``ihr`` is None when the gap
    equals ``max_prev`` (the ratio form is undefined there).
    ``_asdict()`` is the record's JSON form.
    """

    index: int
    side: Side
    gap: float
    max_prev: float
    er: float
    ihr: float | None
    iir: float
    accepted: bool


@dataclass(frozen=True)
class Detection:
    """Outcome of one detector run on one sample.

    The flagged set is always the sample minus the values inside
    ``[normal_low, normal_high]`` (all of it when that is None).  ``trace``
    holds every evaluated :class:`IirRecord` (empty for baseline
    detectors) and ``border`` the record that triggered the stop, if any.
    """

    method: str
    params: dict
    outlier_values: tuple[float, ...]
    outlier_indices: tuple[int, ...]
    normal_low: float | None
    normal_high: float | None
    trace: tuple[IirRecord, ...] = ()
    border: IirRecord | None = None
    degenerate: bool = False

    @property
    def n_outliers(self) -> int:
        return len(self.outlier_values)


def _outside(values: np.ndarray, low: float | None,
             high: float | None) -> np.ndarray:
    """Mask of the values outside [low, high]; all of them when it is None."""
    if low is None:
        return np.ones(len(values), dtype=bool)
    return (values < low) | (values > high)


def _interval_detection(sample: Sample, method: str, params: dict,
                        low: float | None, high: float | None,
                        trace: tuple[IirRecord, ...] = (),
                        degenerate: bool = False) -> Detection:
    """The detection flagging every value outside [low, high] (every value
    when the interval is None); every detector builds its result here.
    A scan's trace ends at its border, the one record not accepted."""
    idx = np.flatnonzero(_outside(sample.values, low, high))
    border = trace[-1] if trace and not trace[-1].accepted else None
    return Detection(method=method, params=params,
                     outlier_values=tuple(sample.values[idx].tolist()),
                     outlier_indices=tuple(idx.tolist()),
                     normal_low=None if low is None else float(low),
                     normal_high=None if high is None else float(high),
                     trace=trace, border=border, degenerate=degenerate)


def _trace(index: np.ndarray, sides: list[Side], gap: np.ndarray,
           max_prev: np.ndarray, iir: np.ndarray, span: float, border: int,
           n: int) -> tuple[IirRecord, ...]:
    """Records of the scanned gaps, up to and including the border."""
    stop = min(border + 1, len(gap))
    gap, max_prev = gap[:stop], max_prev[:stop]
    with np.errstate(divide="ignore", invalid="ignore"):
        ihr = (gap / (gap - max_prev)).astype(object)
    ihr[gap == max_prev] = None
    accepted = [True] * stop
    if border < len(gap):
        accepted[-1] = False
    return tuple(map(IirRecord._make, zip(
        index[:stop].tolist(), sides[:stop], gap.tolist(), max_prev.tolist(),
        iir_closed_form(gap, 0.0, n, span).tolist(), ihr.tolist(),
        iir[:stop].tolist(), accepted)))


def _high_side(v: np.ndarray, c: float, first: int) -> tuple:
    """``(cut, scan)``: the scan from the minimum on each ascending row of
    the 2-D ``v`` (n >= 2 values each).  Gap 1 seeds the maximum, gaps
    i = 2..n-1 are scored, and a border may fall at i >= ``first`` + 2.
    ``cut`` is the index of the border value per row, n when there is
    none; ``scan`` holds per row the arguments ``gap`` to ``border`` of
    :func:`_trace`."""
    d, span = _gaps(v)
    max_prev = np.maximum.accumulate(d[:, :-1], axis=1)
    border, iir = _first_border(d[:, 1:], max_prev, v.shape[1], span[:, None],
                                c, first)
    return border + 2, (d[:, 1:], max_prev, iir, span, border)


def detect_high_side(sample: Sample,
                     sens: Sensitivity = DEFAULT_SENSITIVITY) -> Detection:
    """Expanding scan from the minimum; flags a high-value tail.

    Walks gaps i = 2..n-1 in sorted order keeping the largest gap seen so
    far.  The border is the first gap with score >= c that also lies in
    the upper half (i > n/2, so fewer than half the values are flagged);
    every value >= the border value is an outlier.  No border means no
    outliers.  Samples with n < 3 or zero span yield an empty detection
    (the degenerate flag set in the zero-span case).
    """
    method, params = "iir-high", {"c": sens.threshold_c}
    v, n = sample.values, sample.n
    if n < 3:
        return _interval_detection(sample, method, params, v[0], v[-1])
    cut, scan = _high_side(v[None], sens.threshold_c, n // 2 - 1)
    degenerate = sample.min == sample.max
    trace = () if degenerate else _trace(
        np.arange(2, n), ["high"] * (n - 2), *(a[0] for a in scan), n)
    # flag from the border value up, nothing without a border
    cut = n if cut[0] == n else int(np.searchsorted(v, v[cut[0]]))
    low, high = (v[0], v[cut - 1]) if cut else (None, None)
    return _interval_detection(sample, method, params, low, high, trace,
                               degenerate)


def _two_sided(v: np.ndarray, c: float) -> tuple:
    """``(low, high, scan)``: the normal interval of the median-expanding
    scan on each ascending row of the 2-D ``v`` (one sample is the one-row
    case), and per row, for the gaps phase 2 scored, their places in
    ``order`` and the arguments ``gap`` to ``border`` of :func:`_trace`
    (scan None when n < 3).  ``order`` numbers the right run of gaps hi+1,
    hi+2, ... from 0 and then the left run lo, lo-1, ..., with lo, hi =
    (n-1)//2, n//2.  Rows of zero span keep their whole range."""
    n = v.shape[1]
    if n < 3:
        return v[:, 0], v[:, -1], None

    # Outward gap runs from the median position(s): gap index hi+1, hi+2,
    # ... to the right and lo, lo-1, ... to the left (gap i is d[i-1]).
    d, span = _gaps(v)
    lo, hi = (n - 1) // 2, n // 2
    right, left = d[:, hi:], d[:, lo - 1::-1]
    # "Absorb the smaller frontier gap, ties go right" takes the gaps in
    # the order of a stable merge of the two runs keyed by running maximum.
    keys = np.concatenate((np.maximum.accumulate(right, axis=1),
                           np.maximum.accumulate(left, axis=1)), axis=1)
    order = np.argsort(keys, axis=1, kind="stable")
    at = order + np.arange(0, keys.size, keys.shape[1])[:, None]
    gaps = np.concatenate((right, left), axis=1).take(at)
    # Phase 1 absorbs up to majority size; its gaps (and the middle gap
    # when n is even) seed the inhibition level of phase 2.
    grown = n // 2 + 1 - (hi - lo + 1)
    seed = np.concatenate((d[:, lo:hi], gaps[:, :grown]),
                          axis=1).max(axis=1)[:, None]
    # The merge keeps each run's order, so the running maximum of the
    # merged gaps is the merged keys, and max_prev is the larger of the
    # seed and the key before each gap.  np.maximum keeps the later of two
    # equal values, as its accumulate does, so a zero keeps its sign: when
    # every gap so far is a zero, its key is the gap itself.
    max_prev = np.maximum(seed, keys.take(at[:, grown - 1:-1]))
    max_prev[:, 0] = seed[:, 0]
    border, iir = _first_border(gaps[:, grown:], max_prev, n, span[:, None],
                                c)
    # the accepted run holds the gaps before the border, or all of them; a
    # run's gaps merge in run order, so its last one taken counts the run
    row = np.arange(len(v))
    taken = grown + border
    last = order[row, taken - 1]
    n_right = np.where(last < right.shape[1], last + 1,
                       taken + right.shape[1] - 1 - last)
    return (v[row, lo - (taken - n_right)], v[row, hi + n_right],
            (order[:, grown:], gaps[:, grown:], max_prev, iir, span, border))


def detect_two_sided(sample: Sample,
                     sens: Sensitivity = DEFAULT_SENSITIVITY) -> Detection:
    """Expanding scan outward from the median; flags both tails.

    Phase 1 grows the accepted set from the median position(s) to
    majority size (n//2 + 1 members) by always absorbing the side whose
    frontier gap is smaller (ties go right).  The largest gap interior to
    the accepted set then seeds the inhibition level.  Phase 2 keeps
    absorbing the smaller frontier gap while its score stays below c;
    the first score >= c stops the scan and everything outside the
    accepted interval is flagged.  Reaching both ends means no outliers.
    """
    method, params = "iir", {"c": sens.threshold_c}
    low, high, scan = _two_sided(sample.values[None], sens.threshold_c)
    degenerate = sample.n >= 3 and sample.min == sample.max
    trace = ()
    if scan is not None and not degenerate:
        order, gap, max_prev, iir, span, border = (a[0] for a in scan)
        n = sample.n
        lo, hi = (n - 1) // 2, n // 2
        right = order < n - 1 - hi  # the right run holds n-1-hi gaps
        index = np.where(right, hi + 1 + order, lo + n - 1 - hi - order)
        trace = _trace(index, np.where(right, "high", "low").tolist(), gap,
                       max_prev, iir, span, border, n)
    return _interval_detection(sample, method, params, low[0], high[0], trace,
                               degenerate=degenerate)
