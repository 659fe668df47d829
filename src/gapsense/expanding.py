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

Two detectors share the score:

* :func:`detect_high_side` grows the normal set upward from the minimum
  and flags a high-value tail.
* :func:`detect_two_sided` grows the normal set outward from the median
  and flags both tails.

Both, and the partner-set scan in :mod:`gapsense.oscillator`, order
their gaps and hand them to one scan, :func:`_first_border`, which holds
the running maximum and the stop rule.

Sensitivity is a single knob: either the score threshold c in [0, 2]
directly, or a Weber fraction K in [0, 1] (the just-noticeable
difference ratio), linked bijectively by c = 2(1-K)/(1+K).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

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
    may be numpy arrays, scored elementwise.  A span that overflowed to
    infinity raises :class:`OverflowError`.
    """
    if not math.isfinite(span):
        raise OverflowError(f"span must be finite, got {span}")
    if span <= 0.0:
        raise ValueError(f"span must be positive, got {span}")
    if n < 2:
        raise ValueError(f"need at least two points, got n={n}")
    return (n - 1) * (gap - max_prev) / span


def _gaps(values) -> np.ndarray:
    """Consecutive differences of an ascending series.

    A difference that overflows stays infinite, without a warning: the
    span is then infinite too and :func:`iir_closed_form` rejects it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.diff(values)


def _first_border(gaps: np.ndarray, start_max: float, n: int, span: float,
                  c: float, first: int = 0) -> tuple[int | None, np.ndarray,
                                                      np.ndarray]:
    """The expanding scan: score each gap against the largest one before it.

    Gap t is scored against ``max(start_max, gaps[:t])``.  The border is
    the first t >= ``first`` whose score reaches c (None when there is
    none); the gaps after it are never accepted, but all are scored.
    Returns the border with every gap's ``max_prev`` and score.
    """
    max_prev = np.maximum.accumulate(np.concatenate(([start_max], gaps)))[:-1]
    iir = iir_closed_form(gaps, max_prev, n, span)
    hits = np.flatnonzero(iir[first:] >= c)
    return (first + int(hits[0]) if hits.size else None), max_prev, iir


@dataclass(frozen=True)
class IirRecord:
    """One evaluated candidate gap.

    ``index`` is the gap's position i in sorted order (gap i separates
    values i-1 and i, 0-based values).  ``ihr`` is None when the gap
    equals ``max_prev`` (the ratio form is undefined there).
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
                        border: IirRecord | None = None,
                        degenerate: bool = False) -> Detection:
    """The detection flagging every value outside [low, high] (every value
    when the interval is None); every detector builds its result here."""
    idx = np.flatnonzero(_outside(sample.values, low, high))
    return Detection(method=method, params=params,
                     outlier_values=tuple(sample.values[idx].tolist()),
                     outlier_indices=tuple(idx.tolist()),
                     normal_low=None if low is None else float(low),
                     normal_high=None if high is None else float(high),
                     trace=trace, border=border, degenerate=degenerate)


def _trace(index: np.ndarray, sides: list[Side], gap: np.ndarray,
           max_prev: np.ndarray, iir: np.ndarray, n: int, span: float,
           border: int | None) -> tuple[IirRecord, ...]:
    """Records of the scanned gaps, up to and including the border."""
    stop = len(gap) if border is None else border + 1
    gap, max_prev = gap[:stop], max_prev[:stop]
    with np.errstate(divide="ignore", invalid="ignore"):
        ihr = gap / (gap - max_prev)
    accepted = [True] * stop
    if border is not None:
        accepted[-1] = False
    return tuple(
        IirRecord(index=i, side=sd, gap=g, max_prev=m, er=e,
                  ihr=h if g != m else None, iir=r, accepted=a)
        for i, sd, g, m, e, h, r, a in zip(
            index[:stop].tolist(), sides[:stop], gap.tolist(), max_prev.tolist(),
            ((n - 1) * gap / span).tolist(), ihr.tolist(),
            iir[:stop].tolist(), accepted))


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
    if n < 3 or sample.min == sample.max:
        return _interval_detection(sample, method, params, sample.min,
                                   sample.max, degenerate=n >= 3)
    span = sample.max - sample.min

    # gap i (2..n-1) is d[i-1]; the first gap seeds the maximum and i > n/2
    d = _gaps(v)
    border, max_prev, iir = _first_border(d[1:], d[0], n, span,
                                          sens.threshold_c, first=n // 2 - 1)
    trace = _trace(np.arange(2, n), ["high"] * (n - 2), d[1:], max_prev, iir,
                   n, span, border)
    # flag from the border value up, nothing without a border
    cut = n if border is None else int(np.searchsorted(v, v[border + 2]))
    return _interval_detection(sample, method, params,
                               v[0] if cut else None,
                               v[cut - 1] if cut else None, trace,
                               None if border is None else trace[-1])


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
    v, n = sample.values, sample.n
    if n < 3 or sample.min == sample.max:
        return _interval_detection(sample, method, params, sample.min,
                                   sample.max, degenerate=n >= 3)
    span = sample.max - sample.min

    # Outward gap runs from the median position(s): gap index hi+1, hi+2,
    # ... to the right and lo, lo-1, ... to the left (gap i is d[i-1]).
    d = _gaps(v)
    lo, hi = (n - 1) // 2, n // 2
    right, left = d[hi:], d[:lo][::-1]
    # "Absorb the smaller frontier gap, ties go right" takes the gaps in
    # the order of a stable merge of the two runs keyed by running maximum.
    order = np.argsort(np.concatenate((np.maximum.accumulate(right),
                                       np.maximum.accumulate(left))),
                       kind="stable")
    is_right = order < len(right)
    index = np.where(is_right, hi + 1 + order, lo + len(right) - order)
    gaps = np.concatenate((right, left))[order]
    # Phase 1 absorbs up to majority size; its gaps (and the middle gap
    # when n is even) seed the inhibition level of phase 2.
    grown = n // 2 + 1 - (hi - lo + 1)
    start_max = float(np.concatenate((d[lo:hi], gaps[:grown])).max())
    border, max_prev, iir = _first_border(gaps[grown:], start_max, n, span,
                                          sens.threshold_c)
    trace = _trace(index[grown:],
                   np.where(is_right[grown:], "high", "low").tolist(),
                   gaps[grown:], max_prev, iir, n, span, border)
    # the accepted run holds the gaps before the border, or all of them
    taken = grown + (len(iir) if border is None else border)
    n_right = int(is_right[:taken].sum())
    return _interval_detection(sample, method, params,
                               v[lo - (taken - n_right)], v[hi + n_right],
                               trace, None if border is None else trace[-1])
