"""Validated univariate samples and their gap structure.

Everything downstream (detectors, simulations, reports) works on sorted
data, so sorting and finiteness checks happen once, at construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


@dataclass(frozen=True, eq=False)
class Sample:
    """An ascending-sorted series of finite real values with a provenance label.

    ``values`` is a read-only float64 array owned by the sample.  Use
    :meth:`from_iterable` for unsorted input; direct construction copies
    values that must already be sorted and re-validates them.
    """

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("a sample needs at least one value")
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite value at position "
                             f"{np.isfinite(v).argmin()}")
        if (v[1:] < v[:-1]).any():
            raise ValueError(f"values not ascending at position "
                             f"{(v[1:] < v[:-1]).argmax() + 1}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_iterable(cls, values: Iterable[float], label: str = "") -> "Sample":
        # a stable sort keeps -0.0 and 0.0 in input order, as sorted() does
        return cls(np.sort(np.fromiter(values, float), kind="stable"), label)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class GapSeries:
    """Consecutive gaps of a sorted sample.

    ``gaps[k]`` is ``values[k+1] - values[k]`` (so gap index i in 1..n-1
    corresponds to ``gaps[i-1]``).  ``span`` is max minus min.  When the
    span is zero the series is degenerate: no gap can be inconsistent,
    and ``normalized`` is None.
    """

    gaps: tuple[float, ...]
    span: float
    normalized: tuple[float, ...] | None = field(default=None)

    @property
    def degenerate(self) -> bool:
        return self.span == 0.0


def gap_series(sample: Sample) -> GapSeries:
    """Compute raw gaps, span, and span-normalized gaps of a sample.

    Requires n >= 2.  For constant data the result carries the degenerate
    flag (normalized gaps undefined); callers must treat such samples as
    outlier-free.
    """
    if sample.n < 2:
        raise ValueError("gap series needs at least two values")
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(sample.values)
        span = sample.max - sample.min
        normalized = tuple((gaps / span).tolist()) if span else None
    return GapSeries(gaps=tuple(gaps.tolist()), span=span,
                     normalized=normalized)
