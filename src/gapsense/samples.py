"""Validated univariate samples and their gap structure.

Everything downstream (detectors, simulations, reports) works on sorted
data, so sorting and finiteness checks happen once, at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class Sample:
    """An ascending-sorted series of finite real values with a provenance label.

    Use :meth:`from_iterable` for unsorted input; direct construction
    expects already-sorted values and re-validates them.
    """

    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("a sample needs at least one value")
        prev = None
        for pos, v in enumerate(self.values):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} at position {pos}")
            if prev is not None and v < prev:
                raise ValueError(f"values not ascending at position {pos}")
            prev = v

    @classmethod
    def from_iterable(cls, values: Iterable[float], label: str = "") -> "Sample":
        return cls(tuple(sorted(float(v) for v in values)), label)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]


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
    v = sample.values
    if len(v) < 2:
        raise ValueError("gap series needs at least two values")
    gaps = tuple(v[k + 1] - v[k] for k in range(len(v) - 1))
    span = v[-1] - v[0]
    if span == 0.0:
        return GapSeries(gaps=gaps, span=0.0, normalized=None)
    return GapSeries(gaps=gaps, span=span,
                     normalized=tuple(g / span for g in gaps))
