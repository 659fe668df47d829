"""Classical univariate outlier detectors used for comparison.

All four return the same :class:`~gapsense.expanding.Detection` shape as
the expanding detectors, with an empty trace.  :data:`METHODS` names
every detector, classical and expanding, for the CLI and simulations.
"""
from __future__ import annotations

import math
from statistics import NormalDist, fmean, median
from typing import Callable

import numpy as np

from .expanding import (DEFAULT_SENSITIVITY, Detection, Sensitivity,
                        _interval_detection, detect_high_side,
                        detect_two_sided)
from .samples import Sample

MAD_CONSISTENCY = 1.4826  # makes MADn estimate sigma under normality


def _sample_sd(values: np.ndarray, mean: float) -> float:
    """Sample standard deviation (n-1 divisor) of sorted ``values``.

    The deviations are scaled by a power of two near the largest one
    before squaring, so subnormal spreads do not underflow to zero and
    huge ones do not overflow; power-of-two scaling is exact, so on
    ordinary inputs the result is that of squaring unscaled deviations.
    The squares are summed left to right, as a Python loop would.
    """
    _, e = math.frexp(max(float(values[-1]) - mean, mean - float(values[0])))
    with np.errstate(over="ignore"):
        scaled = np.ldexp(values - mean, -e)
        var = sum((scaled * scaled).tolist()) / (len(values) - 1)
    return math.ldexp(math.sqrt(var), e)


def _mean_interval(values: np.ndarray, k: float) -> tuple[float, float]:
    """mean -+ k sample standard deviations; OverflowError past a double."""
    m = fmean(values.tolist())
    sd = _sample_sd(values, m)
    low, high = m - k * sd, m + k * sd
    if not (math.isfinite(low) and math.isfinite(high)):
        raise OverflowError(f"mean -+ {k:g} sd leaves the double range")
    return low, high


def mean_sigma_detect(sample: Sample, k: float = 3.0) -> Detection:
    """Flag values more than k sample standard deviations from the mean."""
    if sample.n < 2:
        raise ValueError("mean/sigma detection needs at least two values")
    if k <= 0:
        raise ValueError("k must be positive")
    return _interval_detection(sample, "mean", {"k": k},
                               *_mean_interval(sample.values, k))


def tukey_hinges(sample: Sample) -> tuple[float, float]:
    """Quartiles as medians of the two halves of the sorted data.

    Each half includes the middle value when n is odd (hinge convention).
    """
    v = sample.values.tolist()
    n = sample.n
    if n < 2:
        raise ValueError("hinges need at least two values")
    return median(v[: (n + 1) // 2]), median(v[n // 2:])


def boxplot_detect(sample: Sample, whisker: float = 1.5) -> Detection:
    """Flag values outside the hinge fences q1 - w*IQR, q3 + w*IQR.

    With a collapsed IQR the fences degenerate to [q1, q3] and values
    outside are still flagged.
    """
    if whisker <= 0:
        raise ValueError("whisker must be positive")
    q1, q3 = tukey_hinges(sample)
    iqr = q3 - q1
    return _interval_detection(sample, "boxplot", {"whisker": whisker},
                               q1 - whisker * iqr, q3 + whisker * iqr)


def mad_detect(sample: Sample, k: float = 3.0,
               b: float = MAD_CONSISTENCY) -> Detection:
    """Flag values more than k scaled median absolute deviations from the median.

    MADn = b * median(|x - median|).  When MADn is zero every value that
    differs from the median is flagged (degenerate rule; avoids division
    by zero and matches the spirit of an infinitely tight scale).
    """
    if sample.n < 2:
        raise ValueError("median/MAD detection needs at least two values")
    if k <= 0 or b <= 0:
        raise ValueError("k and b must be positive")
    v = sample.values
    med = median(v.tolist())
    with np.errstate(over="ignore"):
        madn = b * median(np.abs(v - med).tolist())
    params = {"k": k, "b": b}
    if madn == 0.0:
        return _interval_detection(sample, "mad", params, med, med)
    return _interval_detection(sample, "mad", params, med - k * madn, med + k * madn)


def normal_tail(z: float) -> float:
    """Two-sided standard-normal tail probability P(|Z| > z) for z >= 0."""
    if z < 0:
        raise ValueError(f"z must be nonnegative, got {z}")
    return math.erfc(z / math.sqrt(2.0))


def chauvenet_detect(sample: Sample) -> Detection:
    """Single-pass expected-count criterion: flag x when n * P(|Z| > z) < 0.5.

    z is the standardized distance |x - mean| / sd with the sample
    standard deviation (n-1 divisor).  No iterative refitting.
    """
    n = sample.n
    if n < 3:
        raise ValueError("the expected-count criterion needs at least three values")
    # n * P(|Z| > z) < 0.5  <=>  z > z* with Phi(z*) = 1 - 1/(4n)
    z_star = NormalDist().inv_cdf(1.0 - 0.25 / n)
    return _interval_detection(sample, "chauvenet", {},
                               *_mean_interval(sample.values, z_star))


#: Every detector by its command-line name.  Each entry takes the sample
#: and the shared parameters (sensitivity, k, whisker, b) and uses only
#: those its method has.
METHODS: dict[str, Callable[..., Detection]] = {
    "iir": lambda s, sens, k, whisker, b: detect_two_sided(s, sens),
    "iir-high": lambda s, sens, k, whisker, b: detect_high_side(s, sens),
    "mean": lambda s, sens, k, whisker, b: mean_sigma_detect(s, k),
    "boxplot": lambda s, sens, k, whisker, b: boxplot_detect(s, whisker),
    "mad": lambda s, sens, k, whisker, b: mad_detect(s, k, b),
    "chauvenet": lambda s, sens, k, whisker, b: chauvenet_detect(s),
}


def run_method(name: str, sample: Sample,
               sens: Sensitivity = DEFAULT_SENSITIVITY, k: float = 3.0,
               whisker: float = 1.5, b: float = MAD_CONSISTENCY) -> Detection:
    """Run the detector registered in :data:`METHODS` under ``name``."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose from "
                         f"{tuple(METHODS)}")
    return METHODS[name](sample, sens, k, whisker, b)
