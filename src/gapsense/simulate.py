"""Seeded Monte Carlo harness for detector breakdown experiments.

Samples are drawn from a two-component normal mixture: a target
distribution F plus an exact count of contaminants from G.  Replications
are independent substreams derived from (master_seed, rep), so results
are reproducible and order-independent regardless of how replications
are scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baselines import run_method
from .expanding import DEFAULT_SENSITIVITY, Sensitivity, _outside
from .samples import Sample

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

SIM_METHODS = ("iir", "boxplot", "mad")


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(master_seed: int, rep: int) -> int:
    """Derive the 64-bit seed of replication ``rep`` from the master seed."""
    return _splitmix64((_splitmix64(master_seed & _MASK64) + rep + 1) & _MASK64)


def polar_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normal variates via the polar (Marsaglia) method.

    Uniform pairs on the square are rejected outside the unit disk; each
    accepted pair yields two variates.  Deterministic for a given stream.
    """
    out = np.empty(count)
    filled = 0
    while filled < count:
        need = count - filled
        m = max(32, int(need * 0.75) + 16)
        u = 2.0 * rng.random(m) - 1.0
        v = 2.0 * rng.random(m) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        f = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
        z = np.concatenate([u[ok] * f, v[ok] * f])
        take = min(len(z), need)
        out[filled:filled + take] = z[:take]
        filled += take
    return out


@dataclass(frozen=True)
class SimScenario:
    """One mixture setting: n values, an exact contaminated fraction, seeds."""

    n: int
    contamination: float
    target: tuple[float, float] = (0.0, 1.0)
    contaminant: tuple[float, float] = (10.0, 1.0)
    reps: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 <= self.contamination < 0.5:
            raise ValueError("contamination must be in [0, 0.5)")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.target[1] <= 0 or self.contaminant[1] <= 0:
            raise ValueError("standard deviations must be positive")

    @property
    def n_contaminants(self) -> int:
        # round half up, matching the fixed-percentage design
        return int(math.floor(self.n * self.contamination + 0.5))


def contaminated_sample(scn: SimScenario, rep: int) -> np.ndarray:
    """Raw draws for one replication: target values first, contaminants last."""
    rng = np.random.Generator(np.random.PCG64(substream_seed(scn.master_seed, rep)))
    m = scn.n_contaminants
    z = polar_normals(rng, scn.n)
    values = np.empty(scn.n)
    mu_f, sd_f = scn.target
    mu_g, sd_g = scn.contaminant
    values[:scn.n - m] = mu_f + sd_f * z[:scn.n - m]
    values[scn.n - m:] = mu_g + sd_g * z[scn.n - m:]
    return values


@dataclass(frozen=True)
class CurvePoint:
    """Average detection results at one sweep position.

    ``x`` is the contamination percent (breakdown sweeps) or the sample
    size (pure-normal sweeps).  Percentages are in 0..100.  ``recall`` is
    the average percent of true contaminants flagged, None when the
    scenario has no contaminants.
    """

    x: float
    detected: dict[str, float]
    stderr: dict[str, float]
    recall: dict[str, float | None]


def _sweep_point(scn: SimScenario, x: float, methods: Sequence[str],
                 sens: Sensitivity) -> CurvePoint:
    for m in methods:
        if m not in SIM_METHODS:
            raise ValueError(f"unsupported simulation method {m!r}; "
                             f"choose from {SIM_METHODS}")
    n, reps = scn.n, scn.reps
    m_cont = scn.n_contaminants
    detected = {m: np.empty(reps) for m in methods}
    recall = {m: np.empty(reps) for m in methods}
    for rep in range(reps):
        values = contaminated_sample(scn, rep)
        sample = Sample.from_iterable(values, label=f"sim-rep{rep}")
        for m in methods:
            det = run_method(m, sample, sens)
            detected[m][rep] = 100.0 * det.n_outliers / n
            if m_cont:
                mask = _outside(values[n - m_cont:], det.normal_low,
                                det.normal_high)
                recall[m][rep] = 100.0 * mask.sum() / m_cont
    return CurvePoint(
        x=x,
        detected={m: float(detected[m].mean()) for m in methods},
        stderr={m: float(detected[m].std(ddof=1) / math.sqrt(reps))
                if reps > 1 else 0.0 for m in methods},
        recall={m: (float(recall[m].mean()) if m_cont else None)
                for m in methods})


def breakdown_curve(scenarios: Sequence[SimScenario],
                    methods: Sequence[str] = SIM_METHODS,
                    sens: Sensitivity = DEFAULT_SENSITIVITY
                    ) -> list[CurvePoint]:
    """Average detected percent per method across a contamination sweep.

    Each scenario becomes one curve point at x = 100 * contamination.
    Replication substreams depend only on (master_seed, rep), so the same
    underlying noise is reused across sweep positions (common random
    numbers) and reruns are bit-identical.
    """
    return [_sweep_point(scn, 100.0 * scn.contamination, methods, sens)
            for scn in scenarios]


def contamination_sweep(n: int = 500, fractions: Sequence[float] | None = None,
                        contaminant: tuple[float, float] = (10.0, 1.0),
                        target: tuple[float, float] = (0.0, 1.0),
                        reps: int = 1000, master_seed: int = 0
                        ) -> list[SimScenario]:
    """Scenario family for a 0..49% step-1% contamination sweep."""
    if fractions is None:
        fractions = [i / 100.0 for i in range(50)]
    return [SimScenario(n=n, contamination=f, target=target,
                        contaminant=contaminant, reps=reps,
                        master_seed=master_seed) for f in fractions]


def pure_normal_curve(sizes: Sequence[int],
                      methods: Sequence[str] = SIM_METHODS,
                      reps: int = 1000, master_seed: int = 0,
                      sens: Sensitivity = DEFAULT_SENSITIVITY
                      ) -> list[CurvePoint]:
    """False-alarm rates on uncontaminated standard-normal samples."""
    points = []
    for size in sizes:
        if size < 3:
            raise ValueError("sizes must be at least 3")
        scn = SimScenario(n=size, contamination=0.0, target=(0.0, 1.0),
                          contaminant=(0.0, 1.0), reps=reps,
                          master_seed=master_seed)
        points.append(_sweep_point(scn, float(size), methods, sens))
    return points
