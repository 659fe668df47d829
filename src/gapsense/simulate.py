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
from itertools import groupby
from typing import Sequence

import numpy as np

from .baselines import MAD_CONSISTENCY, _fences, _mad_interval
from .expanding import (_BLOCK, DEFAULT_SENSITIVITY, Sensitivity, _outside,
                        _two_sided)

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
        # in place, as few temporaries as the arithmetic allows; one draw
        # of 2m uniforms gives u then v, as two draws of m would
        uv = rng.random((2, m))
        uv *= 2.0
        uv -= 1.0
        u, v = uv
        s = u * u
        s += v * v
        ok = (s > 0.0) & (s < 1.0)
        s = s[ok]
        f = np.log(s)
        f *= -2.0
        f /= s
        np.sqrt(f, out=f)
        # the variates u*f, then v*f, up to the count
        take = min(2 * len(f), need)
        half = min(len(f), take)
        np.multiply(u[ok][:half], f[:half], out=out[filled:filled + half])
        np.multiply(v[ok][:take - half], f[:take - half],
                    out=out[filled + half:filled + take])
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
        for name, (mu, sd) in (("target", self.target),
                               ("contaminant", self.contaminant)):
            if not (math.isfinite(mu) and math.isfinite(sd) and sd > 0):
                raise ValueError(f"{name} needs a finite mean and a finite "
                                 f"positive sd, got ({mu}, {sd})")

    @property
    def n_contaminants(self) -> int:
        # round half up, matching the fixed-percentage design
        return int(math.floor(self.n * self.contamination + 0.5))


def _draws(n: int, master_seed: int, reps) -> np.ndarray:
    """One row of ``n`` polar normals per replication in ``reps`` (Python
    ints), each drawn from the replication's own substream."""
    out = np.empty((len(reps), n))
    for row, rep in zip(out, reps):
        row[:] = polar_normals(np.random.Generator(np.random.PCG64(
            substream_seed(master_seed, rep))), n)
    return out


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


def _sorted_rows(values: np.ndarray) -> np.ndarray:
    """Each row of ``values`` ascending, as a Sample would hold it but for
    the order of -0.0 and 0.0 (no count can tell: they compare equal, and
    the rules flag by ``<`` and ``>``); NaN sorts last."""
    return np.sort(values, axis=-1)


def _counts(run: Sequence[SimScenario], c: float) -> np.ndarray:
    """Values and contaminants flagged, shape (2, methods, points, reps),
    by scenarios of equal (n, master_seed, reps) at each method's CLI
    defaults.  Row point * reps + rep is replication rep of that point;
    rows run in order, at most ``_BLOCK`` values at a time, and the first
    row the detectors cannot take raises.  Two or more scenarios share
    each replication's draws; a lone one draws block by block."""
    n, seed, reps = run[0].n, run[0].master_seed, run[0].reps
    mix = np.array([(*scn.target, *scn.contaminant, n - scn.n_contaminants)
                    for scn in run])
    shared = _draws(n, seed, range(reps)) if len(run) > 1 else None
    counts = np.empty((2, len(SIM_METHODS), len(run), reps), dtype=np.int64)
    rows = counts.reshape(2, len(SIM_METHODS), -1)
    step = max(1, _BLOCK // n)
    for b in range(0, rows.shape[-1], step):
        point, rep = np.divmod(np.arange(b, min(b + step, rows.shape[-1])),
                               reps)
        z = _draws(n, seed, rep.tolist()) if shared is None else shared[rep]
        mu_f, sd_f, mu_g, sd_g, cut = mix[point].T[..., None]
        tail = np.arange(n) >= cut
        with np.errstate(over="ignore"):
            values = np.where(tail, mu_g + sd_g * z, mu_f + sd_f * z)
        v = _sorted_rows(values)
        finite = np.isfinite(v[:, 0]) & np.isfinite(v[:, -1])
        if not finite.all():
            i = int(finite.argmin())
            if i:  # the scan raises first if an earlier span overflows
                _two_sided(v[:i], c)
            raise ValueError(f"non-finite value at position "
                             f"{np.isfinite(v[i]).argmin()}")
        for j, (low, high) in enumerate((
                _two_sided(v, c)[:2], _fences(v, 1.5),
                _mad_interval(v, 3.0, MAD_CONSISTENCY))):
            out = _outside(values, low[:, None], high[:, None])
            rows[:, j, b:b + step] = out.sum(-1), (out & tail).sum(-1)
    return counts


def _curve(scenarios: Sequence[SimScenario], xs: Sequence[float],
           c: float) -> list[CurvePoint]:
    """One curve point per scenario, at ``xs``; each statistic is one
    reduction along the replications of its run's :func:`_counts`."""
    points = []
    for (n, _, reps), group in groupby(zip(scenarios, xs), key=lambda sx: (
            sx[0].n, sx[0].master_seed, sx[0].reps)):
        run, run_xs = zip(*group)
        detected, found = _counts(run, c)
        m_cont = np.array([scn.n_contaminants for scn in run])
        pct = 100.0 * detected / n
        # (point, statistic, method); one replication has no spread
        stats = np.stack((
            pct.mean(-1), pct.std(-1, ddof=int(reps > 1)) / math.sqrt(reps),
            (100.0 * found / np.maximum(m_cont, 1)[:, None]).mean(-1)), 1).T
        for x, m, (d, s, r) in zip(run_xs, m_cont, stats.tolist()):
            points.append(CurvePoint(x, *(dict(zip(SIM_METHODS, v)) for v in
                                          (d, s, r if m else [None] * len(r)))))
    return points


def breakdown_curve(scenarios: Sequence[SimScenario],
                    sens: Sensitivity = DEFAULT_SENSITIVITY
                    ) -> list[CurvePoint]:
    """Average detected percent per method across a contamination sweep.

    Each scenario becomes one curve point at x = 100 * contamination.
    Replication substreams depend only on (master_seed, rep), so reruns
    are bit-identical, and consecutive scenarios with equal n,
    master_seed and reps share their draws: each replication's
    standard-normal row is drawn once and reused at every sweep position
    (common random numbers).  Rows run in blocks of a fixed number of
    values, so memory holds one block, the draws and the counts.  At
    paper scale (n=500, reps=1000) a fig1a sweep takes about 1.3 s on one
    core of a 2-core VM, against 14.5 s for a loop over replications.
    """
    return _curve(scenarios, [100.0 * scn.contamination for scn in scenarios],
                  sens.threshold_c)


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


def pure_normal_curve(sizes: Sequence[int], reps: int = 1000,
                      master_seed: int = 0,
                      sens: Sensitivity = DEFAULT_SENSITIVITY
                      ) -> list[CurvePoint]:
    """False-alarm rates on uncontaminated standard-normal samples."""
    if any(size < 3 for size in sizes):
        raise ValueError("sizes must be at least 3")
    return _curve([SimScenario(n=size, contamination=0.0, reps=reps,
                               master_seed=master_seed) for size in sizes],
                  [float(size) for size in sizes], sens.threshold_c)
