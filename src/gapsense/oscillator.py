"""Multi-class clustering by per-point partner sets and resonance.

Every point runs the one-sided expanding scan on its own sorted distance
series to pick a partner set (its local notion of "my cluster").  A
resonance run then seeds one point and propagates firing along partner
links; combining the runs of all seeds votes each point into a cluster.

Point ids are 1-based throughout this module, matching input file rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expanding import DEFAULT_SENSITIVITY, Sensitivity, _first_border, _gaps


@dataclass(frozen=True)
class PointSet:
    """Finite points in d dimensions (2-D in all bundled data), ids 1..n."""

    points: tuple[tuple[float, ...], ...]
    label: str = ""

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a point set needs at least two points")
        dim = len(self.points[0])
        for pos, p in enumerate(self.points):
            if len(p) != dim:
                raise ValueError(f"point {pos + 1} has {len(p)} coordinates, "
                                 f"expected {dim}")
            if not all(math.isfinite(c) for c in p):
                raise ValueError(f"non-finite coordinate in point {pos + 1}")

    @classmethod
    def from_iterable(cls, rows: Iterable[Sequence[float]],
                      label: str = "") -> "PointSet":
        return cls(tuple(tuple(float(c) for c in row) for row in rows), label)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric Euclidean distances with a zero diagonal."""

    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def row(self, i: int) -> np.ndarray:
        """Distances from point id i (1-based) to every point."""
        return self.dist[i - 1]


def pairwise_distances(points: PointSet) -> DistanceMatrix:
    """Euclidean distance matrix; symmetry is exact by construction.

    For another metric, build a :class:`DistanceMatrix` directly and pass
    it to :func:`all_partner_sets`.  A distance that overflows stays
    infinite, and the partner-set scan rejects it with OverflowError.
    """
    arr = np.asarray(points.points, dtype=float)
    n = arr.shape[0]
    dist = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for i in range(n):
            d = np.sqrt(((arr[i + 1:] - arr[i]) ** 2).sum(axis=1))
            dist[i, i + 1:] = d
            dist[i + 1:, i] = d
    return DistanceMatrix(dist=dist)


@dataclass(frozen=True)
class PartnerSet:
    """The neighbors a point accepts as consistent with itself.

    ``radius`` is the distance at the rejecting gap; partners are exactly
    the points strictly nearer.  ``radius`` is infinite when the scan
    found no border (then every other point is a partner).
    """

    owner: int
    partners: frozenset[int]
    radius: float


def partner_set(dm: DistanceMatrix, i: int,
                sens: Sensitivity = DEFAULT_SENSITIVITY,
                min_partners: int = 3) -> PartnerSet:
    """Expanding scan over point i's augmented distance series.

    The series starts at the point itself (distance 0) followed by its
    sorted distances to the others, so the nearest-neighbor distance is
    itself a candidate gap.  The border is the first gap index
    t >= min_partners + 1 whose score reaches the threshold; owners of
    the distances before it are the partners.  No border (including the
    all-distances-equal degenerate case) means every other point is a
    partner.
    """
    n = dm.n
    if min_partners < 1:
        raise ValueError("min_partners must be at least 1")
    if n < min_partners + 1:
        raise ValueError(f"need at least {min_partners + 1} points for "
                         f"min_partners={min_partners}, got {n}")
    if not 1 <= i <= n:
        raise ValueError(f"point id {i} outside 1..{n}")
    row = dm.row(i)
    everyone = frozenset(range(1, n + 1)) - {i}
    series = np.concatenate(([0.0], np.sort(np.delete(row, i - 1))))
    span = float(series[-1])
    if span <= 0.0:
        return PartnerSet(owner=i, partners=everyone, radius=math.inf)
    # gap t (2..n-1) is d[t-1]; the nearest-neighbor gap seeds the maximum
    d = _gaps(series)
    border, _, _ = _first_border(d[1:], d[0], n, span, sens.threshold_c,
                                 first=min_partners - 1)
    if border is None:
        return PartnerSet(owner=i, partners=everyone, radius=math.inf)
    radius = float(series[border + 2])
    near = row < radius
    near[i - 1] = False
    return PartnerSet(owner=i, radius=radius,
                      partners=frozenset((np.flatnonzero(near) + 1).tolist()))


def all_partner_sets(dm: DistanceMatrix,
                     sens: Sensitivity = DEFAULT_SENSITIVITY,
                     min_partners: int = 3) -> dict[int, PartnerSet]:
    """Partner sets for every point id."""
    return {i: partner_set(dm, i, sens, min_partners)
            for i in range(1, dm.n + 1)}


@dataclass(frozen=True)
class ResonanceRun:
    """One seeded propagation: who fired, whether the seed stayed silent."""

    seed: int
    fired: frozenset[int]
    silent: bool


def resonate(partner_sets: Mapping[int, PartnerSet], seed: int) -> ResonanceRun:
    """Deterministic resonance closure from one seed.

    The seed fires; repeatedly, every partner of a fired cell fires,
    until nothing new fires.  The run is silent when no fired cell other
    than the seed lists the seed among its own partners (no return
    stimulus); a silent run reports fired = {seed}.
    """
    if seed not in partner_sets:
        raise ValueError(f"unknown seed id {seed}")
    fired = {seed}
    frontier = {seed}
    while frontier:
        step = set()
        for i in frontier:
            step |= partner_sets[i].partners
        step -= fired
        if not step:
            break
        fired |= step
        frontier = step
    silent = not any(seed in partner_sets[i].partners
                     for i in fired if i != seed)
    if silent:
        return ResonanceRun(seed=seed, fired=frozenset({seed}), silent=True)
    return ResonanceRun(seed=seed, fired=frozenset(fired), silent=False)


@dataclass(frozen=True)
class ClusterSummary:
    """Per-cluster roll-up: members, how many reproduced it, who was silent."""

    cluster_id: int
    members: tuple[int, ...]
    right_count: int
    silent_members: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class ClusterPartition:
    """Final labels (index = id - 1; None = never fired by any voting run)."""

    labels: tuple[int | None, ...]
    silent_ids: frozenset[int]
    summary: tuple[ClusterSummary, ...]

    def members(self, cluster_id: int) -> tuple[int, ...]:
        return tuple(i + 1 for i, lab in enumerate(self.labels)
                     if lab == cluster_id)

    @property
    def n_clusters(self) -> int:
        return len(self.summary)


def cluster_all(partner_sets: Mapping[int, PartnerSet]) -> ClusterPartition:
    """Combine the resonance runs of every seed into one partition.

    Every non-silent run votes for its fired set; a point's label is the
    most frequent fired set among the runs that contain it, ties broken
    toward the set voted by the smallest seed id.
    """
    ids = sorted(partner_sets)
    n = len(ids)
    if ids != list(range(1, n + 1)):
        raise ValueError("partner sets must cover ids 1..n")

    runs = {seed: resonate(partner_sets, seed) for seed in ids}
    silent_ids = frozenset(s for s, r in runs.items() if r.silent)

    votes: dict[frozenset[int], int] = {}
    first_seed: dict[frozenset[int], int] = {}
    for seed in ids:
        run = runs[seed]
        if run.silent:
            continue
        votes[run.fired] = votes.get(run.fired, 0) + 1
        first_seed.setdefault(run.fired, seed)

    winner: dict[int, frozenset[int]] = {}
    for p in ids:
        containing = [sig for sig in votes if p in sig]
        if containing:
            winner[p] = max(containing,
                            key=lambda sig: (votes[sig], -first_seed[sig]))

    groups: dict[frozenset[int], list[int]] = {}
    for p, sig in winner.items():
        groups.setdefault(sig, []).append(p)
    ordered = sorted(groups.values(), key=min)

    labels: list[int | None] = [None] * n
    summaries = []
    for cid, members in enumerate(ordered, start=1):
        members = sorted(members)
        for p in members:
            labels[p - 1] = cid
        member_set = frozenset(members)
        right = sum(1 for p in members
                    if not runs[p].silent and runs[p].fired == member_set)
        silent_members = tuple(p for p in members if p in silent_ids)
        summaries.append(ClusterSummary(
            cluster_id=cid, members=tuple(members), right_count=right,
            silent_members=silent_members,
            probability=right / len(members)))
    return ClusterPartition(labels=tuple(labels), silent_ids=silent_ids,
                            summary=tuple(summaries))


def cluster_points(points: PointSet,
                   sens: Sensitivity = DEFAULT_SENSITIVITY,
                   min_partners: int = 3) -> ClusterPartition:
    """Convenience pipeline: distances, partner sets, combined resonance."""
    dm = pairwise_distances(points)
    return cluster_all(all_partner_sets(dm, sens, min_partners))
