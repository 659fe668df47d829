"""Multi-class clustering by per-point partner sets and resonance.

Every point runs the one-sided expanding scan on its own sorted distance
series to pick a partner set (its local notion of "my cluster").  A
resonance run then seeds one point and fires everything reachable along
partner links; the runs of all seeds, computed at once as one boolean
reachability closure, vote each point into a cluster.

Point ids are 1-based throughout this module, matching input file rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .expanding import DEFAULT_SENSITIVITY, Sensitivity, _first_border, _gaps


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite points in d dimensions (2-D in all bundled data), ids 1..n.

    ``points`` is a read-only (n, d) float64 array; row i is point id i+1.
    """

    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        p = np.array(self.points, dtype=float)
        if p.ndim != 2 or len(p) < 2:
            raise ValueError(f"a point set needs at least two points as "
                             f"rows of an (n, d) array, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError(f"non-finite coordinate in point "
                             f"{np.isfinite(p).all(axis=1).argmin() + 1}")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    @classmethod
    def from_iterable(cls, rows: Iterable[Sequence[float]],
                      label: str = "") -> "PointSet":
        return cls(list(rows), label)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def pairwise_distances(points: PointSet) -> np.ndarray:
    """Euclidean distance matrix; symmetry is exact by construction.

    Squared differences are summed 128 rows at a time, so the only other
    buffer is (128, n).  For another metric, pass any square matrix with
    a zero diagonal to :func:`partner_links`.  A distance that overflows
    stays infinite, and the partner scan rejects it with OverflowError.
    """
    n = points.n
    dist = np.zeros((n, n))
    buf = np.empty((min(n, 128), n))
    with np.errstate(over="ignore"):
        for lo in range(0, n, 128):
            rows = dist[lo:lo + 128]
            for x in points.points.T:
                d = np.subtract(x[lo:lo + 128, None], x, out=buf[:len(rows)])
                d *= d
                rows += d
    return np.sqrt(dist, out=dist)


def partner_links(dist: np.ndarray, sens: Sensitivity = DEFAULT_SENSITIVITY,
                  min_partners: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Every point's partners, by the expanding scan over its distances.

    Row i of ``dist`` sorted is point i's series: its own distance 0,
    then its distances to the others, so the nearest-neighbor distance is
    itself a candidate gap.  The border is the first gap index
    t >= min_partners + 1 whose score reaches the threshold, and
    ``radius[i]`` is the distance there.  No border (including the
    all-distances-equal degenerate case) leaves ``radius[i]`` infinite.
    Returns ``(link, radius)``: ``link[i, j]`` holds when point j is a
    partner of point i, that is nearer than ``radius[i]`` (never i itself).
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    n = dist.shape[0]
    if min_partners < 1:
        raise ValueError("min_partners must be at least 1")
    if n < min_partners + 1:
        raise ValueError(f"need at least {min_partners + 1} points for "
                         f"min_partners={min_partners}, got {n}")
    radius = np.full(n, math.inf)
    for i, row in enumerate(dist):
        series = np.sort(row)
        span = series[-1]
        if span <= 0.0:
            continue
        # gap t (2..n-1) is d[t-1]; the nearest-neighbor gap seeds the maximum
        d = _gaps(series)
        border, _, _ = _first_border(d[1:], d[:1], n, span, sens.threshold_c,
                                     first=min_partners - 1)
        if border < n - 2:
            radius[i] = series[border + 2]
    link = dist < radius[:, None]
    np.fill_diagonal(link, False)
    return link, radius


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

    @property
    def n_clusters(self) -> int:
        return len(self.summary)


def cluster_all(link: np.ndarray) -> ClusterPartition:
    """Combine the resonance runs of every seed into one partition.

    ``link[i, j]`` holds when point j+1 is a partner of point i+1 (the
    diagonal is ignored).  A run seeded at s fires every point reachable
    from s along partner links, so the runs of all seeds are the rows of
    one boolean transitive closure, kept as rows packed 8 points to a
    byte (n²/8 bytes).  A run is silent when no fired point other than
    the seed lists the seed among its partners.  Every non-silent run
    votes for its fired set; a point's label is the most frequent fired
    set among the runs that contain it, ties broken toward the set voted
    by the smallest seed id.
    """
    link = np.asarray(link, dtype=bool)
    if link.ndim != 2 or link.shape[0] != link.shape[1]:
        raise ValueError(f"link matrix must be square, got {link.shape}")
    n = link.shape[0]
    ids = np.arange(n)
    bit = (0x80 >> (ids & 7)).astype(np.uint8)  # bit k is in byte k >> 3

    # Warshall, self-links dropped: after pivot k, fired[i, j] holds when
    # a path of links leads from i to j through points among 0..k
    fired = np.packbits(link, axis=1)
    fired[ids, ids >> 3] &= ~bit
    for k in range(n):
        fired[(fired[:, k >> 3] & bit[k]) != 0] |= fired[k]
    # seed s is silent when no path leads back to it; otherwise its run
    # fires s itself, as the resonance run does
    silent = (fired[ids, ids >> 3] & bit) == 0
    voters = np.flatnonzero(~silent)

    # one signature per distinct fired row, compared as packed bytes
    rows = fired.view(f"V{fired.shape[1]}").ravel()
    _, first, votes = np.unique(rows[voters], return_index=True,
                                return_counts=True)
    first = voters[first]
    # best signature first: most votes, then smallest first voter
    sigs = first[np.lexsort((first, -votes))]
    contains = np.unpackbits(fired[sigs], axis=1, count=n)
    assigned = np.flatnonzero(contains.any(axis=0))
    winner = sigs[contains.argmax(axis=0)[assigned]] if sigs.size else sigs

    # clusters numbered by their smallest member
    _, smallest, group = np.unique(winner, return_index=True,
                                   return_inverse=True)
    _, cluster_of = np.unique(smallest[group], return_inverse=True)
    members_of = np.zeros((len(smallest), n), dtype=bool)
    members_of[cluster_of, assigned] = True
    member_rows = np.packbits(members_of, axis=1).view(rows.dtype).ravel()
    # a silent seed is never right: its fired row lacks its own bit
    right = rows[assigned] == member_rows[cluster_of]

    labels: list[int | None] = [None] * n
    summaries = []
    silent_ids = frozenset((np.flatnonzero(silent) + 1).tolist())
    for cid in range(len(smallest)):
        in_cluster = cluster_of == cid
        members = tuple((assigned[in_cluster] + 1).tolist())
        for p in members:
            labels[p - 1] = cid + 1
        right_count = int(right[in_cluster].sum())
        summaries.append(ClusterSummary(
            cluster_id=cid + 1, members=members, right_count=right_count,
            silent_members=tuple(p for p in members if p in silent_ids),
            probability=right_count / len(members)))
    return ClusterPartition(labels=tuple(labels), silent_ids=silent_ids,
                            summary=tuple(summaries))


def cluster_points(points: PointSet,
                   sens: Sensitivity = DEFAULT_SENSITIVITY,
                   min_partners: int = 3) -> ClusterPartition:
    """Convenience pipeline: distances, partner links, combined resonance."""
    link, _ = partner_links(pairwise_distances(points), sens, min_partners)
    return cluster_all(link)
