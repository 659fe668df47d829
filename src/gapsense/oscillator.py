"""Multi-class clustering by per-point partner sets and resonance.

Every point runs the one-sided scan of ``iir-high`` on its own sorted
distances to pick a partner set (its local notion of "my cluster"), on
blocks of distance rows at once.  A resonance run then seeds one point
and fires everything reachable along partner links, and the runs of all
seeds vote each point into a cluster.  The runs are read off the
strongly connected components of the partner graph: all members of a
component fire the same set, so the vote is a vote among components.

Point ids are 1-based throughout this module, matching input file rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .expanding import (_BLOCK, DEFAULT_SENSITIVITY, Sensitivity,
                        _high_side)


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
    Rows are sorted and scanned in blocks of at most 2^14 distances (one
    row when n is larger), so the scan's scratch memory stays bounded.  A
    non-zero diagonal or a negative or NaN distance raises ValueError, an
    infinite one OverflowError.
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
    if np.diagonal(dist).any():
        raise ValueError("distance matrix needs a zero diagonal")
    radius = np.full(n, math.inf)
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        series = np.sort(dist[lo:lo + step], axis=1)
        bad = (series[:, 0] < 0.0) | np.isnan(series[:, -1])
        if bad.any():
            raise ValueError(f"negative or NaN distance in row "
                             f"{lo + bad.argmax() + 1}")
        # the nearest-neighbor distance is gap 1 and seeds the maximum
        cut = _high_side(series, sens.threshold_c, min_partners - 1)[0]
        found = np.flatnonzero(cut < n)
        radius[lo + found] = series[found, cut[found]]
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
    from s along partner links.  A run is silent when no fired point
    other than the seed lists the seed among its partners.  Every
    non-silent run votes for its fired set; a point's label is the most
    frequent fired set among the runs that contain it, ties broken toward
    the set voted by the smallest seed id.

    The vote is read off the strongly connected components (SCCs) of the
    link graph.  With self-links dropped, a seed is non-silent exactly
    when its SCC C has two or more points; every member of C fires the
    same set, C plus all it reaches; and two SCCs never fire the same
    set.  So the set of C gets |C| votes, first from min(C), and a point
    joins the SCC of lowest rank (n - |C|) * n + min(C) (0-based ids)
    that reaches it; only voters rank below (n - 1) * n.  Kosaraju-Sharir's
    breadth-first pass collects the SCCs in topological order, and each
    pushes the best rank that reached it, or its own, along its links.
    A seed fires exactly its cluster only when its SCC won it and no link
    leaves it (any other seed's fired set holds the winner, which then
    reaches back), so a closed cluster of rank r has n - r // n right
    seeds and an open one none.
    """
    link = np.asarray(link, dtype=bool)
    if link.ndim != 2 or link.shape[0] != link.shape[1]:
        raise ValueError(f"link matrix must be square, got {link.shape}")
    n = link.shape[0]
    # depth-first finishing order; each step descends to the first fresh
    # partner of the point on top, or finishes it (2n steps in all)
    fresh = np.ones(n, dtype=bool)
    finished = []
    for root in range(n):
        path = [root] if fresh[root] else []
        fresh[root] = False
        while path:
            step = link[path[-1]] & fresh
            nxt = step.argmax()
            if step[nxt]:
                fresh[nxt] = False
                path.append(nxt)
            else:
                finished.append(path.pop())
    # breadth-first along reversed links from the latest finisher not yet
    # placed: each search collects one SCC, after every SCC that reaches it
    fresh[:] = True
    best = np.full(n, n * n)  # above every rank
    silent_ids = set()
    for root in reversed(finished):
        if not fresh[root]:
            continue
        members = frontier = np.array([root])
        while frontier.size:
            fresh[frontier] = False
            frontier = np.flatnonzero(link[:, frontier].any(axis=1) & fresh)
            members = np.concatenate((members, frontier))
        if len(members) == 1:
            silent_ids.add(int(root) + 1)
        r = min(best[members].min(), (n - len(members)) * n + members.min())
        # an SCC's members link to each other, so they take r here too
        best[link[members].any(axis=0) & (best > r)] = r

    # cluster ids by rank, numbered by their smallest member
    voted = best[best < (n - 1) * n].tolist()
    cids = {r: cid for cid, r in enumerate(dict.fromkeys(voted), start=1)}
    summaries = []
    for r, cid in cids.items():
        idx = np.flatnonzero(best == r)
        members = tuple((idx + 1).tolist())
        closed = (best[link[idx].any(axis=0)] == r).all()
        right_count = n - r // n if closed else 0
        summaries.append(ClusterSummary(
            cluster_id=cid, members=members, right_count=right_count,
            silent_members=tuple(p for p in members if p in silent_ids),
            probability=right_count / len(members)))
    return ClusterPartition(tuple(map(cids.get, best.tolist())),
                            frozenset(silent_ids), tuple(summaries))


def cluster_points(points: PointSet,
                   sens: Sensitivity = DEFAULT_SENSITIVITY,
                   min_partners: int = 3) -> ClusterPartition:
    """Convenience pipeline: distances, partner links, combined resonance."""
    link, _ = partner_links(pairwise_distances(points), sens, min_partners)
    return cluster_all(link)
