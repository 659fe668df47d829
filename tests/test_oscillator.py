"""Partner-set and resonance-clustering tests."""
import math
import random

import numpy as np
import pytest

from gapsense import (DistanceMatrix, PartnerSet, PointSet, Sensitivity,
                      all_partner_sets, builtin_dataset, cluster_all,
                      cluster_points, pairwise_distances, partner_set,
                      resonate)
from scan_oracles import partner_set_loop

SENS = Sensitivity.from_threshold(1.81)


def collinear(*xs):
    return PointSet.from_iterable([(x, 0.0) for x in xs])


# --- distances ---------------------------------------------------------------

def test_distance_345():
    dm = pairwise_distances(PointSet.from_iterable([(0, 0), (3, 4)]))
    assert dm.dist[0, 1] == 5.0
    assert dm.dist[1, 0] == 5.0


def test_distance_diagonal_and_symmetry():
    rng = random.Random(1)
    pts = PointSet.from_iterable([(rng.uniform(-5, 5), rng.uniform(-5, 5))
                                  for _ in range(10)])
    dm = pairwise_distances(pts)
    for i in range(10):
        assert dm.dist[i, i] == 0.0
        for j in range(10):
            brute = math.dist(pts.points[i], pts.points[j])
            assert dm.dist[i, j] == pytest.approx(brute, rel=1e-12)
            assert dm.dist[i, j] == dm.dist[j, i]  # exact


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet.from_iterable([(0, 0)])
    with pytest.raises(ValueError):
        PointSet.from_iterable([(0, 0), (1, float("nan"))])
    with pytest.raises(ValueError):
        PointSet.from_iterable([(0, 0), (1, 2, 3)])


# --- partner sets --------------------------------------------------------------

def test_partner_minimum_size_guard():
    # 3 neighbors and min_partners=3: no gap index can be a border
    dm = pairwise_distances(collinear(0, 1, 2, 100))
    ps = partner_set(dm, 1, SENS, min_partners=3)
    assert ps.partners == {2, 3, 4}
    assert ps.radius == math.inf


def test_partner_border_on_line():
    dm = pairwise_distances(collinear(0, 1, 2, 3, 50, 51, 52))
    ps = partner_set(dm, 1, SENS, min_partners=3)
    assert ps.partners == {2, 3, 4}
    assert ps.radius == 50.0
    # the rejecting gap scores (n-1) * (gap - max_prev) / span
    assert 6 * (47 - 1) / 52 >= 1.81


def test_partner_degenerate_equidistant():
    pts = PointSet.from_iterable([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2),
                                  (0.5, math.sqrt(3) / 6)])
    dm = pairwise_distances(pts)
    ps = partner_set(dm, 1, SENS, min_partners=1)
    assert len(ps.partners) == 3 or len(ps.partners) >= 1


def test_partner_all_same_point():
    pts = PointSet.from_iterable([(1, 1)] * 5)
    dm = pairwise_distances(pts)
    ps = partner_set(dm, 2, SENS, min_partners=3)
    assert ps.partners == {1, 3, 4, 5}
    assert ps.radius == math.inf


def test_partner_validation():
    dm = pairwise_distances(collinear(0, 1, 2, 3))
    with pytest.raises(ValueError):
        partner_set(dm, 0, SENS)
    with pytest.raises(ValueError):
        partner_set(dm, 5, SENS)
    with pytest.raises(ValueError):
        partner_set(dm, 1, SENS, min_partners=4)
    with pytest.raises(ValueError):
        partner_set(dm, 1, SENS, min_partners=0)


def test_partner_sets_equal_reference_loop():
    rng = random.Random(20261017)
    for trial in range(300):
        n = rng.randint(2, 30)
        if trial % 2:
            pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
        else:
            pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        if trial % 5 == 0:
            # a custom metric enters as a precomputed matrix (Manhattan here)
            arr = np.asarray(pts, dtype=float)
            dm = DistanceMatrix(
                np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2))
        else:
            dm = pairwise_distances(PointSet.from_iterable(pts))
        sens = Sensitivity.from_threshold(
            rng.choice((0.0, 0.5, 1.1, 1.81, 1.96, 2.0)))
        mp = rng.randint(1, min(5, n - 1))
        for i in range(1, n + 1):
            assert partner_set(dm, i, sens, mp) == \
                partner_set_loop(dm, i, sens, mp), (pts, sens, mp, i)


def test_ruspini_point_70_partners_stay_in_bottom_group():
    rus = builtin_dataset("ruspini")
    dm = pairwise_distances(rus)
    ps = partner_set(dm, 70, SENS, min_partners=3)
    assert ps.partners <= set(range(61, 76))


# --- resonance ------------------------------------------------------------------

def mk_partner_sets(d):
    return {owner: PartnerSet(owner=owner, partners=frozenset(partners),
                              radius=math.inf)
            for owner, partners in d.items()}


def test_resonate_mutual_pair():
    ps = mk_partner_sets({1: {2}, 2: {1}})
    run = resonate(ps, 1)
    assert run.fired == {1, 2}
    assert not run.silent


def test_resonate_chain_without_return_is_silent():
    ps = mk_partner_sets({1: {2}, 2: {3}, 3: {2}})
    run = resonate(ps, 1)
    assert run.silent
    assert run.fired == {1}


def test_resonate_unknown_seed():
    ps = mk_partner_sets({1: {2}, 2: {1}})
    with pytest.raises(ValueError):
        resonate(ps, 9)


def test_resonate_order_independence():
    # fixpoint of a monotone operator: same result from any frontier order
    rng = random.Random(5)
    ids = list(range(1, 13))
    graph = {i: set(rng.sample([j for j in ids if j != i], rng.randint(1, 4)))
             for i in ids}
    ps = mk_partner_sets(graph)

    def slow_closure(seed):
        fired = {seed}
        changed = True
        while changed:
            changed = False
            for i in sorted(fired, reverse=True):
                extra = graph[i] - fired
                if extra:
                    fired |= extra
                    changed = True
        silent = not any(seed in graph[i] for i in fired if i != seed)
        return ({seed} if silent else fired), silent

    for seed in ids:
        run = resonate(ps, seed)
        fired, silent = slow_closure(seed)
        assert run.fired == fired and run.silent == silent


def test_resonate_relabeling_equivariance():
    rng = random.Random(11)
    ids = list(range(1, 10))
    graph = {i: set(rng.sample([j for j in ids if j != i], 2)) for i in ids}
    perm = ids[:]
    rng.shuffle(perm)
    mapping = dict(zip(ids, perm))
    relabeled = {mapping[i]: {mapping[j] for j in graph[i]} for i in ids}
    for seed in ids:
        a = resonate(mk_partner_sets(graph), seed)
        b = resonate(mk_partner_sets(relabeled), mapping[seed])
        assert {mapping[x] for x in a.fired} == b.fired
        assert a.silent == b.silent


def test_ruspini_seed_61_fires_bottom_group():
    rus = builtin_dataset("ruspini")
    sets = all_partner_sets(pairwise_distances(rus), SENS, 3)
    run = resonate(sets, 61)
    assert run.fired == set(range(61, 76))
    assert not run.silent


# --- combine clustering ------------------------------------------------------------

def square(cx, cy, side=1.0):
    return [(cx, cy), (cx + side, cy), (cx, cy + side), (cx + side, cy + side)]


def test_two_separated_groups_cluster_cleanly():
    pts = PointSet.from_iterable(square(0, 0) + square(100, 100))
    part = cluster_points(pts, SENS, min_partners=3)
    assert part.n_clusters == 2
    assert part.summary[0].members == (1, 2, 3, 4)
    assert part.summary[1].members == (5, 6, 7, 8)
    assert not part.silent_ids
    assert all(s.right_count == 4 for s in part.summary)
    assert all(s.probability == 1.0 for s in part.summary)


def test_two_separated_pairs_with_min_partners_one():
    # 4 points cannot host a border under the default floor of 3; lowering
    # the floor restores pair resonance
    pts = PointSet.from_iterable([(0, 0), (1, 0), (50, 0), (51, 0)])
    part = cluster_points(pts, SENS, min_partners=1)
    assert part.n_clusters == 2
    assert part.summary[0].members == (1, 2)
    assert part.summary[1].members == (3, 4)
    assert not part.silent_ids


def mutual_reachability_oracle(pts, sens, min_partners):
    """Components of the mutual partner graph, by brute-force BFS."""
    dm = pairwise_distances(pts)
    sets = all_partner_sets(dm, sens, min_partners)
    ids = list(range(1, pts.n + 1))
    seen, comps = set(), []
    for start in ids:
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            i = todo.pop()
            for j in ids:
                if j not in comp and j in sets[i].partners \
                        and i in sets[j].partners:
                    comp.add(j)
                    todo.append(j)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def test_two_triangles_match_mutual_reachability_oracle():
    tri1 = [(0, 0), (1, 0), (0.5, 0.9)]
    tri2 = [(30, 0), (31, 0), (30.5, 0.9)]
    pts = PointSet.from_iterable(tri1 + tri2)
    part = cluster_points(pts, SENS, min_partners=2)
    got = sorted(s.members for s in part.summary)
    assert got == mutual_reachability_oracle(pts, SENS, 2)
    assert got == [(1, 2, 3), (4, 5, 6)]


def test_partner_sets_invariant_under_scaling():
    rng = random.Random(17)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)]
    for scale in (0.01, 3.0, 1000.0):
        a = all_partner_sets(pairwise_distances(PointSet.from_iterable(pts)),
                             SENS, 3)
        scaled = [(scale * x, scale * y) for x, y in pts]
        b = all_partner_sets(
            pairwise_distances(PointSet.from_iterable(scaled)), SENS, 3)
        for i in a:
            assert a[i].partners == b[i].partners


def test_cluster_all_validates_ids():
    pts = PointSet.from_iterable(square(0, 0) + square(100, 100))
    sets = all_partner_sets(pairwise_distances(pts), SENS, 3)
    with pytest.raises(ValueError):
        cluster_all({k: v for k, v in sets.items() if k != 1})


def test_nonsilent_seed_in_own_fired_set():
    rus = builtin_dataset("ruspini")
    sets = all_partner_sets(pairwise_distances(rus), SENS, 3)
    for seed in range(1, 76):
        run = resonate(sets, seed)
        assert seed in run.fired
        if not run.silent:
            assert len(run.fired) >= 2
