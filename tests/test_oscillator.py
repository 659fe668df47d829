"""Partner-set and resonance-clustering tests."""
import itertools
import math
import random

import numpy as np
import pytest

from gapsense import (PointSet, Sensitivity, builtin_dataset, cluster_all,
                      cluster_points, oscillator, pairwise_distances,
                      partner_links)
from scan_oracles import (PartnerSet, cluster_all_loop, cluster_all_warshall,
                          partner_set_loop, resonate_loop)

SENS = Sensitivity.from_threshold(1.81)


def collinear(*xs):
    return PointSet.from_iterable([(x, 0.0) for x in xs])


def partners_of(link, i):
    """Partner ids of point id i."""
    return set((np.flatnonzero(link[i - 1]) + 1).tolist())


def as_partner_sets(link, radius):
    """The oracles' per-point records of a ``partner_links`` result."""
    return {i: PartnerSet(i, frozenset(partners_of(link, i)),
                          float(radius[i - 1]))
            for i in range(1, len(link) + 1)}


# --- distances ---------------------------------------------------------------

def test_distance_345():
    dist = pairwise_distances(PointSet.from_iterable([(0, 0), (3, 4)]))
    assert dist[0, 1] == 5.0
    assert dist[1, 0] == 5.0


def test_distance_diagonal_and_symmetry():
    rng = random.Random(1)
    pts = PointSet.from_iterable([(rng.uniform(-5, 5), rng.uniform(-5, 5))
                                  for _ in range(10)])
    dist = pairwise_distances(pts)
    for i in range(10):
        assert dist[i, i] == 0.0
        for j in range(10):
            brute = math.dist(pts.points[i], pts.points[j])
            assert dist[i, j] == pytest.approx(brute, rel=1e-12)
            assert dist[i, j] == dist[j, i]  # exact


def test_distances_in_row_blocks_equal_one_buffer_sum():
    # more rows than one block, and three coordinates
    rng = np.random.default_rng(3)
    for shape in [(300, 2), (129, 3)]:
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        ref = np.zeros((shape[0], shape[0]))
        for col in x.T:
            ref += (col[:, None] - col) ** 2
        assert np.array_equal(pairwise_distances(PointSet(x)), np.sqrt(ref))


def test_pointset_points_are_a_read_only_copy():
    src = np.array([[0.0, 0.0], [3.0, 4.0]])
    ps = PointSet(src)
    src[1, 0] = 9.0
    assert ps.points.tolist() == [[0.0, 0.0], [3.0, 4.0]]
    assert ps.points.dtype == np.float64
    assert not ps.points.flags.writeable
    with pytest.raises(ValueError):
        ps.points[0, 0] = 1.0
    assert PointSet.from_iterable([(0, 0), (1, 1)]).points.flags.writeable \
        is False


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
    link, radius = partner_links(pairwise_distances(collinear(0, 1, 2, 100)),
                                 SENS, min_partners=3)
    assert partners_of(link, 1) == {2, 3, 4}
    assert radius[0] == math.inf


def test_partner_border_on_line():
    link, radius = partner_links(
        pairwise_distances(collinear(0, 1, 2, 3, 50, 51, 52)), SENS,
        min_partners=3)
    assert partners_of(link, 1) == {2, 3, 4}
    assert radius[0] == 50.0
    # the rejecting gap scores (n-1) * (gap - max_prev) / span
    assert 6 * (47 - 1) / 52 >= 1.81


def test_partner_degenerate_equidistant():
    pts = PointSet.from_iterable([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2),
                                  (0.5, math.sqrt(3) / 6)])
    link, radius = partner_links(pairwise_distances(pts), SENS,
                                 min_partners=1)
    # no point finds a border, so each takes every other point
    assert (link == ~np.eye(4, dtype=bool)).all()
    assert (radius == math.inf).all()


def test_partner_all_same_point():
    pts = PointSet.from_iterable([(1, 1)] * 5)
    link, radius = partner_links(pairwise_distances(pts), SENS,
                                 min_partners=3)
    assert partners_of(link, 2) == {1, 3, 4, 5}
    assert radius[1] == math.inf


def test_partner_validation():
    dist = pairwise_distances(collinear(0, 1, 2, 3))
    with pytest.raises(ValueError):
        partner_links(dist, SENS, min_partners=4)
    with pytest.raises(ValueError):
        partner_links(dist, SENS, min_partners=0)
    with pytest.raises(ValueError, match="must be square"):
        partner_links(dist[:3], SENS, min_partners=1)


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
            dist = np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2)
        else:
            dist = pairwise_distances(PointSet.from_iterable(pts))
        sens = Sensitivity.from_threshold(
            rng.choice((0.0, 0.5, 1.1, 1.81, 1.96, 2.0)))
        mp = rng.randint(1, min(5, n - 1))
        link, radius = partner_links(dist, sens, mp)
        assert as_partner_sets(link, radius) == \
            {i: partner_set_loop(dist, i, sens, mp) for i in range(1, n + 1)}, \
            (pts, sens, mp)


@pytest.mark.parametrize("rows", [1, 7])
def test_partner_links_in_row_blocks_equal_reference_loop(monkeypatch, rows):
    # a budget of `rows` rows per block; n up to 40 spans up to 40 blocks
    rng = np.random.default_rng(rows)
    for n in (2, 3, 8, 23, 40):
        monkeypatch.setattr(oscillator, "_BLOCK", rows * n)
        pts = rng.normal(size=(n, 2))
        dist = pairwise_distances(PointSet(pts))
        # a custom metric whose zero-span rows share blocks with others
        zeroed = dist.copy()
        zeroed[::3] = 0.0
        # at c = 0 a zero-span row would find a border if it were scored
        for d, sens in itertools.product(
                (dist, zeroed, np.zeros((n, n))),
                (SENS, Sensitivity.from_threshold(0.0))):
            for mp in range(1, min(5, n - 1) + 1):
                link, radius = partner_links(d, sens, mp)
                assert as_partner_sets(link, radius) == \
                    {i: partner_set_loop(d, i, sens, mp)
                     for i in range(1, n + 1)}, (n, mp)


@pytest.mark.parametrize("rows", [1, 7])
def test_partner_links_overflow_in_a_later_block(monkeypatch, rows):
    monkeypatch.setattr(oscillator, "_BLOCK", rows * 20)
    dist = pairwise_distances(collinear(*range(20)))
    partner_links(dist, SENS, 3)
    dist[-1, :-1] = math.inf  # only the last row's span overflows
    with pytest.raises(OverflowError, match="span must be finite"):
        partner_links(dist, SENS, 3)


def test_ruspini_point_70_partners_stay_in_bottom_group():
    rus = builtin_dataset("ruspini")
    link, _ = partner_links(pairwise_distances(rus), SENS, min_partners=3)
    assert partners_of(link, 70) <= set(range(61, 76))


# --- resonance ------------------------------------------------------------------

def mk_link(graph):
    """Link matrix of a graph given as {id: partner ids} over ids 1..n."""
    n = len(graph)
    link = np.zeros((n, n), dtype=bool)
    for i, partners in graph.items():
        link[i - 1, [j - 1 for j in partners]] = True
    return link


def mk_partner_sets(graph):
    return {owner: PartnerSet(owner=owner, partners=frozenset(partners),
                              radius=math.inf)
            for owner, partners in graph.items()}


def test_resonate_mutual_pair():
    part = cluster_all(mk_link({1: {2}, 2: {1}}))
    assert part.labels == (1, 1)
    assert not part.silent_ids
    assert part.summary[0].members == (1, 2)
    assert part.summary[0].right_count == 2


def test_resonate_chain_without_return_is_silent():
    # 1 fires 2 and 3, but neither lists 1: seed 1 gets no return stimulus
    part = cluster_all(mk_link({1: {2}, 2: {3}, 3: {2}}))
    assert part.silent_ids == {1}
    assert part.labels == (None, 1, 1)
    assert part.summary[0].members == (2, 3)


def test_self_links_are_ignored():
    # 1 listing itself is no return stimulus: seed 1 stays silent
    graph = {1: {1, 2}, 2: {3}, 3: {2}}
    part = cluster_all(mk_link(graph))
    assert part.silent_ids == {1}
    assert part.labels == (None, 1, 1)
    assert part == cluster_all_loop(mk_partner_sets(graph))


def test_resonate_order_independence():
    # fixpoint of a monotone operator: same result from any frontier order
    rng = random.Random(5)
    ids = list(range(1, 13))
    graph = {i: set(rng.sample([j for j in ids if j != i], rng.randint(1, 4)))
             for i in ids}

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

    runs = {seed: slow_closure(seed) for seed in ids}
    part = cluster_all(mk_link(graph))
    assert part.silent_ids == {s for s in ids if runs[s][1]}
    for s in part.summary:
        right = [p for p in s.members
                 if not runs[p][1] and runs[p][0] == set(s.members)]
        assert s.right_count == len(right)


def test_resonate_relabeling_equivariance():
    # votes tie-break toward the smallest seed id, so only the silent seeds
    # and the set of points some non-silent run fires are label-free
    rng = random.Random(11)
    ids = list(range(1, 10))
    graph = {i: set(rng.sample([j for j in ids if j != i], 2)) for i in ids}
    perm = ids[:]
    rng.shuffle(perm)
    mapping = dict(zip(ids, perm))
    relabeled = {mapping[i]: {mapping[j] for j in graph[i]} for i in ids}
    a = cluster_all(mk_link(graph))
    b = cluster_all(mk_link(relabeled))
    assert {mapping[s] for s in a.silent_ids} == b.silent_ids
    assert {mapping[p] for p in ids if a.labels[p - 1] is not None} == \
        {p for p in ids if b.labels[p - 1] is not None}


def test_ruspini_seed_61_fires_bottom_group():
    rus = builtin_dataset("ruspini")
    sets = as_partner_sets(*partner_links(pairwise_distances(rus), SENS, 3))
    assert resonate_loop(sets, 61) == (frozenset(range(61, 76)), False)


def random_partner_graph(rng, n):
    """Partner ids drawn at one density, with empty sets and self-links;
    every fifth graph links only upward, so every seed is silent."""
    density = rng.random()
    upward = rng.random() < 0.2
    graph = {}
    for i in range(1, n + 1):
        pool = range(i + 1, n + 1) if upward else range(1, n + 1)
        graph[i] = {j for j in pool if rng.random() < density
                    and (j != i or rng.random() < 0.3)}
        if rng.random() < 0.1:
            graph[i] = set()
    return graph


def test_cluster_all_equals_reference_loop():
    # n 1-25 runs from the one-point graph up, so empty partner sets,
    # all-silent graphs and ties between equal-size SCCs all occur
    rng = random.Random(20261018)
    for _ in range(2000):
        graph = random_partner_graph(rng, rng.randint(1, 25))
        part = cluster_all(mk_link(graph))
        assert part == cluster_all_loop(mk_partner_sets(graph)), graph
        assert part == cluster_all_warshall(mk_link(graph)), graph
    gen = np.random.default_rng(20261018)
    for n in (60, 90, 120):
        blobs = np.repeat([[0, 0], [25, 0], [0, 25]], n // 3, axis=0)
        for pts in (blobs + gen.normal(0, 1, blobs.shape),
                    gen.random((n, 2))):
            dist = pairwise_distances(PointSet.from_iterable(pts.tolist()))
            for mp in (1, 3, 5):
                link, radius = partner_links(dist, SENS, mp)
                part = cluster_all(link)
                assert part == cluster_all_loop(
                    as_partner_sets(link, radius)), (n, mp)
                assert part == cluster_all_warshall(link), (n, mp)


def adversarial_links(n):
    """Link matrices that make depth-first, breadth-first or closure
    loops long: (name, n x n bool matrix).  The reverse path is a
    transposed view, so its rows are not contiguous."""
    i = np.arange(n)
    path = np.zeros((n, n), dtype=bool)
    path[i[:-1], i[1:]] = True
    ring = path.copy()
    ring[n - 1, 0] = True
    pairs = path.copy()  # 2i <-> 2i+1, then 2i+1 -> 2i+2
    pairs[i[1::2], i[:-1:2]] = True
    tournament = i[:, None] < i
    cycled = tournament.copy()  # a 2-cycle at the source
    cycled[1, 0] = True
    bipartite = (i[:, None] < n // 2) & (i >= n // 2)
    # a 2-cycle feeding a ring of the rest: the ring wins its points, and
    # the 2-cycle's cluster is never right, as its reach leaks into the ring
    leak = np.zeros((n, n), dtype=bool)
    leak[[0, 1, 1], [1, 0, 2]] = True
    leak[i[2:], np.roll(i[2:], -1)] = True
    return [("path", path), ("reverse path", path.T), ("ring", ring),
            ("chain of 2-cycles", pairs), ("tournament", tournament),
            ("tournament with a 2-cycle", cycled),
            ("complete bipartite DAG", bipartite),
            ("2-cycle leaking into a ring", leak)]


@pytest.mark.parametrize("name,link", adversarial_links(200))
def test_cluster_all_on_adversarial_graphs(name, link):
    perm = np.random.default_rng(len(name)).permutation(len(link))
    for graph in (link, link[perm][:, perm]):
        part = cluster_all(graph)
        assert part == cluster_all_loop(
            as_partner_sets(graph, np.full(len(graph), math.inf))), name
        assert part == cluster_all_warshall(graph), name


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
    link, _ = partner_links(pairwise_distances(pts), sens, min_partners)
    ids = list(range(1, pts.n + 1))
    seen, comps = set(), []
    for start in ids:
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            i = todo.pop()
            for j in ids:
                if j not in comp and link[i - 1, j - 1] \
                        and link[j - 1, i - 1]:
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
        a, _ = partner_links(pairwise_distances(PointSet.from_iterable(pts)),
                             SENS, 3)
        scaled = [(scale * x, scale * y) for x, y in pts]
        b, _ = partner_links(
            pairwise_distances(PointSet.from_iterable(scaled)), SENS, 3)
        assert (a == b).all()


def test_cluster_all_validates_ids():
    # rows and columns index the same point ids
    pts = PointSet.from_iterable(square(0, 0) + square(100, 100))
    link, _ = partner_links(pairwise_distances(pts), SENS, 3)
    for bad in (link[1:], link[:, :7], link[0], link[None]):
        with pytest.raises(ValueError, match="must be square"):
            cluster_all(bad)


def test_nonsilent_seed_in_own_fired_set():
    rus = builtin_dataset("ruspini")
    link, radius = partner_links(pairwise_distances(rus), SENS, 3)
    sets = as_partner_sets(link, radius)
    part = cluster_all(link)
    for seed in range(1, 76):
        fired, silent = resonate_loop(sets, seed)
        assert seed in fired
        assert silent == (seed in part.silent_ids)
        if not silent:
            assert len(fired) >= 2
            # its own run votes for a set holding it, so it gets a label
            assert part.labels[seed - 1] is not None
