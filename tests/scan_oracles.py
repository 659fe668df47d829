"""Reference implementations of the expanding scans and of resonance
clustering, one Python loop each.

The package scores a whole gap sequence at once; these loops walk it gap
by gap, keeping the running maximum by hand, and are what the property
tests compare the package against, record for record.  Likewise the
package clusters from one boolean reachability closure, while
:func:`cluster_all_loop` runs one set-based resonance per seed and counts
votes point by point.
"""
import math
from dataclasses import dataclass, replace

from gapsense import (ClusterPartition, ClusterSummary, Detection, IirRecord,
                      iir_closed_form)


@dataclass(frozen=True)
class PartnerSet:
    """One point's partners (1-based ids) and the radius that bounds them."""

    owner: int
    partners: frozenset[int]
    radius: float


def _record(index, side, gap, max_prev, n, span, threshold):
    iir = iir_closed_form(gap, max_prev, n, span)
    er = (n - 1) * gap / span
    ihr = gap / (gap - max_prev) if gap != max_prev else None
    return IirRecord(index=index, side=side, gap=gap, max_prev=max_prev,
                     er=er, ihr=ihr, iir=iir, accepted=iir < threshold)


def _empty(sample, method, params, degenerate):
    return Detection(method=method, params=params,
                     outlier_values=(), outlier_indices=(),
                     normal_low=sample.min, normal_high=sample.max,
                     degenerate=degenerate)


def high_side_loop(sample, sens):
    """Gap-by-gap :func:`gapsense.detect_high_side`."""
    method, params = "iir-high", {"c": sens.threshold_c}
    v, n = sample.values.tolist(), sample.n
    if n < 3:
        return _empty(sample, method, params, degenerate=False)
    span = v[-1] - v[0]
    if span == 0.0:
        return _empty(sample, method, params, degenerate=True)
    c = sens.threshold_c
    max_prev = v[1] - v[0]
    trace, border = [], None
    for i in range(2, n):
        gap = v[i] - v[i - 1]
        rec = _record(i, "high", gap, max_prev, n, span, c)
        hit = rec.iir >= c and i > n / 2
        rec = replace(rec, accepted=not hit)
        trace.append(rec)
        if hit:
            border = rec
            break
        max_prev = max(max_prev, gap)
    if border is None:
        return Detection(method=method, params=params,
                         outlier_values=(), outlier_indices=(),
                         normal_low=v[0], normal_high=v[-1],
                         trace=tuple(trace))
    cut = v[border.index]
    idx = tuple(j for j in range(n) if v[j] >= cut)
    normal = [x for x in v if x < cut]
    return Detection(method=method, params=params,
                     outlier_values=tuple(v[j] for j in idx),
                     outlier_indices=idx,
                     normal_low=normal[0] if normal else None,
                     normal_high=normal[-1] if normal else None,
                     trace=tuple(trace), border=border)


def two_sided_loop(sample, sens):
    """Gap-by-gap :func:`gapsense.detect_two_sided`: absorb the smaller
    frontier gap (ties right), first to majority size, then while the
    score stays below c."""
    method, params = "iir", {"c": sens.threshold_c}
    v, n = sample.values.tolist(), sample.n
    if n < 3:
        return _empty(sample, method, params, degenerate=False)
    span = v[-1] - v[0]
    if span == 0.0:
        return _empty(sample, method, params, degenerate=True)
    c = sens.threshold_c
    lo, hi = (n // 2 - 1, n // 2) if n % 2 == 0 else (n // 2, n // 2)
    while hi - lo + 1 < n // 2 + 1:
        if lo == 0:
            hi += 1
        elif hi == n - 1:
            lo -= 1
        elif v[hi + 1] - v[hi] > v[lo] - v[lo - 1]:
            lo -= 1
        else:
            hi += 1
    max_prev = max(v[k] - v[k - 1] for k in range(lo + 1, hi + 1))
    trace, border = [], None
    while not (lo == 0 and hi == n - 1):
        if lo == 0:
            side = "high"
        elif hi == n - 1:
            side = "low"
        elif v[hi + 1] - v[hi] > v[lo] - v[lo - 1]:
            side = "low"
        else:
            side = "high"
        if side == "low":
            idx, gap = lo, v[lo] - v[lo - 1]
        else:
            idx, gap = hi + 1, v[hi + 1] - v[hi]
        rec = _record(idx, side, gap, max_prev, n, span, c)
        trace.append(rec)
        if rec.iir >= c:
            border = rec
            break
        if side == "low":
            lo -= 1
        else:
            hi += 1
        max_prev = max(max_prev, gap)
    if border is None:
        return Detection(method=method, params=params,
                         outlier_values=(), outlier_indices=(),
                         normal_low=v[0], normal_high=v[-1],
                         trace=tuple(trace))
    low, high = v[lo], v[hi]
    idxs = tuple(j for j in range(n) if v[j] < low or v[j] > high)
    return Detection(method=method, params=params,
                     outlier_values=tuple(v[j] for j in idxs),
                     outlier_indices=idxs,
                     normal_low=low, normal_high=high,
                     trace=tuple(trace), border=border)


def partner_set_loop(dist, i, sens, min_partners):
    """Gap-by-gap partner scan of point id i, the row ``i - 1`` of
    :func:`gapsense.partner_links` (arguments already valid)."""
    n = len(dist)
    row = dist[i - 1]
    order = sorted(j + 1 for j in range(n) if j + 1 != i)
    order.sort(key=lambda j: row[j - 1])
    series = [0.0] + [float(row[j - 1]) for j in order]
    span = series[-1]
    everyone = frozenset(order)
    if span <= 0.0:
        return PartnerSet(owner=i, partners=everyone, radius=math.inf)
    c = sens.threshold_c
    max_prev = series[1] - series[0]
    border = None
    for t in range(2, n):
        gap = series[t] - series[t - 1]
        if t >= min_partners + 1 and \
                iir_closed_form(gap, max_prev, n, span) >= c:
            border = t
            break
        max_prev = max(max_prev, gap)
    if border is None:
        return PartnerSet(owner=i, partners=everyone, radius=math.inf)
    radius = series[border]
    partners = frozenset(j for j in order if row[j - 1] < radius)
    return PartnerSet(owner=i, partners=partners, radius=radius)


def two_sided_oracle(values, c):
    """Re-simulates the median-expanding scan with quadratic recomputation.

    Keeps the accepted members as an explicit list and rescans all of its
    interior gaps at every step instead of maintaining a running maximum.
    """
    v = sorted(values)
    n = len(v)
    if n < 3 or v[-1] == v[0]:
        return set()
    span = v[-1] - v[0]
    members = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    while len(members) < n // 2 + 1:
        lo, hi = members[0], members[-1]
        if lo == 0:
            members.append(hi + 1)
        elif hi == n - 1:
            members.insert(0, lo - 1)
        elif v[hi + 1] - v[hi] > v[lo] - v[lo - 1]:
            members.insert(0, lo - 1)
        else:
            members.append(hi + 1)
    while True:
        lo, hi = members[0], members[-1]
        if lo == 0 and hi == n - 1:
            return set()
        max_interior = max(v[members[k]] - v[members[k - 1]]
                           for k in range(1, len(members)))
        if lo == 0:
            side = "high"
        elif hi == n - 1:
            side = "low"
        elif v[hi + 1] - v[hi] > v[lo] - v[lo - 1]:
            side = "low"
        else:
            side = "high"
        gap = v[lo] - v[lo - 1] if side == "low" else v[hi + 1] - v[hi]
        if (n - 1) * (gap - max_interior) / span >= c:
            low, high = v[lo], v[hi]
            return {j for j in range(n) if v[j] < low or v[j] > high}
        if side == "low":
            members.insert(0, lo - 1)
        else:
            members.append(hi + 1)


def resonate_loop(partner_sets, seed):
    """Set-based resonance run from one seed: ``(fired, silent)``.

    The seed fires; repeatedly, every partner of a fired cell fires,
    until nothing new fires.  The run is silent when no fired cell other
    than the seed lists the seed among its own partners (no return
    stimulus); a silent run reports fired = {seed}.
    """
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
        return frozenset({seed}), True
    return frozenset(fired), False


def cluster_all_loop(partner_sets):
    """Seed-by-seed :func:`gapsense.cluster_all`: one resonance run per
    seed, then per-point votes over every distinct fired set."""
    ids = sorted(partner_sets)
    n = len(ids)
    runs = {seed: resonate_loop(partner_sets, seed) for seed in ids}
    silent_ids = frozenset(s for s, (_, silent) in runs.items() if silent)

    votes, first_seed = {}, {}
    for seed in ids:
        fired, silent = runs[seed]
        if silent:
            continue
        votes[fired] = votes.get(fired, 0) + 1
        first_seed.setdefault(fired, seed)

    winner = {}
    for p in ids:
        containing = [sig for sig in votes if p in sig]
        if containing:
            winner[p] = max(containing,
                            key=lambda sig: (votes[sig], -first_seed[sig]))

    groups = {}
    for p, sig in winner.items():
        groups.setdefault(sig, []).append(p)
    ordered = sorted(groups.values(), key=min)

    labels = [None] * n
    summaries = []
    for cid, members in enumerate(ordered, start=1):
        members = sorted(members)
        for p in members:
            labels[p - 1] = cid
        member_set = frozenset(members)
        right = sum(1 for p in members
                    if not runs[p][1] and runs[p][0] == member_set)
        silent_members = tuple(p for p in members if p in silent_ids)
        summaries.append(ClusterSummary(
            cluster_id=cid, members=tuple(members), right_count=right,
            silent_members=silent_members,
            probability=right / len(members)))
    return ClusterPartition(labels=tuple(labels), silent_ids=silent_ids,
                            summary=tuple(summaries))
