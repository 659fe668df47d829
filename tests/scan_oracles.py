"""Reference implementations of the expanding scans, one Python loop each.

The package scores a whole gap sequence at once; these loops walk it gap
by gap, keeping the running maximum by hand, and are what the property
tests compare the package against, record for record.
"""
import math
from dataclasses import replace

from gapsense import Detection, IirRecord, PartnerSet, iir_closed_form


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
    v, n = sample.values, sample.n
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
    v, n = sample.values, sample.n
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


def partner_set_loop(dm, i, sens, min_partners):
    """Gap-by-gap :func:`gapsense.partner_set` (arguments already valid)."""
    n = dm.n
    row = dm.row(i)
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
