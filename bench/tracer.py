"""Span tracing of gapsense's public functions, installed from outside the package.

:meth:`Tracer.install` replaces every public function and public method of
the traced modules with a wrapper, in every gapsense namespace that binds
it (``cli.cluster_all``, ``simulate.detect_two_sided``,
``Sample.from_iterable`` ...).  Each wrapped call appends one span
(name, start, end, parent span, op id) to flat arrays kept in memory;
:meth:`Tracer.write` stores them when the run ends, and
:meth:`Tracer.layer_metrics` turns them into per-layer self times plus the
counts that the result hooks below collect.
"""
from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("samples", "expanding", "baselines", "simulate", "oscillator",
           "datasets", "serialize", "cli")

# Scored once per candidate gap, so a span would cost about as much as the
# call itself and swamp its caller's self time: calls are counted, not spanned.
COUNT_ONLY = {"expanding.iir_closed_form": "expanding.scores_computed"}


def _scan_result(counts, args, det):
    counts["expanding.scan_calls"] += 1
    counts["expanding.gaps_scored"] += len(det.trace)
    counts["expanding.borders"] += det.border is not None


def _two_sided(counts, args, det):
    counts["expanding.two_sided_calls"] += 1
    _scan_result(counts, args, det)


def _partner_sets(counts, args, sets):
    for ps in sets.values():
        counts["oscillator.partner_links"] += len(ps.partners)
        counts["oscillator.no_border"] += math.isinf(ps.radius)
    counts["oscillator.partner_owners"] += len(sets)


def _resonate(counts, args, run):
    counts["oscillator.resonate_calls"] += 1
    counts["oscillator.fired_total"] += len(run.fired)
    if not run.silent:
        counts["oscillator.nonsilent_runs"] += 1
        counts.closures.add(run.fired)


def _points_parsed(counts, args, data):
    if hasattr(data, "points"):
        counts["datasets.values_parsed"] += data.n * data.dim
    else:
        counts["datasets.values_parsed"] += data.n


def _text_out(counts, args, text):
    counts["serialize.bytes_out"] += len(text.encode("utf-8"))


HOOKS = {
    "samples.Sample.from_iterable":
        lambda counts, args, s: counts.add("samples.values_in", s.n),
    "expanding.detect_two_sided": _two_sided,
    "expanding.detect_high_side": _scan_result,
    "simulate.polar_normals":
        lambda counts, args, z: counts.add("simulate.variates_drawn", len(z)),
    "oscillator.all_partner_sets": _partner_sets,
    "oscillator.resonate": _resonate,
    "datasets.load_univariate": _points_parsed,
    "datasets.load_points2d": _points_parsed,
    "datasets.builtin_dataset": _points_parsed,
    "serialize.to_json": _text_out,
    "serialize.curves_to_csv": _text_out,
    "serialize.detection_to_csv": _text_out,
    "serialize.partition_to_csv": _text_out,
}

# Inclusive time of one function (its own work plus everything it calls).
INCLUSIVE = {
    "samples.from_iterable_s": ("samples.Sample.from_iterable",),
    "expanding.two_sided_s": ("expanding.detect_two_sided",),
    "expanding.high_side_s": ("expanding.detect_high_side",),
    "baselines.boxplot_s": ("baselines.boxplot_detect",),
    "baselines.mad_s": ("baselines.mad_detect",),
    "baselines.mean_sigma_s": ("baselines.mean_sigma_detect",),
    "baselines.chauvenet_s": ("baselines.chauvenet_detect",),
    "simulate.variates_s": ("simulate.contaminated_sample",),
    "oscillator.distances_s": ("oscillator.pairwise_distances",),
    "oscillator.partner_sets_s": ("oscillator.all_partner_sets",),
    "oscillator.resonate_s": ("oscillator.resonate",),
}
# Self time of the named functions: their own code, excluding traced callees.
SELF = {
    "simulate.curve_self_s": ("simulate.breakdown_curve",
                              "simulate.pure_normal_curve"),
    "oscillator.vote_self_s": ("oscillator.cluster_all",),
}
# Self time of every span of one module; these eight sum to trace.self_sum_s.
MODULE_SELF = {
    "samples.self_s": "samples", "expanding.self_s": "expanding",
    "baselines.self_s": "baselines", "simulate.self_s": "simulate",
    "oscillator.self_s": "oscillator", "datasets.load_s": "datasets",
    "serialize.encode_s": "serialize", "cli.main_self_s": "cli",
}


class Counts(defaultdict):
    """Per-run counters, plus the distinct fired sets of the current op."""

    def __init__(self):
        super().__init__(float)
        self.closures = set()

    def add(self, key, amount):
        self[key] += amount


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Records spans around gapsense's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = Counts()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            counts, key = self.counts, COUNT_ONLY[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        counts, stack = self.counts, self.stack
        name_of, parent, op = self.name_of, self.parent, self.op
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        mods = {short: sys.modules[f"gapsense.{short}"] for short in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    wrapped[id(val)] = self._wrap(val, f"{short}.{attr}")
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._wrap_methods(val, f"{short}.{attr}")
        for mod in [sys.modules["gapsense"], *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrapped:
                    self._set(mod, attr, wrapped[id(val)])

    def _wrap_methods(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def end_op(self) -> None:
        """Fold the per-op state into the counters after each CLI call."""
        self.counts["oscillator.distinct_closures"] += len(self.counts.closures)
        self.counts.closures.clear()

    def write(self, path) -> None:
        """Store every span as gzipped JSON columns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name_of.tolist(),
                       "parent": self.parent.tolist(), "op": self.op.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist()},
                      fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (seconds) and counts over every recorded span."""
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]

        out = {k: sum(incl[f] for f in fns) for k, fns in INCLUSIVE.items()}
        out.update({k: sum(own[f] for f in fns) for k, fns in SELF.items()})
        for key, short in MODULE_SELF.items():
            out[key] = sum((t for name, t in own.items()
                            if name.split(".", 1)[0] == short), 0.0)
        c = self.counts
        out.update({
            "samples.values_in": c["samples.values_in"],
            "expanding.two_sided_calls": c["expanding.two_sided_calls"],
            "expanding.gaps_scored": c["expanding.gaps_scored"],
            "expanding.scores_computed": c["expanding.scores_computed"],
            "expanding.border_ratio": _ratio(c["expanding.borders"],
                                             c["expanding.scan_calls"]),
            "simulate.variates_drawn": c["simulate.variates_drawn"],
            "oscillator.partner_links": c["oscillator.partner_links"],
            "oscillator.no_border_ratio": _ratio(c["oscillator.no_border"],
                                                 c["oscillator.partner_owners"]),
            "oscillator.resonate_calls": c["oscillator.resonate_calls"],
            "oscillator.fired_total": c["oscillator.fired_total"],
            "oscillator.distinct_closure_ratio": _ratio(
                c["oscillator.distinct_closures"], c["oscillator.nonsilent_runs"]),
            "datasets.values_parsed": c["datasets.values_parsed"],
            "serialize.bytes_out": c["serialize.bytes_out"],
            "trace.spans": float(n),
            "trace.self_sum_s": sum(own.values()),
        })
        return out
