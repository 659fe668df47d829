"""The four benchmark workloads: seeded inputs, CLI call schedules, output checks.

Every workload is a cycle of ``gapsense`` CLI calls (argv lists) over
files generated from the workload seed.  Each call carries a check that
returns ``None`` when the output is right, or a message saying what is
wrong.  The checks recompute what they can with their own code (numpy and
the standard library), never with gapsense.

Why these workloads:

* ``simulate_sweep`` -- Monte Carlo curves (fig1a breakdown sweep, fig1c
  false alarms): many mid-size to large samples through sample
  construction, the expanding scan, the baselines and the simulation
  loop.  Vectorized scans and reps x n batching must show here.
* ``detect_cli`` -- many small-to-medium ``detect --trace`` calls and
  ``compare``: per-call overhead, file parsing, trace rendering and JSON
  output.  Batching buys nothing here.
* ``cluster_blobs`` -- Ruspini and well-separated Gaussian blobs:
  closures stay inside one blob, so distances and partner-set scans
  dominate.
* ``cluster_noise`` -- uniform noise: many points find no border and
  every resonance closure floods to nearly all points, so closure and
  voting dominate.  Graph-reachability clustering targets exactly this.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

C_DEFAULT = 1.81
DETECT_METHODS = ("iir", "iir-high", "mean", "boxplot", "mad", "chauvenet")
COMPARE_COLUMNS = ("mean", "boxplot", "mad", "chauvenet", "iir")
TABLE_DATASETS = ("rosner", "barnett", "grubbs1", "grubbs3", "cushny")
CURVE_HEADER = ["x", "method", "detected_pct", "stderr", "recall_pct"]
SIM_METHODS = ("iir", "boxplot", "mad")
FIG1C_SIZES = (10, 50, 100, 500, 1000, 5000, 10000)

#: Replications per simulate call, and the seed whose curves must match the
#: stored CSV files in ``golden/`` byte for byte.
SIM_REPS = 2
GOLDEN_SEED = 42
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

Check = Callable[[str], "str | None"]


@dataclass
class Op:
    """One CLI call, its output check, and the work it stands for."""

    argv: list[str]
    check: Check
    detections: int
    points: int


@dataclass
class Plan:
    """What one workload runs: set-up calls, reference calls and the cycle.

    ``warmup`` runs inside every timed set-up; ``reference`` runs once,
    untimed, to give later checks their expected values; ``op(k)`` is the
    k-th call of the measured loop, which repeats every ``cycle_len``
    calls.  ``cycle_s`` is the nominal cost of one cycle, used to size
    fixed-work traced runs.
    """

    warmup: list[Op]
    reference: list[Op]
    op: Callable[[int], Op]
    cycle_len: int
    cycle_s: float
    info: dict = field(default_factory=dict)


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= 1e-9 * (abs(a) + abs(b) + scale)


def _fmt(x: float) -> str:
    return f"{x:g}"


def _write_values(path: Path, values) -> list[float]:
    text = "\n".join(repr(float(v)) for v in values) + "\n"
    path.write_text(text, encoding="utf-8")
    return sorted(float(v) for v in text.split())


def _write_points(path: Path, pts: np.ndarray) -> None:
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in pts.tolist()),
                    encoding="utf-8")


# ---------------------------------------------------------------- detectors

def reference_interval(method: str, values: list[float]) -> tuple[float, float]:
    """Normal interval of a baseline method at its CLI defaults."""
    x = np.asarray(values)
    n = len(x)
    if method == "boxplot":
        q1 = float(np.median(x[: (n + 1) // 2]))
        q3 = float(np.median(x[n // 2:]))
        return q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    if method == "mad":
        med = float(np.median(x))
        madn = 1.4826 * float(np.median(np.abs(x - med)))
        return med - 3.0 * madn, med + 3.0 * madn
    m = float(x.mean())
    sd = float(x.std(ddof=1))
    z = 3.0 if method == "mean" else NormalDist().inv_cdf(1.0 - 0.25 / n)
    return m - z * sd, m + z * sd


def _check_scan(d: dict, values: list[float], method: str) -> str | None:
    n = len(values)
    span = values[-1] - values[0]
    c = d["params"].get("c")
    if c != C_DEFAULT:
        return f"threshold {c} is not the default {C_DEFAULT}"
    if len(d["outliers"]) > n - (n // 2 + 1):
        return f"{len(d['outliers'])} of {n} values flagged, a majority"
    trace, border = d["trace"], d["border"]
    for r in trace:
        i = r["index"]
        if not 1 <= i < n:
            return f"record index {i} outside 1..{n - 1}"
        scale = (n - 1) * (abs(r["gap"]) + abs(r["max_prev"])) / span
        if not _close(r["gap"], values[i] - values[i - 1]):
            return f"record {i}: gap {r['gap']} is not values[i]-values[i-1]"
        if not _close(r["iir"], (n - 1) * (r["gap"] - r["max_prev"]) / span, scale):
            return f"record {i}: iir {r['iir']} != (n-1)(gap-max_prev)/span"

    def stops(r):
        return r["iir"] >= c and (method == "iir" or r["index"] > n / 2)

    if border is None:
        if d["outliers"]:
            return "outliers flagged without a border"
        if any(stops(r) for r in trace):
            return "a record reached the threshold but no border was set"
        return None
    if not trace or trace[-1] != border:
        return "border is not the last trace record"
    if not stops(border):
        return f"border score {border['iir']} does not stop the scan"
    if any(stops(r) for r in trace[:-1]):
        return "an earlier record already reached the threshold"
    if method == "iir-high" and d["outliers"] != values[border["index"]:]:
        return "high-side outliers are not the values from the border up"
    return None


def check_detection(d: dict, values: list[float], method: str) -> str | None:
    """Properties every ``detect --format json`` report must have."""
    if d["method"] != method:
        return f"method {d['method']!r}, asked for {method!r}"
    if d["normal_interval"] is None:
        return "no normal interval"
    lo, hi = d["normal_interval"]
    if d["outliers"] != [v for v in values if v < lo or v > hi]:
        return "outliers are not exactly the values outside normal_interval"
    if [values[i] for i in d["outlier_indices"]] != d["outliers"]:
        return "outlier_indices do not point at the outliers"
    if method in ("iir", "iir-high"):
        return _check_scan(d, values, method)
    if d["trace"] or d["border"] is not None:
        return "baseline report carries a scan trace"
    ref = reference_interval(method, values)
    if not (_close(lo, ref[0], abs(ref[1] - ref[0]))
            and _close(hi, ref[1], abs(ref[1] - ref[0]))):
        return f"normal interval {[lo, hi]} differs from reference {list(ref)}"
    return None


def _text_field(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def check_detect_text(text: str, twin: dict | None) -> str | None:
    """A text report must flag what its JSON twin flags, and show its trace."""
    if twin is None:
        return "JSON twin failed, nothing to compare with"
    want = ", ".join(_fmt(v) for v in twin["outliers"]) or "none"
    if _text_field(text, "outliers: ") != want:
        return "text outliers differ from the JSON twin"
    lo, hi = twin["normal_interval"]
    if _text_field(text, "normal interval: ") != f"[{_fmt(lo)}, {_fmt(hi)}]":
        return "text normal interval differs from the JSON twin"
    lines = text.splitlines()
    if twin["trace"]:
        head = [i for i, ln in enumerate(lines) if ln.startswith("trace (")]
        if not head or len(lines) - head[0] - 1 != len(twin["trace"]):
            return "text trace does not list every JSON trace record"
    return None


# --------------------------------------------------------- simulate_sweep

def check_curves(text: str, scenario: str, reps: int) -> str | None:
    """Shape and range checks of a ``simulate --format csv`` report."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CURVE_HEADER:
        return "missing or wrong CSV header"
    xs = ([str(s) for s in FIG1C_SIZES] if scenario == "fig1c"
          else [_fmt(100.0 * (i / 100.0)) for i in range(50)])
    want = [(x, m) for x in xs for m in SIM_METHODS]
    if [(r[0], r[1]) for r in rows[1:]] != want:
        return "rows are not one per (x, method) in sweep order"
    for x, _, det, se, rec in rows[1:]:
        if not 0.0 <= float(det) <= 100.0 or not 0.0 <= float(se) <= 100.0:
            return f"x={x}: detected or stderr outside [0, 100]"
        if reps == 1 and float(se) != 0.0:
            return f"x={x}: nonzero stderr from one replication"
        no_contaminants = scenario == "fig1c" or x == "0"
        if (rec == "") != no_contaminants:
            return f"x={x}: recall must be empty exactly at 0% contamination"
        if rec and not 0.0 <= float(rec) <= 100.0:
            return f"x={x}: recall outside [0, 100]"
    return None


def _sim_op(scenario: str, seed: int, golden: str | None = None) -> Op:
    def check(out: str) -> str | None:
        if golden is not None:
            return None if out == golden else \
                f"{scenario} seed {seed} CSV differs from golden/"
        return check_curves(out, scenario, SIM_REPS)
    if scenario == "fig1c":
        samples = len(FIG1C_SIZES) * SIM_REPS
        points = sum(FIG1C_SIZES) * SIM_REPS
    else:
        samples = 50 * SIM_REPS  # 0..49% contamination, n=500 each
        points = samples * 500
    argv = ["simulate", "--scenario", scenario, "--reps", str(SIM_REPS),
            "--seed", str(seed)]
    return Op(argv, check, detections=samples * len(SIM_METHODS), points=points)


SIM_SCENARIOS = ("fig1a", "fig1b", "fig1c")


def simulate_sweep(seed: int, work: Path, smoke: bool) -> Plan:
    golden = [_sim_op(s, GOLDEN_SEED, (GOLDEN_DIR / f"{s}-seed{GOLDEN_SEED}"
                                       f"-reps{SIM_REPS}.csv").read_text())
              for s in SIM_SCENARIOS]
    n = len(SIM_SCENARIOS)
    return Plan(warmup=golden, reference=[],
                # a fresh --seed per call, so no call repeats an earlier one
                op=lambda k: _sim_op(SIM_SCENARIOS[k % n], seed * 1_000_003 + k),
                cycle_len=n, cycle_s=0.25)


# --------------------------------------------------------------- detect_cli

DETECT_SIZES = (8, 13, 22, 36, 60, 100, 165, 270, 450, 740, 1220, 2000)
# (contaminated fraction, contaminant mean) of the two files of each size;
# fixed, so that the seed changes the values but not the amount of work
DETECT_MIXES = ((0.05, 10.0), (0.12, 5.0))


def contaminated_normal(rng: np.random.Generator, n: int, frac: float,
                        mu: float) -> np.ndarray:
    """N(0,1) values with a fraction ``frac`` replaced by N(mu,1) draws."""
    x = rng.normal(0.0, 1.0, n)
    m = int(round(n * frac))
    x[:m] = rng.normal(mu, 1.0, m)
    rng.shuffle(x)
    return x


def _detect_ops(path: Path, values: list[float], method: str) -> list[Op]:
    twin: dict = {}

    def check_json(out: str) -> str | None:
        twin.clear()
        d = json.loads(out)
        err = check_detection(d, values, method)
        if err is None:
            twin.update(d)
        return err

    base = ["detect", "--input", str(path), "--method", method, "--trace"]
    n = len(values)
    return [Op(base + ["--format", "json"], check_json, 1, n),
            Op(base + ["--format", "text"],
               lambda out: check_detect_text(out, twin or None), 1, n)]


def _compare_ops(expected: dict[str, dict[str, list[float]]],
                 sizes: dict[str, int]) -> list[Op]:
    names = ",".join(TABLE_DATASETS)

    def check_json(out: str) -> str | None:
        d = json.loads(out)
        if d["columns"] != list(COMPARE_COLUMNS) or d["threshold_c"] != C_DEFAULT:
            return "compare columns or threshold changed"
        if d["rows"] != expected:
            return "compare cells differ from the detect reports of the same data"
        return None

    def check_text(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) <= len(TABLE_DATASETS) or \
                lines[0].split() != list(COMPARE_COLUMNS):
            return "compare text header changed"
        for name, line in zip(TABLE_DATASETS, lines[1:]):
            want = [name] + [",".join(_fmt(v) for v in expected[name][m]) or "none"
                             for m in COMPARE_COLUMNS]
            if line.split() != want:
                return f"compare text row {name} differs from the detect reports"
        return None

    work = len(TABLE_DATASETS) * len(COMPARE_COLUMNS)
    points = sum(sizes.values())
    argv = ["compare", "--datasets", names]
    return [Op(argv + ["--format", "json"], check_json, work, points),
            Op(argv + ["--format", "text"], check_text, work, points)]


def detect_cli(seed: int, work: Path, smoke: bool) -> Plan:
    from gapsense.datasets import builtin_dataset  # input data only

    rng = np.random.default_rng([seed, 2])
    sizes = DETECT_SIZES[:3] if smoke else DETECT_SIZES
    ops: list[Op] = []
    for variant, (frac, mu) in enumerate(DETECT_MIXES[:1] if smoke
                                         else DETECT_MIXES):
        for n in sizes:
            path = work / f"normal-{n}-{variant}.txt"
            values = _write_values(path, contaminated_normal(rng, n, frac, mu))
            for method in DETECT_METHODS:
                ops += _detect_ops(path, values, method)

    expected: dict[str, dict[str, list[float]]] = {}
    table_sizes: dict[str, int] = {}
    reference: list[Op] = []
    for name in TABLE_DATASETS:
        values = [float(v) for v in builtin_dataset(name).values]
        table_sizes[name] = len(values)
        expected[name] = {}
        for method in COMPARE_COLUMNS:
            reference.append(_reference_op(name, method, values,
                                           expected[name]))
    ops += _compare_ops(expected, table_sizes)
    return Plan(warmup=ops[:2], reference=reference,
                op=lambda k: ops[k % len(ops)], cycle_len=len(ops),
                cycle_s=0.15 if smoke else 1.7)


def _reference_op(name: str, method: str, values: list[float],
                  into: dict[str, list[float]]) -> Op:
    def check(out: str) -> str | None:
        d = json.loads(out)
        err = check_detection(d, values, method)
        if err is None:
            into[method] = d["outliers"]
        return err
    return Op(["detect", "--dataset", name, "--method", method,
               "--format", "json"], check, 1, len(values))


# ----------------------------------------------------------------- clusters

def check_partition(d: dict, n: int) -> str | None:
    """Labels and summaries of ``cluster --format json`` must agree."""
    labels, summary = d["labels"], d["summary"]
    if len(labels) != n:
        return f"{len(labels)} labels for {n} points"
    k = len(summary)
    if [s["cluster"] for s in summary] != list(range(1, k + 1)):
        return "cluster ids are not 1..k in order"
    if any(lab is not None and not 1 <= lab <= k for lab in labels):
        return "a label is neither null nor a cluster id"
    silent = set(d["silent_ids"])
    if not silent <= set(range(1, n + 1)):
        return "silent ids outside 1..n"
    seen: set[int] = set()
    for s in summary:
        members = s["members"]
        if not members or seen & set(members):
            return f"cluster {s['cluster']} is empty or overlaps another"
        seen |= set(members)
        if any(labels[p - 1] != s["cluster"] for p in members):
            return f"cluster {s['cluster']} members carry other labels"
        if s["silent_members"] != [p for p in members if p in silent]:
            return f"cluster {s['cluster']} silent members are wrong"
        if not 0 <= s["right_count"] <= len(members) or not _close(
                s["probability"], s["right_count"] / len(members)):
            return f"cluster {s['cluster']} right count or probability is wrong"
    if seen != {i + 1 for i, lab in enumerate(labels) if lab is not None}:
        return "summaries do not cover exactly the labelled points"
    return None


def _cluster_op(path: Path, n: int, label: str, found: dict) -> Op:
    def check(out: str) -> str | None:
        d = json.loads(out)
        err = check_partition(d, n)
        if err is None:
            found[label] = len(d["summary"])
        return err
    return Op(["cluster", "--input", str(path), "--format", "json"], check,
              detections=n, points=n)


def blobs(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k unit-variance Gaussian blobs on a jittered grid 25 units apart."""
    g = math.ceil(math.sqrt(k))
    cells = rng.permutation(g * g)[:k]
    centers = np.stack([cells % g, cells // g], axis=1) * 25.0
    centers += rng.uniform(-3.0, 3.0, centers.shape)
    return centers[np.arange(n) % k] + rng.normal(0.0, 1.0, (n, 2))


BLOB_SETS = ((150, 3), (200, 4), (250, 5), (300, 6), (350, 7), (400, 8))
NOISE_SIZES = (260, 280, 300, 320, 340, 360, 380, 400)


def _cluster_plan(inputs: list[tuple[str, np.ndarray]], work: Path,
                  cycle_s: float) -> Plan:
    found: dict[str, int] = {}
    ops = []
    for label, pts in inputs:
        path = work / f"{label}.txt"
        _write_points(path, pts)
        ops.append(_cluster_op(path, len(pts), label, found))
    return Plan(warmup=ops[:1], reference=[], op=lambda k: ops[k % len(ops)],
                cycle_len=len(ops), cycle_s=cycle_s,
                info={"clusters_found": found})


def cluster_blobs(seed: int, work: Path, smoke: bool) -> Plan:
    from importlib import resources  # the bundled Ruspini file is input data

    ruspini = resources.files("gapsense.data").joinpath("ruspini.csv")
    rows = [ln.split(",") for ln in ruspini.read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]
    inputs = [("ruspini", np.array(rows, dtype=float))]
    rng = np.random.default_rng([seed, 3])
    for n, k in ((40, 2),) if smoke else BLOB_SETS:
        inputs.append((f"blobs-{n}-k{k}", blobs(rng, n, k)))
    return _cluster_plan(inputs, work, 0.05 if smoke else 0.75)


def cluster_noise(seed: int, work: Path, smoke: bool) -> Plan:
    rng = np.random.default_rng([seed, 4])
    inputs = [(f"noise-{n}", rng.random((n, 2)))
              for n in ((40, 50) if smoke else NOISE_SIZES)]
    return _cluster_plan(inputs, work, 0.05 if smoke else 5.5)


WORKLOADS = {
    "simulate_sweep": simulate_sweep,
    "detect_cli": detect_cli,
    "cluster_blobs": cluster_blobs,
    "cluster_noise": cluster_noise,
}
