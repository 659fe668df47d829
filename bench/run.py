"""gapsense benchmark: runs one workload through ``gapsense.cli.main``.

Run from the repository root::

    python3 bench/run.py --workload detect_cli --seed 7 --seconds 20 --trace 0

Everything runs in this one process, on one thread, against the package
under ``src/``.  The workload's inputs are generated from ``--seed`` into
``.bench_work/``; gapsense sees only those files and its CLI flags.

``--trace 0`` repeats whole cycles of the workload's CLI calls until
``--seconds`` have passed and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of cycles (set by ``--seconds`` and the
workload's nominal cycle cost) twice, first untraced and then with spans
around every public gapsense function, and reports the per-layer metrics.
``--smoke`` runs one cycle on tiny inputs, for the benchmark's own tests.

Every call's output is checked.  The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds run information (versions, core count, seed, commit, cluster
counts).  Both are also written to ``.bench_work/results/``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: the benchmark runs on one core

import argparse
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Op, Plan

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5


class Runner:
    """Calls the CLI in-process, times each call and checks its output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer: Tracer | None = None

    def call(self, op: Op, op_id: int = -1) -> float:
        cli = sys.modules["gapsense.cli"]  # looked up per call: tracing rebinds main
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op_id = op_id
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed call, not a crash
                rc = repr(exc)
            dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.end_op()
        self.attempted += 1
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[:200]}"
        else:
            try:
                problem = op.check(out.getvalue())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(op.argv)}: {problem}")
        return dt


def import_gapsense():
    """(Re)import the package from src/, never from anywhere else."""
    for name in [m for m in sys.modules if m.split(".")[0] == "gapsense"]:
        del sys.modules[name]
    cli = importlib.import_module("gapsense.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gapsense imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(build, seed: int, work: Path, smoke: bool, runner: Runner,
           repeats: int) -> tuple[Plan, float]:
    """Import, generate inputs and run the warm-up calls; median time."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        import_gapsense()
        plan = build(seed, work, smoke)
        for op in plan.warmup:
            runner.call(op)
        times.append(perf_counter() - t0)
    return plan, statistics.median(times)


def _quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(plan: Plan, runner: Runner, seconds: float, smoke: bool) -> dict:
    lat: list[float] = []
    detections = points = 0
    deadline = perf_counter() + seconds
    k = 0
    while True:
        op = plan.op(k)
        lat.append(runner.call(op))
        detections += op.detections
        points += op.points
        k += 1
        if k % plan.cycle_len == 0 and (smoke or perf_counter() >= deadline):
            break
    busy = sum(lat)
    p99 = _quantile(lat, 99)
    return {
        "metrics": {
            "call_p50_ms": 1e3 * _quantile(lat, 50),
            "call_p99_ms": 1e3 * p99,
            "calls_per_s": len(lat) / busy,
            "detections_per_s": detections / busy,
            "points_per_s": points / busy,
        },
        "info": {"calls": len(lat), "calls_beyond_p99": sum(x > p99 for x in lat),
                 "busy_s": busy},
        "latencies_s": lat,
    }


def traced_layers(plan: Plan, runner: Runner, seconds: float, smoke: bool,
                  spans_path: Path) -> dict:
    cycles = 1 if smoke else max(1, round(seconds / 2 / plan.cycle_s))
    count = cycles * plan.cycle_len
    untraced = sum(runner.call(plan.op(k)) for k in range(count))
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = sum(runner.call(plan.op(k), k) for k in range(count))
    finally:
        runner.tracer = None
        tracer.uninstall()
    tracer.write(spans_path)
    layers = tracer.layer_metrics()
    layers.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                   "trace.overhead_frac": (traced - untraced) / untraced})
    return {"metrics": layers, "info": {"calls": 2 * count, "cycles": cycles}}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the package sources, for checkouts without .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gapsense").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one cycle on tiny inputs (for the benchmark's tests)")
    args = ap.parse_args(argv)

    if not (SRC / "gapsense" / "__init__.py").is_file():
        print(f"bench: no gapsense package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)

    runner = Runner()
    repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
    plan, setup_s = set_up(WORKLOADS[args.workload], args.seed, work,
                           args.smoke, runner, repeats)
    for op in plan.reference:
        runner.call(op)

    name = f"{args.workload}-seed{args.seed}"
    if args.trace:
        (WORK / "spans").mkdir(exist_ok=True)
        run = traced_layers(plan, runner, args.seconds, args.smoke,
                            WORK / "spans" / f"{name}.json.gz")
    else:
        run = measure(plan, runner, args.seconds, args.smoke)
        run["metrics"]["setup_s"] = setup_s
        run["metrics"]["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": src_digest(),
        **run["info"], **plan.info, "errors": runner.errors,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    (WORK / "results" / f"{name}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result,
                    "latencies_s": run.get("latencies_s")}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
