"""Command-line front end: detect, compare, simulate, cluster.

Each ``cmd_*`` turns parsed arguments into report text; :func:`main`
writes every report, to stdout or to ``--output`` (UTF-8, LF line ends),
and diagnostics go to stderr.  Exit codes: 0 success, 2 usage error, 3
data error, numeric overflow or any OS error reading or writing a file.
GAPSENSE_SEED provides a fallback master seed when --seed is not given.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .baselines import MAD_CONSISTENCY, METHODS, run_method
from .datasets import (CatalogError, DataFormatError, TABLE_DATASETS,
                       builtin_dataset, load_points2d, load_univariate)
from .expanding import DEFAULT_THRESHOLD, Detection, Sensitivity
from .oscillator import PointSet, cluster_points
from .samples import Sample
from .serialize import (curves_to_csv, curves_to_dicts, detection_to_csv,
                        detection_to_dict, partition_to_csv, partition_to_dict,
                        to_json)
from .simulate import contamination_sweep, breakdown_curve, pure_normal_curve

USAGE_ERROR = 2
DATA_ERROR = 3


class UsageError(ValueError):
    """A bad option value or combination of options (exit 2)."""


def _fail(code: int, message: str) -> int:
    print(f"gapsense: error: {message}", file=sys.stderr)
    return code


def _sensitivity(args) -> Sensitivity:
    if args.K is not None:
        return Sensitivity.from_weber(args.K)
    if args.c is not None:
        return Sensitivity.from_threshold(args.c)
    return Sensitivity.from_threshold(DEFAULT_THRESHOLD)


def _load(name: str | None, path: str | None, kind: type) -> Sample | PointSet:
    """The bundled dataset ``name``, else the file at ``path``, as a
    ``kind`` (Sample or PointSet)."""
    if name is None:
        return load_univariate(path) if kind is Sample else load_points2d(path)
    data = builtin_dataset(name)
    if not isinstance(data, kind):
        raise UsageError(f"dataset {name!r} is not "
                         + ("univariate" if kind is Sample else "a point set"))
    return data


def _detect_text(det: Detection, sample: Sample, trace: bool) -> str:
    lines = [f"method: {det.method}  "
             + " ".join(f"{k}={v:g}" for k, v in det.params.items()),
             f"sample: {sample.label or '<stdin>'} (n={sample.n})"]
    if det.degenerate:
        lines.append("degenerate input (zero range): no outliers definable")
    if det.outlier_values:
        lines.append("outliers: "
                     + ", ".join(f"{v:g}" for v in det.outlier_values))
    else:
        lines.append("outliers: none")
    if det.normal_low is not None:
        lines.append(f"normal interval: [{det.normal_low:g}, "
                     f"{det.normal_high:g}]")
    if trace and det.trace:
        lines.append("trace (index side gap max_prev iir accepted):")
        for r in det.trace:
            lines.append(f"  {r.index:4d} {r.side:4s} {r.gap:12.6g} "
                         f"{r.max_prev:12.6g} {r.iir:10.4f} {r.accepted}")
    return "\n".join(lines) + "\n"


def cmd_detect(args) -> str:
    sample = _load(args.dataset, args.input, Sample)
    det = run_method(args.method, sample, _sensitivity(args), args.k,
                     args.whisker, args.b)
    if args.format == "json":
        return to_json(detection_to_dict(det))
    if args.format == "csv":
        return detection_to_csv(det)
    return _detect_text(det, sample, args.trace)


def cmd_compare(args) -> str:
    names = {}  # a name repeated in any case is one row, as first spelled
    for name in filter(None, map(str.strip, args.datasets.split(","))):
        names.setdefault(name.lower(), name)
    if not names:
        raise UsageError("no datasets given")
    sens = _sensitivity(args)
    columns = ("mean", "boxplot", "mad", "chauvenet", "iir")
    matrix: dict[str, dict[str, list[float]]] = {}
    for name in names.values():
        data = _load(name, None, Sample)
        matrix[name] = {m: list(run_method(m, data, sens).outlier_values)
                        for m in columns}
    if args.format == "json":
        return to_json({"columns": list(columns),
                        "threshold_c": sens.threshold_c, "rows": matrix})
    rows = [["", *columns]] + [
        [name, *(",".join(f"{v:g}" for v in row[m]) or "none" for m in columns)]
        for name, row in matrix.items()]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [" ".join(cell.ljust(w) for cell, w in zip(row, widths))
             for row in rows]
    lines.append("(chauvenet column is an extension beyond the classical "
                 "comparison set)")
    return "\n".join(lines) + "\n"


def _int(text: str, name: str) -> int:
    """``text`` as an integer, else a usage error naming ``name``."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {text!r}") from None


def _master_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GAPSENSE_SEED")
    return 0 if env is None else _int(env, "GAPSENSE_SEED")


#: The scenarios that each scenario-specific ``simulate`` option applies to.
_SCENARIO_OPTIONS = {"sizes": ("fig1c",), "g_mean": ("custom",),
                     "n": ("fig1a", "fig1b", "custom"),
                     "g_sd": ("fig1a", "fig1b", "custom")}


def cmd_simulate(args) -> str:
    if args.reps < 1:
        raise UsageError("--reps must be at least 1")
    for dest, scenarios in _SCENARIO_OPTIONS.items():
        if getattr(args, dest) is not None and args.scenario not in scenarios:
            raise UsageError(f"--{dest.replace('_', '-')} applies only to "
                             f"--scenario {', '.join(scenarios)}")
    if args.sizes is not None and not args.sizes.strip():
        raise UsageError("--sizes needs at least one sample size")
    seed = _master_seed(args)
    if args.scenario == "fig1c":
        sizes = [10, 50, 100, 500, 1000, 5000, 10000] if args.sizes is None \
            else [_int(s, "--sizes entry") for s in args.sizes.split(",")]
        points = pure_normal_curve(sizes, reps=args.reps, master_seed=seed)
    else:
        g_mean = {"fig1a": 10.0, "fig1b": 5.0}.get(args.scenario, args.g_mean)
        scenarios = contamination_sweep(
            n=500 if args.n is None else args.n,
            contaminant=(10.0 if g_mean is None else g_mean,
                         1.0 if args.g_sd is None else args.g_sd),
            reps=args.reps, master_seed=seed)
        points = breakdown_curve(scenarios)
    if args.format == "json":
        return to_json(curves_to_dicts(points))
    return curves_to_csv(points)


def cmd_cluster(args) -> str:
    data = _load(args.dataset, args.input, PointSet)
    part = cluster_points(data, _sensitivity(args), args.min_partners)
    if args.format == "json":
        return to_json(partition_to_dict(part))
    if args.format == "csv":
        return partition_to_csv(part)
    lines = [f"points: {data.n} ({data.label or args.input})",
             f"clusters: {part.n_clusters}"]
    for s in part.summary:
        lines.append(f"  cluster {s.cluster_id}: n={len(s.members)} "
                     f"right={s.right_count} ({100 * s.probability:.0f}%) "
                     f"silent={list(s.silent_members) or '-'}")
        lines.append("    members: " + " ".join(str(m) for m in s.members))
    unassigned = [i + 1 for i, lab in enumerate(part.labels) if lab is None]
    lines.append(f"silent seeds: {sorted(part.silent_ids) or '-'}")
    if unassigned:
        lines.append(f"unassigned points: {unassigned}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsense",
        description="Gap-based outlier detection, baselines, breakdown "
                    "simulation, and resonance clustering.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--dataset", help="bundled dataset name")
        grp.add_argument("--input", help="path to a numeric input file")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--output", help="write the report to a file")

    def add_sensitivity(p):
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--c", type=float,
                         help=f"score threshold in [0,2] (default "
                              f"{DEFAULT_THRESHOLD})")
        grp.add_argument("--K", type=float,
                         help="Weber fraction in [0,1] (alternative to --c)")

    p = sub.add_parser("detect", help="flag outliers in one dataset")
    add_io(p)
    p.add_argument("--method", choices=tuple(METHODS), default="iir")
    add_sensitivity(p)
    p.add_argument("--k", type=float, default=3.0,
                   help="multiplier for mean/mad methods")
    p.add_argument("--whisker", type=float, default=1.5)
    p.add_argument("--b", type=float, default=MAD_CONSISTENCY)
    p.add_argument("--trace", action="store_true",
                   help="print every evaluated gap record")

    p = sub.add_parser("compare", help="method-by-dataset outlier matrix")
    p.add_argument("--datasets", default=",".join(TABLE_DATASETS),
                   help="comma-separated bundled dataset names")
    add_sensitivity(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")

    p = sub.add_parser("simulate", help="breakdown and false-alarm curves")
    p.add_argument("--scenario", choices=("fig1a", "fig1b", "fig1c", "custom"),
                   default="custom")
    p.add_argument("--n", type=int)
    p.add_argument("--g-mean", type=float,
                   help="contaminant mean (custom scenario)")
    p.add_argument("--g-sd", type=float)
    p.add_argument("--sizes", help="comma-separated sample sizes (fig1c "
                   "only; default 10,50,100,500,1000,5000,10000)")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, help="master seed "
                   "(default GAPSENSE_SEED or 0)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")

    p = sub.add_parser("cluster", help="resonance clustering of 2-D points")
    add_io(p)
    p.add_argument("--min-partners", type=int, default=3)
    add_sensitivity(p)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command, write its report, return the exit code.  The
    parser is built on the first call; ``cmd_*`` is looked up per call."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        report = globals()["cmd_" + args.command](args)
        if args.output:
            Path(args.output).write_text(report, encoding="utf-8", newline="\n")
        else:
            sys.stdout.write(report)
        return 0
    except (CatalogError, DataFormatError, OSError) as exc:
        return _fail(DATA_ERROR, str(exc))
    except ValueError as exc:
        # usage errors, bad values (K/c out of range, undersized samples)
        return _fail(USAGE_ERROR, str(exc))
    except ArithmeticError as exc:
        return _fail(DATA_ERROR, f"numeric overflow: {exc}")


if __name__ == "__main__":
    sys.exit(main())
