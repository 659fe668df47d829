"""Tests of the benchmark itself: it runs, emits every declared metric, and
its output checks reject wrong answers.  No wall-clock bounds."""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import (GOLDEN_DIR, check_curves, check_detect_text,
                       check_detection, check_partition)

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _detect_json(tmp_path, values, method):
    from gapsense import cli
    path = tmp_path / "x.txt"
    path.write_text("\n".join(map(repr, values)) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["detect", "--input", str(path), "--method", method,
                         "--format", "json"]) == 0
    return json.loads(out.getvalue())


VALUES = sorted([0.1, -0.4, 0.3, 0.0, -0.2, 0.25, -0.1, 9.0, 9.5, 0.05])


@pytest.mark.parametrize("method", ["iir", "iir-high", "mean", "boxplot",
                                    "mad", "chauvenet"])
def test_detect_check_accepts_real_output_and_rejects_tampering(tmp_path, method):
    d = _detect_json(tmp_path, VALUES, method)
    assert check_detection(d, VALUES, method) is None
    lo, hi = d["normal_interval"]
    moved = dict(d, normal_interval=[lo, hi + 100.0])
    assert check_detection(moved, VALUES, method) is not None
    text = "outliers: none\nnormal interval: [0, 1]\n"
    if d["outliers"]:
        assert check_detect_text(text, d) is not None


def test_scan_check_rejects_a_wrong_score(tmp_path):
    d = _detect_json(tmp_path, VALUES, "iir")
    assert d["border"] is not None and len(d["trace"]) > 1
    bad = json.loads(json.dumps(d))
    bad["trace"][0]["iir"] += 1e-3
    assert check_detection(bad, VALUES, "iir") is not None


def test_curve_check_accepts_golden_and_rejects_recall_at_zero():
    text = (GOLDEN_DIR / "fig1a-seed42-reps2.csv").read_text()
    assert check_curves(text, "fig1a", 2) is None
    lines = text.splitlines()
    lines[1] += "50.000000"
    assert check_curves("\n".join(lines) + "\n", "fig1a", 2) is not None


def test_partition_check_rejects_overlap():
    good = {"labels": [1, 1, 2, None], "silent_ids": [4],
            "summary": [{"cluster": 1, "members": [1, 2], "right_count": 2,
                         "silent_members": [], "probability": 1.0},
                        {"cluster": 2, "members": [3], "right_count": 0,
                         "silent_members": [], "probability": 0.0}]}
    assert check_partition(good, 4) is None
    bad = json.loads(json.dumps(good))
    bad["summary"][1]["members"] = [2, 3]
    assert check_partition(bad, 4) is not None
