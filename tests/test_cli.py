import json
import os
import subprocess
import sys

import pytest

from gapsense import cli
from gapsense.baselines import MAD_CONSISTENCY
from gapsense.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- detect ---------------------------------------------------------------

def test_detect_cushny_default_method(capsys):
    code, out, _ = run(capsys, "detect", "--dataset", "cushny")
    assert code == 0
    assert "outliers: 4.6" in out


def test_detect_venus_at_higher_sensitivity(capsys):
    code, out, _ = run(capsys, "detect", "--dataset", "venus", "--K", "0.29",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert 1.01 in blob["outliers"] and -1.40 in blob["outliers"]


def test_detect_c_and_k_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--dataset", "cushny", "--c", "3", "--K", "0.1"])
    assert exc.value.code == 2


def test_detect_out_of_range_threshold_is_usage_error(capsys):
    code, _, err = run(capsys, "detect", "--dataset", "cushny", "--c", "3")
    assert code == 2
    assert "error" in err


def test_detect_no_outliers_still_succeeds(capsys):
    code, out, _ = run(capsys, "detect", "--dataset", "cushny",
                       "--method", "mean")
    assert code == 0
    assert "outliers: none" in out


def test_detect_trace_lists_records(capsys):
    code, out, _ = run(capsys, "detect", "--dataset", "venus", "--trace")
    assert code == 0
    assert "trace" in out and "high" in out


def test_detect_unknown_dataset_is_data_error(capsys):
    code, _, err = run(capsys, "detect", "--dataset", "nosuch")
    assert code == 3
    assert "valid names" in err


def test_detect_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect"])
    assert exc.value.code == 2


def test_detect_from_file(capsys, tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("1\n2\n3\n100\n1.5\n2.5\n")
    code, out, _ = run(capsys, "detect", "--input", str(p))
    assert code == 0
    assert "100" in out


@pytest.mark.parametrize("method", ["iir", "iir-high", "mean", "chauvenet"])
def test_detect_overflowing_range_is_data_error(capsys, tmp_path, method):
    p = tmp_path / "huge.txt"
    p.write_text("-1.7e308\n1.7e308\n0\n1\n2\n")
    code, out, err = run(capsys, "detect", "--input", str(p),
                         "--method", method)
    assert code == 3
    assert out == ""
    assert err.startswith("gapsense: error: numeric overflow: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["boxplot", "mad"])
def test_detect_overflowing_range_robust_methods_flag_extremes(
        capsys, tmp_path, method):
    p = tmp_path / "huge.txt"
    p.write_text("-1.7e308\n1.7e308\n0\n1\n2\n")
    code, out, _ = run(capsys, "detect", "--input", str(p),
                       "--method", method)
    assert code == 0
    assert "outliers: -1.7e+308, 1.7e+308" in out


OVERFLOWING_DEVIATIONS = {
    "iir": (3, "gapsense: error: numeric overflow: span must be finite, "
               "got inf\n"),
    "iir-high": (3, "gapsense: error: numeric overflow: span must be "
                    "finite, got inf\n"),
    "mean": (3, "gapsense: error: numeric overflow: mean -+ 3 sd leaves the "
                "double range\n"),
    "chauvenet": (3, "gapsense: error: numeric overflow: mean -+ 1.38299 sd "
                     "leaves the double range\n"),
    "boxplot": (0, "outliers: none\n"),
    "mad": (0, "outliers: -1.7e+308\n"),
}


@pytest.mark.parametrize("method", sorted(OVERFLOWING_DEVIATIONS))
def test_detect_overflowing_deviations_all_methods(capsys, tmp_path, method):
    # the deviations from the mean or median overflow, the values do not;
    # no RuntimeWarning may reach stderr on the way
    code, expect = OVERFLOWING_DEVIATIONS[method]
    p = tmp_path / "huge.txt"
    p.write_text("1.7e308\n1.7e308\n-1.7e308\n")
    got, out, err = run(capsys, "detect", "--input", str(p),
                        "--method", method)
    assert got == code
    if code:
        assert (out, err) == ("", expect)
    else:
        assert err == ""
        assert expect in out


@pytest.mark.parametrize("method", ["mean", "chauvenet"])
def test_detect_subnormal_spread_matches_scaled_data(capsys, tmp_path, method):
    # the squared deviations underflow to 0 unless they are scaled first;
    # the same data times 1e320 (0,0,0,1,1) flags nothing either
    p = tmp_path / "tiny.txt"
    p.write_text("0\n0\n0\n1e-320\n1e-320\n")
    code, out, _ = run(capsys, "detect", "--input", str(p),
                       "--method", method)
    assert code == 0
    assert "outliers: none" in out


def test_detect_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, "detect", "--input", "/does/not/exist.txt")
    assert code == 3


def test_detect_non_utf8_file_is_data_error(capsys, tmp_path):
    p = tmp_path / "latin.txt"
    p.write_bytes(b"1\n2\n\xff3\n")
    code, out, err = run(capsys, "detect", "--input", str(p))
    assert code == 3
    assert out == ""
    assert err == f"gapsense: error: {p}: not UTF-8 text (invalid start byte)\n"


# --- compare ----------------------------------------------------------------

REFERENCE_CELLS = {
    "rosner": {"mean": [], "boxplot": [40.0], "mad": [40.0], "iir": [40.0]},
    "barnett": {"mean": [], "boxplot": [], "mad": [949.0, 951.0],
                "iir": [949.0, 951.0]},
    "grubbs1": {"mean": [], "boxplot": [596.0], "mad": [584.0, 596.0],
                "iir": [596.0]},
    "grubbs3": {"mean": [], "boxplot": [], "mad": [], "iir": [2.02, 2.22]},
    "cushny": {"mean": [], "boxplot": [4.6], "mad": [4.6], "iir": [4.6]},
}


def test_compare_reproduces_reference_matrix(capsys):
    code, out, _ = run(capsys, "compare", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["columns"] == ["mean", "boxplot", "mad", "chauvenet", "iir"]
    for name, cells in REFERENCE_CELLS.items():
        for method, expected in cells.items():
            assert blob["rows"][name][method] == expected, (name, method)


def test_compare_text_output(capsys):
    code, out, _ = run(capsys, "compare", "--datasets", "barnett")
    assert code == 0
    assert "none" in out and "949,951" in out


def test_compare_unknown_dataset(capsys):
    code, _, err = run(capsys, "compare", "--datasets", "rosner,nosuch")
    assert code == 3


# --- simulate ------------------------------------------------------------------

def test_simulate_deterministic_bytes(capsys):
    args = ("simulate", "--scenario", "fig1b", "--reps", "3", "--seed", "42")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "x,method,detected_pct,stderr,recall_pct"
    assert len(lines) == 1 + 50 * 3  # 50 contamination steps x 3 methods


def test_simulate_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("GAPSENSE_SEED", "7")
    code1, out1, _ = run(capsys, "simulate", "--scenario", "fig1c",
                         "--sizes", "10,20", "--reps", "2")
    code2, out2, _ = run(capsys, "simulate", "--scenario", "fig1c",
                         "--sizes", "10,20", "--reps", "2", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("scenario", ["custom", "fig1a", "fig1b"])
def test_simulate_sizes_outside_fig1c_is_usage_error(capsys, scenario):
    for sizes in ("10,20", ""):
        code, out, err = run(capsys, "simulate", "--scenario", scenario,
                             "--sizes", sizes, "--reps", "1")
        assert code == 2
        assert out == ""
        assert "--sizes" in err


def test_simulate_empty_sizes_is_usage_error(capsys):
    code, out, err = run(capsys, "simulate", "--scenario", "fig1c",
                         "--sizes", "", "--reps", "1")
    assert code == 2
    assert out == ""
    assert err == "gapsense: error: --sizes needs at least one sample size\n"


@pytest.mark.parametrize("sizes, entry", [("10,,20", "''"), ("10,x", "'x'")])
def test_simulate_bad_sizes_entry_is_usage_error(capsys, sizes, entry):
    code, out, err = run(capsys, "simulate", "--scenario", "fig1c",
                         "--sizes", sizes, "--reps", "1")
    assert code == 2
    assert out == ""
    assert err == ("gapsense: error: --sizes entry must be an integer, "
                   f"got {entry}\n")


def test_simulate_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("GAPSENSE_SEED", "notanumber")
    code, _, err = run(capsys, "simulate", "--reps", "1")
    assert code == 2


def test_simulate_zero_reps_is_usage_error(capsys):
    code, _, err = run(capsys, "simulate", "--scenario", "fig1a", "--reps", "0")
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--g-mean", "nan"), ("--g-mean", "inf"), ("--g-mean", "-inf"),
    ("--g-sd", "nan"), ("--g-sd", "inf")])
def test_simulate_non_finite_contaminant_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "simulate", "--n", "20", "--reps", "2",
                         flag + "=" + value)
    assert code == 2
    assert out == ""
    assert err.startswith("gapsense: error: contaminant needs a finite mean "
                          "and a finite positive sd")


def test_simulate_overflowing_contaminant_exits_2():
    # a subprocess, as a user runs it: the score still overflows (with
    # numpy warnings on stderr) before the draws reach a non-finite value
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from gapsense.cli import main; sys.exit(main())",
         "simulate", "--n", "20", "--reps", "2", "--g-mean", "1e308",
         "--g-sd", "1e308"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "gapsense: error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_writes_output_file(capsys, tmp_path):
    dest = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "simulate", "--scenario", "fig1c",
                       "--sizes", "10", "--reps", "2", "--seed", "1",
                       "--output", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("x,method,")


# --- cluster ----------------------------------------------------------------------

def test_cluster_two_groups_from_file(capsys, tmp_path):
    p = tmp_path / "pairs.csv"
    rows = [(0, 0), (1, 0), (0, 1), (1, 1),
            (80, 80), (81, 80), (80, 81), (81, 81)]
    p.write_text("".join(f"{x},{y}\n" for x, y in rows))
    code, out, _ = run(capsys, "cluster", "--input", str(p),
                       "--min-partners", "3")
    assert code == 0
    assert "clusters: 2" in out
    assert "members: 1 2 3 4" in out
    assert "members: 5 6 7 8" in out


def test_cluster_json_schema(capsys, tmp_path):
    p = tmp_path / "pairs.csv"
    rows = [(0, 0), (1, 0), (0, 1), (1, 1),
            (80, 80), (81, 80), (80, 81), (81, 81)]
    p.write_text("".join(f"{x},{y}\n" for x, y in rows))
    code, out, _ = run(capsys, "cluster", "--input", str(p),
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"labels", "silent_ids", "summary"}
    assert len(blob["labels"]) == 8


def test_cluster_ruspini_runs(capsys):
    code, out, _ = run(capsys, "cluster", "--dataset", "ruspini")
    assert code == 0
    assert "points: 75" in out


def test_cluster_overflowing_distances_is_data_error(capsys, tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text("1e308,0\n-1e308,0\n0,0\n1,0\n2,0\n")
    code, out, err = run(capsys, "cluster", "--input", str(p),
                         "--min-partners", "1")
    assert code == 3
    assert out == ""
    assert err == "gapsense: error: numeric overflow: span must be finite, " \
                  "got inf\n"


def test_cluster_malformed_file(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3\n")
    code, _, err = run(capsys, "cluster", "--input", str(p))
    assert code == 3


def test_cluster_non_utf8_file_is_data_error(capsys, tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"0,0\n1,1\n2,\xff2\n")
    code, out, err = run(capsys, "cluster", "--input", str(p))
    assert code == 3
    assert out == ""
    assert err == f"gapsense: error: {p}: not UTF-8 text (invalid start byte)\n"


def test_cluster_univariate_dataset_rejected(capsys):
    code, _, err = run(capsys, "cluster", "--dataset", "cushny")
    assert code == 2


def test_cluster_too_few_points_for_floor(capsys, tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("0,0\n1,1\n2,2\n")
    for floor in ("3", "0"):
        code, out, err = run(capsys, "cluster", "--input", str(p),
                             "--min-partners", floor)
        assert code == 2
        assert out == ""
        assert err.startswith("gapsense: error: ")
        assert err.count("\n") == 1


# --- one parser per process -------------------------------------------------

CACHED_PARSER_CALLS = [
    (["detect"], 2), (["nosuch"], 2), (["--help"], 0), (["detect", "--help"], 0),
    (["--version"], 0), (["detect", "--dataset", "cushny"], 0), (["compare"], 0),
    (["simulate", "--reps", "2"], 0), (["cluster", "--dataset", "ruspini"], 0),
]


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    monkeypatch.delenv("GAPSENSE_SEED", raising=False)

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    first, second = ([call(argv) for argv, _ in CACHED_PARSER_CALLS]
                     for _ in range(2))
    assert first == second
    assert [c[0] for c in first] == [code for _, code in CACHED_PARSER_CALLS]
    assert all(out or err for _, out, err in first)
    # the command function is looked up per call, not bound to the parser
    seen = []
    monkeypatch.setattr(cli, "cmd_detect",
                        lambda args: seen.append(args.dataset) or 7)
    assert main(["detect", "--dataset", "cushny"]) == 7
    assert seen == ["cushny"]
    assert built == [1]


def test_mad_b_defaults_to_the_consistency_constant():
    args = cli.build_parser().parse_args(["detect", "--dataset", "cushny"])
    assert args.b == MAD_CONSISTENCY
