"""Golden outputs of the command line: every command in every format, the
usage and data errors, the overflow cases, each ``--help`` and
``--version``.

Each case in :data:`CASES` is one argv run in-process through
:func:`gapsense.cli.main`.  ``cli_golden.json`` stores, per case, the exit
code, the sha256 of stdout and the stderr text; the temporary directory
holding the input files is written as ``<tmp>`` in both.  Inputs are
bundled datasets and the small files of :data:`FILES`.  Every case that
exits 0 is run once more with ``--output``, which must write the bytes
stdout got.

Cases from argparse (help, version, its usage errors) are compared by
exit code only under another Python minor version than the one recorded,
since argparse's wording changes between versions.

To re-record after a deliberate change of output, run from the repository
root::

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/cli_golden.json``.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from gapsense import METHODS, cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

FILES = {
    "x.txt": b"1\n2\n3\n100\n1.5\n2.5\n",
    "pts.csv": b"0,0\n1,0\n0,1\n1,1\n80,80\n81,80\n80,81\n81,81\n",
    "huge.txt": b"-1.7e308\n1.7e308\n0\n1\n2\n",
    "dev.txt": b"1.7e308\n1.7e308\n-1.7e308\n",
    "tiny.txt": b"0\n0\n0\n1e-320\n1e-320\n",
    "huge.csv": b"1e308,0\n-1e308,0\n0,0\n1,0\n2,0\n",
    "latin.txt": b"1\n2\n\xff3\n",
    "bad.csv": b"1,2\n3\n",
    "empty.txt": b"",
    "tri.csv": b"0,0\n1,1\n2,2\n",
    "flat.txt": b"3\n3\n3\n3\n3\n",
    "zeros.txt": b"0\n-0\n2\n-0.0\n0.0\n-1\n0\n-0\n0\n1\n-0\n0\n"
                 b"-0\n7\n0\n-0\n0\n-0\n-0\n0\n",
    "same.csv": b"1,1\n1,1\n1,1\n1,1\n",
}

def _cases() -> list[list[str]]:
    """Every golden argv; ``{d}`` stands for the input directory."""
    c = [["--help"], ["--version"], [], ["nosuch"]]
    c += [[cmd, "--help"] for cmd in ("detect", "compare", "simulate",
                                      "cluster")]
    for m in METHODS:
        for fmt in ("text", "json", "csv"):
            c.append(["detect", "--dataset", "venus", "--method", m,
                      "--format", fmt])
    c += [["detect", "--dataset", "venus", "--trace"],
          ["detect", "--dataset", "venus", "--method", "iir-high", "--trace"],
          ["detect", "--dataset", "venus", "--trace", "--format", "json"],
          ["detect", "--dataset", "venus", "--K", "0.29"],
          ["detect", "--dataset", "cushny", "--c", "1.5", "--format", "json"],
          ["detect", "--dataset", "grubbs3", "--method", "mean", "--k", "2"],
          ["detect", "--dataset", "barnett", "--method", "boxplot",
           "--whisker", "1"],
          ["detect", "--dataset", "grubbs1", "--method", "mad", "--b", "1"],
          ["detect", "--input", "{d}/x.txt"],
          ["detect", "--input", "{d}/x.txt", "--format", "json"],
          ["detect", "--input", "{d}/x.txt", "--format", "csv"]]
    # constant data and signed zeros: at c=0 only the zero-span rule and
    # the signs of zero decide the result
    for name in ("flat.txt", "zeros.txt"):
        for m in ("iir", "iir-high"):
            c.append(["detect", "--input", "{d}/" + name, "--method", m,
                      "--trace", "--format", "json", "--c", "0"])
    c += [["detect", "--input", "{d}/zeros.txt", "--method", m, "--trace"]
          for m in ("iir", "iir-high")]
    for m in METHODS:
        c.append(["detect", "--input", "{d}/huge.txt", "--method", m])
        c.append(["detect", "--input", "{d}/dev.txt", "--method", m])
    c += [["detect", "--input", "{d}/tiny.txt", "--method", m]
          for m in ("mean", "chauvenet")]
    c += [["detect"],
          ["detect", "--dataset", "cushny", "--c", "3", "--K", "0.1"],
          ["detect", "--dataset", "cushny", "--c", "3"],
          ["detect", "--dataset", "cushny", "--K", "2"],
          ["detect", "--dataset", "nosuch"],
          ["detect", "--dataset", "ruspini"],
          ["detect", "--input", "{d}/missing.txt"],
          ["detect", "--input", "{d}/latin.txt"],
          ["detect", "--input", "{d}/empty.txt"],
          ["detect", "--input", "{d}/sub"],
          ["detect", "--dataset", "cushny", "--output", "{d}/sub"],
          ["detect", "--dataset", "cushny", "--output", "{d}/nodir/out.txt"],
          ["compare"],
          ["compare", "--format", "json"],
          ["compare", "--datasets", "barnett"],
          ["compare", "--datasets", "rosner, cushny", "--K", "0.2",
           "--format", "json"],
          ["compare", "--datasets", "rosner,nosuch"],
          ["compare", "--datasets", "rosner,ruspini"],
          ["compare", "--datasets", ","]]
    for scenario in ("fig1a", "fig1b", "custom"):
        for fmt in ("csv", "json"):
            c.append(["simulate", "--scenario", scenario, "--n", "40",
                      "--reps", "2", "--seed", "5", "--format", fmt])
    c += [["simulate", "--scenario", "fig1c", "--sizes", "10,50",
           "--reps", "3", "--seed", "5", "--format", fmt]
          for fmt in ("csv", "json")]
    c += [["simulate", "--scenario", "fig1c", "--reps", "1"],
          ["simulate", "--n", "30", "--g-mean", "4", "--g-sd", "2",
           "--reps", "2"],
          ["simulate", "--scenario", "fig1a", "--reps", "0"],
          ["simulate", "--scenario", "fig1b", "--sizes", "10"],
          ["simulate", "--scenario", "fig1c", "--sizes", ""],
          ["simulate", "--scenario", "fig1c", "--sizes", "10,x"],
          ["simulate", "--n", "20", "--reps", "2", "--g-mean=nan"],
          ["simulate", "--n", "1", "--reps", "2"],
          ["simulate", "--scenario", "fig2"]]
    for fmt in ("text", "json", "csv"):
        c.append(["cluster", "--dataset", "ruspini", "--format", fmt])
        c.append(["cluster", "--input", "{d}/pts.csv", "--format", fmt])
    c += [["cluster", "--dataset", "ruspini", "--min-partners", "1"],
          ["cluster", "--dataset", "ruspini", "--K", "0.2"],
          ["cluster", "--input", "{d}/huge.csv", "--min-partners", "1"],
          ["cluster", "--input", "{d}/same.csv", "--c", "0",
           "--min-partners", "1"],
          ["cluster", "--input", "{d}/bad.csv"],
          ["cluster", "--input", "{d}/latin.txt"],
          ["cluster", "--input", "{d}/missing.csv"],
          ["cluster", "--input", "{d}/tri.csv"],
          ["cluster", "--input", "{d}/tri.csv", "--min-partners", "0"],
          ["cluster", "--dataset", "cushny"]]
    return c


CASES = _cases()


def _run(argv: list[str], d: str) -> tuple[int, str, str, bool]:
    """Exit code, stdout, stderr of one in-process call, with ``{d}`` set
    to ``d`` in ``argv``; the last item says whether argparse exited."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exited = cli.main([a.replace("{d}", d) for a in argv]), False
        except SystemExit as exc:
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


def _observe(d: str) -> dict:
    """The golden record of every case, with input files in ``d``."""
    for name, data in FILES.items():
        (Path(d) / name).write_bytes(data)
    (Path(d) / "sub").mkdir(exist_ok=True)
    cases = {}
    for argv in CASES:
        code, out, err, exited = _run(argv, d)
        cases[" ".join(argv)] = {
            "code": code, "argparse": exited,
            "stdout_sha256": hashlib.sha256(
                out.replace(d, "<tmp>").encode()).hexdigest(),
            "stderr": err.replace(d, "<tmp>")}
    return {"python": "%d.%d" % sys.version_info[:2], "cases": cases}


def _quiet_env(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GAPSENSE_SEED", raising=False)


def test_cli_matches_golden(tmp_path, monkeypatch):
    _quiet_env(monkeypatch)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _observe(str(tmp_path))
    assert sorted(got["cases"]) == sorted(want["cases"])
    same_python = got["python"] == want["python"]
    wrong = []
    for key, expect in want["cases"].items():
        have = got["cases"][key]
        if expect["argparse"] and not same_python:
            have, expect = have["code"], expect["code"]
        if have != expect:
            wrong.append(f"{key!r}: got {have}, want {expect}")
    assert not wrong, "\n".join(wrong)


def test_output_file_gets_the_bytes_of_stdout(tmp_path, monkeypatch):
    _quiet_env(monkeypatch)
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    dest = tmp_path / "report.out"
    checked = 0
    for argv in CASES:
        code, out, err, exited = _run(argv, str(tmp_path))
        if code != 0 or exited or "--output" in argv:
            continue
        dest.unlink(missing_ok=True)
        assert _run(argv + ["--output", str(dest)], str(tmp_path)) \
            == (0, "", err, False), argv
        assert dest.read_bytes() == out.encode("utf-8"), argv
        checked += 1
    assert checked > 40


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("GAPSENSE_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        record = _observe(tmp)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(record['cases'])} cases in {GOLDEN}")
