import pytest
from hypothesis import given, settings, strategies as st

from gapsense import (CatalogError, DataFormatError, PointSet, Sample,
                      builtin_dataset, load_points2d, load_univariate)
from gapsense.datasets import _UNIVARIATE, CATALOG, TABLE_DATASETS, _rows

EMBEDDED = {
    "rosner": (90, 93, 86, 92, 95, 83, 75, 40, 88, 80),
    "barnett": (3, 4, 7, 8, 10, 949, 951),
    "grubbs1": (568, 570, 570, 570, 572, 572, 572, 578, 584, 596),
    "grubbs3": (2.02, 2.22, 3.04, 3.23, 3.59, 3.73, 3.94, 4.05, 4.11, 4.13),
    "cushny": (0, 0.8, 1, 1.2, 1.3, 1.3, 1.4, 1.8, 2.4, 4.6),
    "venus": (-0.30, 0.48, 0.63, -0.22, 0.18,
              -0.44, -0.24, -0.13, -0.05, 0.39,
              1.01, 0.06, -1.40, 0.20, 0.10),
}


def test_embedded_values_are_pinned():
    for name, expected in EMBEDDED.items():
        assert _UNIVARIATE[name] == expected, name


def test_builtin_barnett():
    s = builtin_dataset("barnett")
    assert isinstance(s, Sample)
    assert s.n == 7
    assert s.values.tolist() == [3, 4, 7, 8, 10, 949, 951]
    assert s.label == "barnett"


def test_builtin_venus():
    s = builtin_dataset("venus")
    assert s.n == 15
    assert -1.40 in s.values and 1.01 in s.values
    assert s.min == -1.40 and s.max == 1.01


def test_builtin_ruspini():
    ps = builtin_dataset("ruspini")
    assert isinstance(ps, PointSet)
    assert ps.n == 75
    assert ps.dim == 2


def test_unknown_dataset_lists_names():
    with pytest.raises(CatalogError) as exc:
        builtin_dataset("nosuch")
    for name in CATALOG:
        assert name in str(exc.value)


def test_table_dataset_names():
    assert TABLE_DATASETS == ("rosner", "barnett", "grubbs1", "grubbs3",
                              "cushny")
    assert all(name in CATALOG for name in TABLE_DATASETS)


def test_catalog_is_case_insensitive():
    assert builtin_dataset("BARNETT").values.tolist() == \
        builtin_dataset("barnett").values.tolist()


# --- file loaders -------------------------------------------------------------

def test_load_univariate_simple(tmp_path):
    p = tmp_path / "vals.txt"
    p.write_text("1\n2\n3\n")
    s = load_univariate(p)
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    assert s.label == str(p)


def test_load_univariate_mixed_layout(tmp_path):
    p = tmp_path / "vals.csv"
    p.write_text("# header comment\n5, 1, 4\n\n2 \n-3\n")
    assert load_univariate(p).values.tolist() == [-3.0, 1.0, 2.0, 4.0, 5.0]


def test_load_univariate_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1\n2\nabc\n")
    with pytest.raises(DataFormatError) as exc:
        load_univariate(p)
    assert exc.value.line == 3
    assert "abc" in str(exc.value)


def test_load_univariate_rejects_nonfinite(tmp_path):
    p = tmp_path / "inf.txt"
    p.write_text("1\ninf\n")
    with pytest.raises(DataFormatError):
        load_univariate(p)


def test_load_univariate_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("\n# nothing\n")
    with pytest.raises(DataFormatError):
        load_univariate(p)


def test_load_univariate_whitespace_and_csv_files(tmp_path):
    p = tmp_path / "ws.txt"
    p.write_text("1 2 3\n4 5\n")
    assert load_univariate(p).values.tolist() == [1, 2, 3, 4, 5]
    q = tmp_path / "c.csv"
    q.write_text("1,2\n3\n")
    assert load_univariate(q).values.tolist() == [1, 2, 3]


def test_load_points2d(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n3,4\n")
    ps = load_points2d(p)
    assert ps.n == 2
    assert ps.points.tolist() == [[0.0, 0.0], [3.0, 4.0]]


def test_load_points2d_whitespace(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("0 0\n3 4\n1 1\n")
    assert load_points2d(p).n == 3


def test_load_points2d_arity_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n")
    with pytest.raises(DataFormatError) as exc:
        load_points2d(p)
    assert exc.value.line == 1


def test_load_points2d_ids_follow_file_order(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("9,9\n0,0\n")
    ps = load_points2d(p)
    assert ps.points[0].tolist() == [9.0, 9.0]  # id 1 is the first row


# --- one-pass reading of plain whitespace files ---------------------------------

number_strategy = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", "+", "-"]),
              st.from_regex(r"[0-9](_?[0-9]){0,5}", fullmatch=True),
              st.sampled_from(["", ".", ".5", ".0_25", ".125"]),
              st.from_regex(r"([eE][+-]?[0-9]{1,2})?", fullmatch=True)))
separator_strategy = st.sampled_from(
    ["\t", " ", "\r", "\x0c", "\n", "\n\n", " \n\t\n", "\r\n"])


@settings(max_examples=150)
@given(st.lists(st.tuples(number_strategy, separator_strategy), min_size=1,
                max_size=30),
       separator_strategy)
def test_one_pass_reading_matches_the_per_line_reading(tmp_path_factory,
                                                        tokens, lead):
    text = lead + "".join(tok + sep for tok, sep in tokens)
    p = tmp_path_factory.mktemp("plain") / "vals.txt"
    p.write_bytes(text.encode("utf-8"))
    per_line = [x for row in _rows(p.read_text(), str(p)) for x in row]
    got = load_univariate(p).values.tolist()
    assert got == sorted(per_line) == sorted(float(t) for t, _ in tokens)


@pytest.mark.parametrize("text, line, message", [
    ("1\n2\nabc\n", 3, "cannot parse 'abc' as a number"),
    ("1 2\n\ninf\n", 3, "non-finite value 'inf'"),
    ("1\n1e400 2\n", 2, "non-finite value '1e400'"),
    ("1\ninf abc\n", 2, "non-finite value 'inf'"),
    ("1\x0c2\n3 x4\n", 2, "cannot parse 'x4' as a number"),
])
def test_univariate_errors_name_the_token_and_line(tmp_path, text, line,
                                                   message):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(DataFormatError) as exc:
        load_univariate(p)
    assert exc.value.line == line
    assert str(exc.value) == f"{p}:{line}: {message}"


@pytest.mark.parametrize("text, line, message", [
    ("0,0\n1,2,3\n", 2, "expected 2 columns, got 3"),
    ("1,x\n", 1, "cannot parse ['1', 'x'] as numbers"),
    ("inf x\n", 1, "cannot parse ['inf', 'x'] as numbers"),
    ("0 0\n1 inf\n", 2, "non-finite coordinate"),
    ("# only a comment\n\n", None, "no points found"),
])
def test_points2d_errors(tmp_path, text, line, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(DataFormatError) as exc:
        load_points2d(p)
    assert exc.value.line == line
    where = p if line is None else f"{p}:{line}"
    assert str(exc.value) == f"{where}: {message}"


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_both_loaders_break_lines_at_newline_only(tmp_path, sep):
    # str.splitlines() also breaks at these; both loaders read them as
    # whitespace inside a line, so line numbers match an editor's
    p = tmp_path / "sep.txt"
    p.write_text(f"1 2{sep}3 4\n", encoding="utf-8")
    assert load_univariate(p).values.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(DataFormatError, match=":1: expected 2 columns, got 4"):
        load_points2d(p)
    p.write_text(f"1 1\n2 2{sep}\nabc d\n", encoding="utf-8")
    for load in (load_univariate, load_points2d):
        with pytest.raises(DataFormatError, match=":3: cannot parse") as exc:
            load(p)
        assert exc.value.line == 3
