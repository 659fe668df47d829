"""Bundled benchmark datasets and numeric file loaders."""
from __future__ import annotations

import math
from contextlib import suppress
from importlib import resources
from pathlib import Path

from .oscillator import PointSet
from .samples import Sample


class CatalogError(LookupError):
    """Unknown dataset name; the message lists the valid ones."""


class DataFormatError(ValueError):
    """A numeric input file could not be parsed; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


_UNIVARIATE: dict[str, tuple[float, ...]] = {
    # Rosner (1983): monthly diastolic blood pressure readings of one subject
    "rosner": (90, 93, 86, 92, 95, 83, 75, 40, 88, 80),
    # Barnett & Lewis, Outliers in Statistical Data
    "barnett": (3, 4, 7, 8, 10, 949, 951),
    # Grubbs (1969): strengths of hard-drawn copper wire
    "grubbs1": (568, 570, 570, 570, 572, 572, 572, 578, 584, 596),
    # Grubbs (1969): percent elongation of plastic material
    "grubbs3": (2.02, 2.22, 3.04, 3.23, 3.59, 3.73, 3.94, 4.05, 4.11, 4.13),
    # Cushny & Peebles (1905): extra hours of sleep, two-drug difference
    "cushny": (0, 0.8, 1, 1.2, 1.3, 1.3, 1.4, 1.8, 2.4, 4.6),
    # Peirce (1852): Lt. Herndon's Venus semi-diameters, Washington 1846
    "venus": (-0.30, 0.48, 0.63, -0.22, 0.18,
              -0.44, -0.24, -0.13, -0.05, 0.39,
              1.01, 0.06, -1.40, 0.20, 0.10),
}

#: Every bundled dataset name; "ruspini" is the 2-D point set of Ruspini
#: (1970), Information Sciences 2.
CATALOG = (*_UNIVARIATE, "ruspini")

#: Names of the five comparison-table datasets, in their usual order.
TABLE_DATASETS = ("rosner", "barnett", "grubbs1", "grubbs3", "cushny")

#: Published reference grouping of the Ruspini points (1-based row ids):
#: four natural groups, with the right-hand region split into a main part
#: and a small satellite trio.
RUSPINI_REFERENCE_CLUSTERS = (
    frozenset(range(1, 21)),
    frozenset(range(21, 44)),
    frozenset({44, 45} | set(range(49, 61))),
    frozenset({46, 47, 48}),
    frozenset(range(61, 76)),
)


def builtin_dataset(name: str) -> Sample | PointSet:
    """Look up a bundled dataset by name; univariate ones come back sorted."""
    key = name.lower()
    if key not in CATALOG:
        valid = ", ".join(sorted(CATALOG))
        raise CatalogError(f"unknown dataset {name!r}; valid names: {valid}")
    if key in _UNIVARIATE:
        return Sample.from_iterable(_UNIVARIATE[key], label=key)
    with resources.files("gapsense.data").joinpath("ruspini.csv").open() as fh:
        return _parse_points2d(fh.read(), label="ruspini")


def _read_text(path: Path) -> str:
    """The file's text with newlines normalised to ``\\n``; a file that is
    not UTF-8 fails as a data error naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _rows(text: str, label: str, width: int = 0) -> list[list[float]]:
    """The numbers on each line that holds any: comma-separated if it holds
    a comma, else whitespace-separated; blank and ``#`` lines hold none.
    Lines break at ``\\n`` only, as an editor counts them; any other break
    of ``str.splitlines()`` is whitespace.  ``width`` > 0 requires that many
    per line, and errors then name the whole row.  An unparsable or
    non-finite token fails with its line."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        toks = ([] if line.startswith("#") else line.split() if "," not in line
                else [t.strip() for t in line.split(",") if t.strip()])
        if not toks:
            continue
        where = f"{label}:{lineno}:"
        if width and len(toks) != width:
            raise DataFormatError(f"{where} expected {width} columns, got "
                                  f"{len(toks)}", line=lineno)
        row = []
        for tok in toks:
            try:
                row.append(float(tok))
            except ValueError:
                what = f"{toks!r} as numbers" if width else f"{tok!r} as a number"
                raise DataFormatError(f"{where} cannot parse {what}",
                                      line=lineno) from None
            if not (width or math.isfinite(row[-1])):
                raise DataFormatError(f"{where} non-finite value {tok!r}", line=lineno)
        if not all(map(math.isfinite, row)):
            raise DataFormatError(f"{where} non-finite coordinate", line=lineno)
        rows.append(row)
    return rows


def load_univariate(path: str | Path) -> Sample:
    """Read one or more finite numbers per line into a sorted Sample.

    Each line is comma-separated if it holds a comma, else
    whitespace-separated; blank lines and ``#`` comments are skipped.
    Any unparsable or non-finite token fails with its line number.
    Text with no ``,`` and no ``#`` is read in one ``split``, which gives the
    same tokens; an unparsable token or a non-finite sum reads it by line.
    """
    path = Path(path)
    text = _read_text(path)
    values = None
    if "," not in text and "#" not in text:
        with suppress(ValueError):
            values = list(map(float, text.split()))
    if values is None or not math.isfinite(sum(values)):
        values = [x for row in _rows(text, str(path)) for x in row]
    if not values:
        raise DataFormatError(f"{path}: no numeric data found")
    return Sample.from_iterable(values, label=str(path))


def _parse_points2d(text: str, label: str) -> PointSet:
    rows = _rows(text, label, width=2)
    if not rows:
        raise DataFormatError(f"{label}: no points found")
    return PointSet.from_iterable(rows, label=label)


def load_points2d(path: str | Path) -> PointSet:
    """Read a two-column numeric file into a PointSet (ids follow file order)."""
    path = Path(path)
    return _parse_points2d(_read_text(path), label=str(path))
