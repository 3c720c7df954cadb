"""CSV ingestion and per-variable standardization.

Matrices are stored rows-as-variables, columns-as-samples. The loader
skips blank lines, auto-detects an optional header row and an optional
row-label column by looking for non-numeric cells, and reports ragged
rows, non-numeric and non-finite cells with their file line and column.

Cells are split on commas, with double quotes around a cell removed,
and a data cell must be a decimal float: optional sign, ASCII digits,
an optional decimal point and exponent, with surrounding whitespace
allowed. `inf` and `nan` parse but are rejected as non-finite. Python's
`float()` extras (underscores between digits, non-ASCII digits) are not
numbers. numpy's C tokenizer, with the settings in `_SPLIT`, and its
float parser decide blank lines, row widths, the header and label
layout, the values and the error positions alike, so these never
disagree. A quoted cell cannot span lines.

Saving uses 17 significant digits so a save/load round trip reproduces
every float bit for bit.
"""

from __future__ import annotations

import csv
import math
import string

import numpy as np

from .linalg import DataMatrix

__all__ = ["load_matrix", "save_matrix", "standardize_rows"]

# how `np.loadtxt` splits a line into cells
_SPLIT = {"delimiter": ",", "quotechar": '"', "comments": None}
# a line made only of these holds no cell with content unless a quoted
# cell keeps a comma or a quote mark, which `_cells` tells apart
_FILLER = string.whitespace + ',"'
# rows re-parsed at once while looking for the first bad row
_BLOCK = 1024


def _parse(lines: list[str], cols) -> np.ndarray:
    """Columns `cols` of `lines` as a float64 matrix, or ValueError."""
    return np.loadtxt(lines, dtype=np.float64, usecols=cols, ndmin=2, **_SPLIT)


def _try_parse(lines: list[str], cols) -> tuple[np.ndarray | None, ValueError | None]:
    """`_parse`'s matrix and None, or None and the ValueError it raised."""
    try:
        return _parse(lines, cols), None
    except ValueError as exc:
        return None, exc


def _parses(lines: list[str], cols) -> bool:
    return _try_parse(lines, cols)[1] is None


def _cells(line: str) -> list[str]:
    """The cells of one line, split and unquoted as `_parse` splits them."""
    cells = np.loadtxt([line], dtype=object, ndmin=1, **_SPLIT)
    return [cell.strip() for cell in cells.tolist()]


def _all_split_into(width: int, lines: list[str]) -> bool:
    """Whether every line has `width` cells as `_parse` splits them."""
    try:
        # one-character cells: only the shape is used
        cells = np.loadtxt(lines, dtype="U1", ndmin=2, **_SPLIT)
    except ValueError:
        return False
    return cells.shape[1] == width


def _ragged(path: str, lineno: int, width: int, found: int) -> ValueError:
    return ValueError(
        f"{path}: line {lineno}: expected {width} columns, found {found}"
    )


def _raise_first_bad_cell(
    path: str, lines: list[str], linenos: list[int], start: int, cols, width: int
) -> None:
    """Raise the error for the first ragged, non-numeric or non-finite
    cell of lines[start:], found by re-parsing blocks, then one line,
    then one cell at a time with `_parse`. Returns if none is found."""
    for lo in range(start, len(lines), _BLOCK):
        block = lines[lo : lo + _BLOCK]
        try:
            if np.isfinite(_parse(block, cols)).all():
                continue
        except ValueError:
            pass
        for line, lineno in zip(block, linenos[lo:]):
            cells = _cells(line)
            if len(cells) != width:
                raise _ragged(path, lineno, width, len(cells))
            for j in cols:
                try:
                    value = _parse([line], [j])[0, 0]
                except ValueError:
                    kind = "non-numeric"
                else:
                    if math.isfinite(value):
                        continue
                    kind = "non-finite"
                raise ValueError(
                    f"{path}: line {lineno}, column {j + 1}: "
                    f"{kind} value {cells[j]!r}"
                )


def load_matrix(path: str) -> DataMatrix:
    """Read a rectangular numeric CSV as a variables x samples matrix.

    A first row or first column containing non-numeric text is treated
    as a header or label column and stripped. Ragged rows, non-numeric
    data cells, non-finite values, and fewer than 3 sample columns are
    errors naming the offending line.
    """
    with open(path) as handle:
        lines = handle.readlines()
    keep = [
        k
        for k, line in enumerate(lines)
        if line.strip(_FILLER) or (line.strip() and any(_cells(line)))
    ]
    if not keep:
        raise ValueError(f"{path}: no data rows found")
    lines = [lines[k] for k in keep]
    linenos = [k + 1 for k in keep]

    width = len(_cells(lines[0]))
    odd = [k for k, line in enumerate(lines) if line.count(",") != width - 1]
    # a quoted cell may hold a comma: split the odd lines with the
    # tokenizer, all at once, and one by one only to name a ragged line
    if odd and not _all_split_into(width, [lines[k] for k in odd]):
        for k in odd:
            found = len(_cells(lines[k]))
            if found != width:
                raise _ragged(path, linenos[k], width, found)

    cols = range(width)
    start = 0 if _parses(lines[:1], cols) else 1  # 1: a header row
    if start == len(lines):
        raise ValueError(f"{path}: no data rows below the header")
    values, error = _try_parse(lines[start:], cols)
    # label column, looked for only when the full-width body does not
    # parse: any non-numeric first cell below the first row
    labels = error is not None and not _parses(lines[1:], [0])
    if labels:
        cols = range(1, width)
        start = 0 if _parses(lines[:1], cols) else 1
    if len(cols) < 3:
        raise ValueError(
            f"{path}: need at least 3 data columns (samples), found {len(cols)}"
        )

    if labels:
        values, error = _try_parse(lines[start:], cols)
    if error is not None or not np.isfinite(values).all():
        _raise_first_bad_cell(path, lines, linenos, start, cols, width)
    if error is not None:
        raise error
    return DataMatrix(values)


def save_matrix(path: str, matrix: DataMatrix | np.ndarray) -> None:
    """Write a matrix as plain numeric CSV with 17 significant digits."""
    values = matrix.values if isinstance(matrix, DataMatrix) else np.asarray(matrix)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in values:
            writer.writerow([f"{v:.17g}" for v in row])


def standardize_rows(matrix: DataMatrix | np.ndarray) -> DataMatrix:
    """Scale each row (variable) to unit sample variance.

    Keeps row means untouched; after centering, the covariance diagonal
    is then all ones, so the dual covariance trace equals d. Rows whose
    sample standard deviation is below 1e-13 relative to their magnitude
    are rejected as constant.
    """
    values = matrix.values if isinstance(matrix, DataMatrix) else None
    if values is None:
        values = np.asarray(matrix, dtype=np.float64)
        values = DataMatrix(values).values  # same validation path
    sd = np.std(values, axis=1, ddof=1)
    floor = 1e-13 * np.maximum(1.0, np.abs(values.mean(axis=1)))
    bad = np.nonzero(sd <= floor)[0]
    if bad.size:
        raise ValueError(
            f"row {bad[0]} has zero sample variance; cannot standardize"
        )
    return DataMatrix(values / sd[:, None])
