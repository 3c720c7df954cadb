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

The file is parsed in blocks of `_BLOCK_BYTES`, each cut just after a
line feed, so no line spans two blocks. A file of more than one block
is parsed by up to one process per CPU in the affinity mask, and the
blocks are joined in file order. The result and every error message
depend on neither that count nor the block size; there is no option
for either. A file with CR-only line endings has no line feed to cut
at, so it is one block and parses serially. A pipe is copied to a
temporary file first. Each block reports its line count, its first
ragged line and whether its column 0 holds text, without raising; the
header, label and width rules are applied once, to the whole file.
Only a block that holds a bad cell is read again, from its own bytes,
to name the first bad line and column. A UTF-8 byte-order mark is
dropped at offset 0 and nowhere else.

Saving uses 17 significant digits so a save/load round trip reproduces
every float bit for bit.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import string
from functools import partial
from itertools import accumulate

import numpy as np

from .linalg import DataMatrix
from .parallel import ordered_map

__all__ = ["load_matrix", "save_matrix", "standardize_rows"]

# how `np.loadtxt` splits a line into cells
_SPLIT = {"delimiter": ",", "quotechar": '"', "comments": None}
# a line made only of these holds no cell with content unless a quoted
# cell keeps a comma or a quote mark, which `_cells` tells apart
_FILLER = string.whitespace + ',"'
# bytes per parse block: about 1.6 MB of float64 for a 40-column file
_BLOCK_BYTES = 4 << 20
# rows re-parsed at once while looking for the first bad row
_LOCATE_ROWS = 1024


def _parse(lines: list[str], cols) -> np.ndarray:
    """Columns `cols` of `lines` as a float64 matrix, or ValueError."""
    return np.loadtxt(lines, dtype=np.float64, usecols=cols, ndmin=2, **_SPLIT)


def _parses(lines: list[str], cols) -> bool:
    try:
        _parse(lines, cols)
    except ValueError:
        return False
    return True


def _cells(line: str) -> list[str]:
    """The cells of one line, split and unquoted as `_parse` splits them."""
    cells = np.loadtxt([line], dtype=object, ndmin=1, **_SPLIT)
    return [cell.strip() for cell in cells.tolist()]


def _has_cells(line: str) -> bool:
    """Whether a line holds a cell with content: blank lines do not."""
    return bool(line.strip(_FILLER) or (line.strip() and any(_cells(line))))


def _text_lines(raw: bytes, lo: int) -> list[str]:
    """The lines of `raw`, read from offset `lo` of a file, decoded and
    with newlines translated as `open(path)` does it. A UTF-8 byte-order
    mark is dropped at offset 0 only."""
    if lo == 0 and raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    return io.TextIOWrapper(io.BytesIO(raw)).readlines()


def _read_lines(path: str, lo: int, hi: int) -> tuple[int, list[int], list[str]]:
    """The line count of bytes [lo, hi) of `path`, and the index in them
    and the text of each non-blank line."""
    with open(path, "rb") as handle:
        handle.seek(lo)
        lines = _text_lines(handle.read(hi - lo), lo)
    keep = [k for k, line in enumerate(lines) if _has_cells(line)]
    return len(lines), keep, [lines[k] for k in keep]


def _all_split_into(width: int, lines: list[str]) -> bool:
    """Whether every line has `width` cells as `_parse` splits them."""
    try:
        # one-character cells: only the shape is used
        cells = np.loadtxt(lines, dtype="U1", ndmin=2, **_SPLIT)
    except ValueError:
        return False
    return cells.shape[1] == width


def _first_ragged(width: int, lines: list[str]) -> tuple[int, int] | None:
    """(index, cell count) of the first line without `width` cells."""
    odd = [k for k, line in enumerate(lines) if line.count(",") != width - 1]
    # a quoted cell may hold a comma: split the odd lines with the
    # tokenizer, all at once, and one by one only to name a ragged line
    if odd and not _all_split_into(width, [lines[k] for k in odd]):
        for k in odd:
            found = len(_cells(lines[k]))
            if found != width:
                return k, found
    return None


def _first_line(name: str, handle) -> tuple[str, int]:
    """The first non-blank line of a binary file, and the offset just
    past the line feed that ends the stretch of bytes holding it."""
    lo = 0
    for raw in handle:
        for line in _text_lines(raw, lo):
            if _has_cells(line):
                return line, handle.tell()
        lo = handle.tell()
    raise ValueError(f"{name}: no data rows found")


def _block_bounds(handle, first_end: int, size: int) -> list[int]:
    """The block bounds of a binary file of `size` bytes: 0, then offsets
    just after a line feed, each at least `_BLOCK_BYTES` past the one
    before and none before `first_end`, then `size`."""
    bounds = [0]
    target = max(_BLOCK_BYTES, first_end)
    while target < size:
        handle.seek(target - 1)
        cut = target - 1 + len(handle.readline())
        if cut >= size:
            break
        bounds.append(cut)
        target = cut + _BLOCK_BYTES
    bounds.append(size)
    return bounds


def _parse_block(
    path: str, width: int, lo: int, hi: int, start: int | None
) -> tuple[int, tuple[int, int] | None, bool, np.ndarray | None]:
    """Parse the non-blank lines in bytes [lo, hi) of `path`.

    `start` is None unless the block holds the file's first non-blank
    line; then it is 1 when that line is a header at full width, else 0.
    Returns the block's line count; (index, cell count) of its first
    ragged line, or None; whether column 0 below the file's first line
    holds text; and the values, None where a cell does not parse. The
    values have all `width` columns, or, when column 0 holds text,
    columns 1 on.
    """
    count, keep, lines = _read_lines(path, lo, hi)
    ragged = _first_ragged(width, lines)
    if ragged is not None:
        k, found = ragged
        return count, (keep[k], found), False, None
    skip = start or 0
    if len(lines) == skip:
        return count, None, False, np.empty((0, width))
    try:
        return count, None, False, _parse(lines[skip:], range(width))
    except ValueError:
        # the label rule: any non-numeric first cell below the first line
        if _parses(lines[0 if start is None else 1 :], [0]):
            return count, None, False, None
    cols = range(1, width)
    if start is not None:
        skip = 0 if _parses(lines[:1], cols) else 1
    try:
        return count, None, True, _parse(lines[skip:], cols)
    except ValueError:
        return count, None, True, None


def _ragged(name: str, lineno: int, width: int, found: int) -> ValueError:
    return ValueError(
        f"{name}: line {lineno}: expected {width} columns, found {found}"
    )


def _bad_cell(
    name: str, path: str, lo: int, hi: int, lineno: int, skip: int, cols, width: int
) -> ValueError:
    """The error for the first line in bytes [lo, hi) of `path`, of the
    non-blank ones after the first `skip`, that has not `width` cells or
    a non-numeric or non-finite cell in columns `cols`, found by
    re-parsing runs of lines, then one line, then one cell at a time
    with `_parse`. `lineno` is the file line number of the first line.
    A quoted comma can hide a missing cell from `_first_ragged`."""
    _, keep, lines = _read_lines(path, lo, hi)
    for at in range(skip, len(lines), _LOCATE_ROWS):
        run = lines[at : at + _LOCATE_ROWS]
        try:
            if np.isfinite(_parse(run, cols)).all():
                continue
        except ValueError:
            pass
        for line, k in zip(run, keep[at:]):
            cells = _cells(line)
            if len(cells) != width:
                return _ragged(name, lineno + k, width, len(cells))
            for j in cols:
                try:
                    value = _parse([line], [j])[0, 0]
                except ValueError:
                    kind = "non-numeric"
                else:
                    if math.isfinite(value):
                        continue
                    kind = "non-finite"
                return ValueError(
                    f"{name}: line {lineno + k}, column {j + 1}: "
                    f"{kind} value {cells[j]!r}"
                )
    return ValueError(f"{name}: a data cell does not parse")


def _load(name: str, handle, path: str) -> DataMatrix:
    """The matrix in the file at `path`, open as binary `handle`, with
    errors reported as `name`'s. Each error is the one for the file's
    first fault, taken in this order: no data, a ragged line, a header
    with no rows below it, fewer than 3 sample columns, a bad data cell.
    """
    first, first_end = _first_line(name, handle)
    size = handle.seek(0, os.SEEK_END)
    bounds = _block_bounds(handle, first_end, size)
    width = len(_cells(first))
    start = 0 if _parses([first], range(width)) else 1  # 1: a header row
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = ordered_map(
        partial(_parse_block, path, width),
        bounds[:-1],
        bounds[1:],
        [start] + [None] * (len(bounds) - 2),
        workers=cpus,
    )
    linenos = list(accumulate((count for count, *_ in parts), initial=1))
    for lineno, (_, ragged, _, _) in zip(linenos, parts):
        if ragged is not None:
            k, found = ragged
            raise _ragged(name, lineno + k, width, found)
    if start and all(part is not None and not len(part) for *_, part in parts):
        raise ValueError(f"{name}: no data rows below the header")
    labels = any(labelled for _, _, labelled, _ in parts)
    cols = range(1 if labels else 0, width)
    if len(cols) < 3:
        raise ValueError(
            f"{name}: need at least 3 data columns (samples), found {len(cols)}"
        )

    # a first block without labels of its own left out a first line that
    # failed at full width: without column 0 it may be data
    head = labels and start and not parts[0][2] and _parses([first], cols)
    pieces = []
    for block, (_, _, labelled, part) in enumerate(parts):
        if part is not None and labels and not labelled:
            part = part[:, 1:]
        if part is not None and head and not block:
            part = np.concatenate([_parse([first], cols), part])
        if part is None or not np.isfinite(part).all():
            skip = 0 if block or _parses([first], cols) else 1
            lo, hi = bounds[block : block + 2]
            raise _bad_cell(name, path, lo, hi, linenos[block], skip, cols, width)
        pieces.append(part)
    return DataMatrix(np.concatenate(pieces))


def load_matrix(path: str) -> DataMatrix:
    """Read a rectangular numeric CSV as a variables x samples matrix.

    A first row or first column containing non-numeric text is treated
    as a header or label column and stripped. Ragged rows, non-numeric
    data cells, non-finite values, and fewer than 3 sample columns are
    errors naming the offending line.
    """
    with open(path, "rb") as handle:
        if handle.seekable():
            return _load(path, handle, path)
        import shutil
        import tempfile

        # a pipe can be read only once: the blocks and the error path
        # read a copy of it
        with tempfile.NamedTemporaryFile() as copy:
            shutil.copyfileobj(handle, copy)
            copy.seek(0)
            return _load(path, copy, copy.name)


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
