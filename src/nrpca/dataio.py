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
temporary file first. Any input the blocks reject is read again line
by line to name the first bad line.

Saving uses 17 significant digits so a save/load round trip reproduces
every float bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import os
import string
from functools import partial
from typing import NoReturn

import numpy as np

from .linalg import DataMatrix

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


def _has_cells(line: str) -> bool:
    """Whether a line holds a cell with content: blank lines do not."""
    return bool(line.strip(_FILLER) or (line.strip() and any(_cells(line))))


def _text_lines(raw: bytes) -> list[str]:
    """The lines of `raw`, decoded and with newlines translated as
    `open(path)` does it."""
    return io.TextIOWrapper(io.BytesIO(raw)).readlines()


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


def _first_line(handle) -> tuple[str, int]:
    """The first non-blank line of a binary file, and the offset just
    past the line feed that ends the stretch of bytes holding it."""
    for raw in handle:
        for line in _text_lines(raw):
            if _has_cells(line):
                return line, handle.tell()
    raise ValueError("no data rows")


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
) -> tuple[bool, np.ndarray]:
    """Parse the non-blank lines in bytes [lo, hi) of `path`.

    `start` is None unless the block holds the file's first non-blank
    line; then it is 1 when that line is a header at full width, else 0.
    Returns (False, all `width` columns), or, when column 0 below the
    first line holds text, (True, columns 1 on). Raises ValueError on a
    ragged line or a data cell that does not parse.
    """
    with open(path, "rb") as handle:
        handle.seek(lo)
        raw = handle.read(hi - lo)
    lines = [line for line in _text_lines(raw) if _has_cells(line)]
    if _first_ragged(width, lines) is not None:
        raise ValueError("ragged line")
    skip = start or 0
    if len(lines) == skip:
        return False, np.empty((0, width))
    try:
        return False, _parse(lines[skip:], range(width))
    except ValueError:
        # the label rule: any non-numeric first cell below the first line
        if _parses(lines[0 if start is None else 1 :], [0]):
            raise
    cols = range(1, width)
    if start is not None:
        skip = 0 if _parses(lines[:1], cols) else 1
    return True, _parse(lines[skip:], cols)


def _map_blocks(parse, *args) -> list[tuple[bool, np.ndarray]]:
    """`map(parse, *args)` as a list, with one process per CPU in the
    affinity mask, where the platform has one, up to one per block."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(args[0]))
    if workers > 1:
        import multiprocessing

        # a daemonic process, such as a multiprocessing.Pool worker, may
        # not start processes of its own
        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor

            # forked workers share the loaded modules: spawned ones would
            # import numpy again and re-run a caller's main module
            context = multiprocessing.get_context("fork")
            chunksize = -(-len(args[0]) // (4 * workers))
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(parse, *args, chunksize=chunksize))
    return list(map(parse, *args))


def _load_blocks(handle, path: str) -> np.ndarray:
    """The data cells of the file at `path`, open as binary `handle`, or
    ValueError for any file that `_raise_load_error` rejects."""
    first, first_end = _first_line(handle)
    size = handle.seek(0, os.SEEK_END)
    bounds = _block_bounds(handle, first_end, size)
    width = len(_cells(first))
    if width < 3:
        raise ValueError("fewer than 3 columns")
    start = 0 if _parses([first], range(width)) else 1  # 1: a header row
    starts = [start] + [None] * (len(bounds) - 2)
    parts = _map_blocks(
        partial(_parse_block, path, width), bounds[:-1], bounds[1:], starts
    )
    if any(labelled for labelled, _ in parts):
        if width < 4:
            raise ValueError("fewer than 3 columns besides the labels")
        pieces = [part if labelled else part[:, 1:] for labelled, part in parts]
        # a first block without labels of its own left out a first line
        # that failed at full width: without column 0 it may be data
        if start and not parts[0][0] and _parses([first], range(1, width)):
            pieces.insert(0, _parse([first], range(1, width)))
    else:
        pieces = [part for _, part in parts]
    values = np.concatenate(pieces)
    if not len(values) or not np.isfinite(values).all():
        raise ValueError("no data rows, or a non-finite cell")
    return values


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
    for lo in range(start, len(lines), _LOCATE_ROWS):
        block = lines[lo : lo + _LOCATE_ROWS]
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


def _raise_load_error(name: str, path: str, cause: ValueError) -> NoReturn:
    """Raise the first error in the file at `path`, read whole and line
    by line, reported as `name`'s: no data, a ragged line, a header with
    no rows below it, fewer than 3 sample columns, or a bad data cell.
    `cause` is raised if none is found."""
    with open(path) as handle:
        lines = handle.readlines()
    keep = [k for k, line in enumerate(lines) if _has_cells(line)]
    if not keep:
        raise ValueError(f"{name}: no data rows found")
    lines = [lines[k] for k in keep]
    linenos = [k + 1 for k in keep]

    width = len(_cells(lines[0]))
    ragged = _first_ragged(width, lines)
    if ragged is not None:
        k, found = ragged
        raise _ragged(name, linenos[k], width, found)

    cols = range(width)
    start = 0 if _parses(lines[:1], cols) else 1  # 1: a header row
    if start == len(lines):
        raise ValueError(f"{name}: no data rows below the header")
    values, error = _try_parse(lines[start:], cols)
    # label column, looked for only when the full-width body does not
    # parse: any non-numeric first cell below the first row
    labels = error is not None and not _parses(lines[1:], [0])
    if labels:
        cols = range(1, width)
        start = 0 if _parses(lines[:1], cols) else 1
    if len(cols) < 3:
        raise ValueError(
            f"{name}: need at least 3 data columns (samples), found {len(cols)}"
        )

    if labels:
        values, error = _try_parse(lines[start:], cols)
    if error is not None or not np.isfinite(values).all():
        _raise_first_bad_cell(name, lines, linenos, start, cols, width)
    raise error or cause


def _load(name: str, handle, path: str) -> DataMatrix:
    """The matrix in the file at `path`, open as binary `handle`, with
    errors reported as `name`'s."""
    try:
        values = _load_blocks(handle, path)
    except ValueError as exc:
        _raise_load_error(name, path, exc)
    return DataMatrix(values)


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
