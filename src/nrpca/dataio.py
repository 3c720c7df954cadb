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
float parser decide blank lines, row widths, open quotes, the header
and label layout, the values and the error positions alike, so these
never disagree. A quoted cell cannot span lines: a line that ends
inside one is an error naming that line, so it never runs on into the
next. A blank line is dropped before parsing, whatever quote marks it
holds.

The file is parsed in blocks of `_BLOCK_BYTES`, each cut just after a
line feed, so no line spans two blocks. A file of more than one block
is parsed by `parallel.ordered_map`, which is asked for one process
per block and caps that at one per usable core, and the blocks are
joined in file order. The result and every error message depend on
neither that count nor the block size; there is no option for either.
A file with CR-only line endings has no line feed to cut at, so it is
one block and parses serially. A pipe is copied to a
temporary file first. Each block parses its non-blank lines alike,
leaving out the file's first one, and reports its line count, its first
ragged line and whether its column 0 holds text, without raising; the
header, label and width rules are applied once, to the whole file.
Only a block that holds a bad cell is read again, from its own bytes,
to name the first bad line and column. A UTF-8 byte-order mark is
dropped at offset 0 and nowhere else. Bytes that are not UTF-8 are an
error naming their line and their byte in it. Every line is read on its
own for these two faults and for its width, so the first faulty line in
the file is the one reported at any block size. A block without a quote
mark is not searched for an open quote.

Saving uses 17 significant digits so a save/load round trip reproduces
every float bit for bit.
"""

from __future__ import annotations

import codecs
import io
import math
import os
import string
from functools import partial
from itertools import accumulate

import numpy as np

from .linalg import DataMatrix
from .parallel import close_pool, ordered_map

__all__ = ["load_matrix", "save_matrix", "standardize_rows"]

# how `np.loadtxt` splits a line into cells
_SPLIT = {"delimiter": ",", "quotechar": '"', "comments": None}
# a line made only of these holds no cell with content unless a quoted
# cell keeps a comma or a quote mark, which `_cells` tells apart
_FILLER = string.whitespace + ',"'
# bytes per parse block: about 1.6 MB of float64 for a 40-column file
_BLOCK_BYTES = 4 << 20


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


def _ends_in_quote(line: str) -> bool:
    """Whether `line` ends inside a quoted cell, as `_parse` splits it."""
    # dropping each pair of adjacent quote marks leaves every cell as open
    # or closed as it was, and in an open last cell leaves only the quote
    # that opens it, just after a comma or at the start of the line
    bare = line.replace('""', "")
    at = bare.rfind('"')
    if at != 0 and (at < 0 or bare[at - 1] != ","):
        return False
    # the tokenizer reads a line feed inside an open quoted cell as text
    text = line.rstrip("\n") + "\n"
    return np.loadtxt([text], dtype=object, ndmin=1, **_SPLIT)[-1].endswith("\n")


def _decode(raw: bytes) -> list[str]:
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").readlines()


def _text_lines(raw: bytes, lo: int) -> tuple[list[str], str | None]:
    """The lines of `raw`, read from offset `lo` of a file, decoded as UTF-8 and
    with newlines translated as `open(path)` does it, and None. Where a
    line is not UTF-8 or holds a cell and ends inside a quoted one, only
    the lines before the first such line, and the error text for it. A
    blank line is dropped before it is parsed, so its quote cannot run
    on. A UTF-8 byte-order mark is dropped at offset 0 only."""
    if lo == 0 and raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    try:
        lines, fault = _decode(raw), None
    except UnicodeDecodeError:
        # that position counts from the decoder's chunk, this one from
        # the start of `raw`
        try:
            raw.decode()
        except UnicodeDecodeError as err:
            bad = err
        lines = _decode(raw[: bad.start])
        head = lines.pop() if lines and not lines[-1].endswith("\n") else ""
        fault = (
            f"byte {len(head.encode()) + 1} (0x{raw[bad.start]:02x}) "
            f"is not UTF-8: {bad.reason}"
        )
    if b'"' in raw:
        for k, line in enumerate(lines):
            if _ends_in_quote(line) and _has_cells(line):
                return lines[:k], "a quoted cell is not closed on this line"
    return lines, fault


def _read_lines(
    path: str, lo: int, hi: int
) -> tuple[int, list[int], list[str], str | None]:
    """The line count of bytes [lo, hi) of `path`, the index in them and
    the text of each non-blank line, and None; or, where a line is not
    UTF-8 or ends inside a quoted cell, the same for the lines before
    the first such line, and the error text for it."""
    with open(path, "rb") as handle:
        handle.seek(lo)
        lines, fault = _text_lines(handle.read(hi - lo), lo)
    keep = [k for k, line in enumerate(lines) if _has_cells(line)]
    return len(lines), keep, [lines[k] for k in keep], fault


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
    # a quoted cell may hold a comma: the tokenizer splits each line with
    # a quote mark or an odd comma count, all at once, and one by one only
    # to name a ragged line
    odd = [k for k, ln in enumerate(lines) if '"' in ln or ln.count(",") != width - 1]
    if odd and not _all_split_into(width, [lines[k] for k in odd]):
        for k in odd:
            found = len(_cells(lines[k]))
            if found != width:
                return k, found
    return None


def _fault(name: str, lineno: int, text: str) -> ValueError:
    return ValueError(f"{name}: line {lineno}: {text}")


def _first_line(name: str, handle) -> tuple[str, int]:
    """The first non-blank line of a binary file, and the offset just
    past the line feed that ends the stretch of bytes holding it."""
    lo = seen = 0
    for raw in handle:
        lines, fault = _text_lines(raw, lo)
        for line in lines:
            if _has_cells(line):
                return line, handle.tell()
        if fault is not None:
            raise _fault(name, seen + len(lines) + 1, fault)
        lo = handle.tell()
        seen += len(lines)
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
    path: str, width: int, lo: int, hi: int
) -> tuple[int, tuple[int, str] | None, bool, np.ndarray | None]:
    """Parse the non-blank lines in bytes [lo, hi) of `path`, all alike.

    The block at offset 0 holds the file's first non-blank line, which
    it leaves out: `_load` decides that line's role.
    Returns the block's line count; the index and error text of its
    first ragged, not UTF-8 or open-quoted line, or None; whether column
    0 holds text; and the values, None where a cell does not parse. The
    values have all `width` columns, or, when column 0 holds text,
    columns 1 on.
    """
    count, keep, lines, fault = _read_lines(path, lo, hi)
    if lo == 0:
        keep, lines = keep[1:], lines[1:]
    ragged = _first_ragged(width, lines)
    if ragged is not None:
        k, found = ragged
        return count, (keep[k], f"expected {width} columns, found {found}"), False, None
    if fault is not None:
        return count, (count, fault), False, None
    if not lines:
        return count, None, False, np.empty((0, width))
    try:
        return count, None, False, _parse(lines, range(width))
    except ValueError:
        # the label rule: any non-numeric first cell below the first line
        if _parses(lines, [0]):
            return count, None, False, None
    try:
        return count, None, True, _parse(lines, range(1, width))
    except ValueError:
        return count, None, True, None


def _bad_cell(
    name: str, path: str, lo: int, hi: int, lineno: int, skip: int, cols
) -> ValueError:
    """The error for the first line in bytes [lo, hi) of `path`, of the
    non-blank ones after the first `skip`, with a non-numeric or
    non-finite cell in columns `cols`: `_parse` halves the run of lines
    that holds it, then reads its cells one at a time. `lineno` is the
    file line number of the first line."""
    _, keep, lines, _ = _read_lines(path, lo, hi)
    first, last = skip, len(lines)
    while last - first > 1:
        mid = (first + last) // 2
        try:
            clean = np.isfinite(_parse(lines[first:mid], cols)).all()
        except ValueError:
            clean = False
        first, last = (mid, last) if clean else (first, mid)
    line, k = lines[first], keep[first]
    cells = _cells(line)
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
    first fault, taken in this order: no data, a ragged, not UTF-8 or
    open-quoted line, a header with no rows below it, fewer than 3
    sample columns, a bad data cell.
    """
    first, first_end = _first_line(name, handle)
    size = handle.seek(0, os.SEEK_END)
    bounds = _block_bounds(handle, first_end, size)
    width = len(_cells(first))
    parts = ordered_map(
        partial(_parse_block, path, width),
        bounds[:-1],
        bounds[1:],
        workers=len(bounds) - 1,
    )
    close_pool()  # a file is read once: kept workers would only hold memory
    linenos = list(accumulate((count for count, *_ in parts), initial=1))
    for lineno, (_, fault, _, _) in zip(linenos, parts):
        if fault is not None:
            k, text = fault
            raise _fault(name, lineno + k, text)
    labels = any(labelled for _, _, labelled, _ in parts)
    cols = range(1 if labels else 0, width)
    # the header rule, applied once: the first line is data if it parses
    try:
        row, head = _parse([first], cols), False
    except ValueError:
        row, head = None, True
    if head and all(part is not None and not len(part) for *_, part in parts):
        raise ValueError(f"{name}: no data rows below the header")
    if len(cols) < 3:
        raise ValueError(
            f"{name}: need at least 3 data columns (samples), found {len(cols)}"
        )

    pieces = []
    for block, (_, _, labelled, part) in enumerate(parts):
        if part is not None and labels and not labelled:
            part = part[:, 1:]
        if part is not None and not head and not block:
            part = np.concatenate([row, part])
        if part is None or not np.isfinite(part).all():
            skip = int(head and not block)
            lo, hi = bounds[block : block + 2]
            raise _bad_cell(name, path, lo, hi, linenos[block], skip, cols)
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
    """Write a matrix as plain numeric CSV with 17 significant digits.

    It is checked as a `DataMatrix` first (2-D, finite, at least 3
    columns), so `load_matrix` reads every file written here back."""
    matrix = matrix if isinstance(matrix, DataMatrix) else DataMatrix(matrix)
    # newline="": the CRLF line ends are written as they are on any platform
    with open(path, "w", newline="") as handle:
        np.savetxt(handle, matrix.values, fmt="%.17g", delimiter=",", newline="\r\n")


def standardize_rows(matrix: DataMatrix | np.ndarray) -> DataMatrix:
    """Scale each row (variable) to unit sample variance.

    Keeps row means untouched; after centering, the covariance diagonal
    is then all ones, so the dual covariance trace equals d. A row whose
    sample standard deviation is zero, or at most 1e-13 times the
    absolute value of its mean, is rejected as constant. Each row is
    first scaled exactly by the power of two that puts its largest
    magnitude in [1/2, 1), so no square in the variance overflows or
    underflows, and scaling the input by any power of two scales no
    decision and leaves the output bits unchanged.
    """
    matrix = matrix if isinstance(matrix, DataMatrix) else DataMatrix(matrix)
    _, exponent = np.frexp(np.abs(matrix.values).max(axis=1, keepdims=True))
    values = np.ldexp(matrix.values, -exponent)
    sd = np.std(values, axis=1, ddof=1)
    bad = np.nonzero(sd <= 1e-13 * np.abs(values.mean(axis=1)))[0]
    if bad.size:
        raise ValueError(
            f"row {bad[0]} has zero sample variance; cannot standardize"
        )
    return DataMatrix(values / sd[:, None])
