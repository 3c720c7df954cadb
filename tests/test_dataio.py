"""CSV round trips, layout detection, and row standardization."""

import csv
import os
import re
import threading

import numpy as np
import pytest

from nrpca import dataio
from nrpca.dataio import load_matrix, save_matrix, standardize_rows
from nrpca.estimators import nr_estimate
from nrpca.linalg import DataMatrix

# the default block size, and one of a few lines, at which every file
# below spans many blocks; two usable cores put those through the pool
BLOCK_SIZES = (dataio._BLOCK_BYTES, 40)


def _at_each_block_size(monkeypatch, cores=(2,)):
    """Yield once per block size, and at the small one once per count of
    usable cores."""
    for size in BLOCK_SIZES:
        for count in cores if size != dataio._BLOCK_BYTES else (None,):
            with monkeypatch.context() as patch:
                if count is not None:
                    patch.setattr(dataio, "_BLOCK_BYTES", size)
                    cpus = set(range(count))
                    patch.setattr(dataio.os, "sched_getaffinity", lambda pid: cpus)
                yield size


def _raises_at_each_block_size(monkeypatch, path, message):
    # errors are found block by block: one core, a pool of two, and a
    # pool of one process per block name the same line and column
    for _ in _at_each_block_size(monkeypatch, cores=(1, 2, 8)):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_matrix(str(path))


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    values = rng.normal(size=(6, 9))
    values[0, 0] = 1.2345678901234567e-17
    values[1, 1] = -9.876543210987654e16
    values[2, 2] = 1.0 / 3.0
    path = tmp_path / "m.csv"
    save_matrix(str(path), values)
    loaded = load_matrix(str(path))
    assert np.array_equal(loaded.values, values)


def test_load_matrix_detects_header_and_labels(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text(
        "gene,s1,s2,s3,s4\n"
        "g1,1.0,2.0,3.0,4.0\n"
        "g2,0.5,0.25,0.125,0.0625\n"
    )
    loaded = load_matrix(str(path))
    assert np.array_equal(
        loaded.values,
        np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.25, 0.125, 0.0625]]),
    )


def test_load_matrix_header_only(tmp_path):
    path = tmp_path / "headed.csv"
    path.write_text("s1,s2,s3\n1,2,3\n4,5,6\n")
    loaded = load_matrix(str(path))
    assert np.array_equal(loaded.values, np.array([[1.0, 2, 3], [4, 5, 6]]))


def test_load_matrix_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("1,2,3\n\n4,5,6\n\n")
    loaded = load_matrix(str(path))
    assert loaded.values.shape == (2, 3)


def test_load_matrix_ragged_reports_line(tmp_path, monkeypatch):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n6,7,8\n")
    _raises_at_each_block_size(monkeypatch, path, "line 2")
    # a header, labels and blank lines come first: the line is the file's
    above = "gene,s1,s2,s3\n\n  \ng1,1,2,3\n,,,\n"
    for row, found in (("g2,4,5", 3), ("g2,4,5,6,7", 5), ('g2,"4,5",6', 3)):
        path.write_text(above + row + "\ng3,6,7,8\n")
        message = f"line 6: expected 4 columns, found {found}"
        _raises_at_each_block_size(monkeypatch, path, message)
    # in a late block, and reported before a bad cell in an earlier one
    lines = [f"{k},{k + 1},{k + 2}" for k in range(3000)]
    lines[2500] = "7,8"
    path.write_text("\n".join(lines) + "\n")
    message = "line 2501: expected 3 columns, found 2"
    _raises_at_each_block_size(monkeypatch, path, message)
    lines[100] = "1,x,3"
    path.write_text("\n".join(lines) + "\n")
    _raises_at_each_block_size(monkeypatch, path, message)
    # blank lines in earlier blocks count toward the line number
    lines[1000:1000] = ["", " ,, "] * 150
    path.write_text("\n".join(lines) + "\n")
    message = "line 2801: expected 3 columns, found 2"
    _raises_at_each_block_size(monkeypatch, path, message)


def test_load_matrix_bad_cell_reports_position(tmp_path, monkeypatch):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,oops,6\n7,8,9\n")
    _raises_at_each_block_size(monkeypatch, path, "line 2")
    path.write_text("1,2,3\n4,inf,6\n7,8,9\n")
    _raises_at_each_block_size(monkeypatch, path, "line 2")
    # a header and blank lines come first: line and column are the file's;
    # `1_000` and non-ASCII digits pass float() but are not numbers here
    above = "gene,s1,s2,s3\r\n\r\n\t\r\ng1,1,2,3\r\n"
    for row, message in (
        ("g2,4,oops,6", "line 5, column 3: non-numeric value 'oops'"),
        ("g2,4, inf ,6", "line 5, column 3: non-finite value 'inf'"),
        ("g2,nan,oops,6", "line 5, column 2: non-finite value 'nan'"),
        ("g2,4,6,-Infinity", "line 5, column 4: non-finite value '-Infinity'"),
        ("g2,4,1_000,6", "line 5, column 3: non-numeric value '1_000'"),
        ("g2,\u0661,5,6", "line 5, column 2: non-numeric value '\u0661'"),
        ('g2,4,"",6', "line 5, column 3: non-numeric value ''"),
    ):
        path.write_text(above + row + "\r\ng3,7,8,9\r\n", newline="")
        _raises_at_each_block_size(monkeypatch, path, message)
    # past the first block of re-parsed rows, and without a header
    lines = [f"{k},{k + 1},{k + 2}" for k in range(3000)]
    lines[2500] = "7,8,x9"
    path.write_text("\n".join(lines) + "\n")
    message = "line 2501, column 3: non-numeric value 'x9'"
    _raises_at_each_block_size(monkeypatch, path, message)
    # a non-finite cell in a late block, and text in column 0 in another
    # that makes the column labels: the column is the file's
    lines = [f"{k},{k + 1},{k + 2},{k + 3}" for k in range(3000)]
    lines[2500] = "7,8,9,inf"
    lines[1200] = "g,1,2,3"
    path.write_text("\n".join(lines) + "\n")
    message = "line 2501, column 4: non-finite value 'inf'"
    _raises_at_each_block_size(monkeypatch, path, message)


def test_load_matrix_error_search_stays_in_one_block(tmp_path, monkeypatch):
    # 30 lines of 20 bytes: 3 blocks of 200 bytes, cut after lines 10 and
    # 20; a bad cell in the last block is named by re-parsing that block
    lines = [",".join(str(1000 + 4 * i + j) for j in range(4)) for i in range(30)]
    lines[24] = "1096,oops,1098,1099"
    path = tmp_path / "bad.csv"
    path.write_text("".join(line + "\n" for line in lines))
    block = {line + "\n": i // 10 for i, line in enumerate(lines)}
    calls = []
    parse = dataio._parse

    def recording(lines, cols):
        calls.append(lines)
        return parse(lines, cols)

    monkeypatch.setattr(dataio, "_parse", recording)
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 200)
    monkeypatch.setattr(dataio.os, "sched_getaffinity", lambda pid: {0})
    message = "line 25, column 2: non-numeric value 'oops'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_matrix(str(path))
    assert len(calls) > 3
    assert all(len({block[line] for line in lines}) == 1 for lines in calls)


def test_load_matrix_drops_a_leading_byte_order_mark(tmp_path, monkeypatch):
    # as Excel writes UTF-8: the mark at offset 0 is no header cell
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,9\n")
    rows = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 9]])
    for _ in _at_each_block_size(monkeypatch):
        assert load_matrix(str(path)).values.tobytes() == rows.tobytes()
    path.write_bytes(b"\xef\xbb\xbfgene,s1,s2,s3\r\ng1,1,2,3\r\ng2,4,5,6\r\n")
    for _ in _at_each_block_size(monkeypatch):
        assert load_matrix(str(path)).values.tobytes() == rows[:2].tobytes()
    # anywhere else the mark is a character of a cell
    path.write_text("1,2,3\n4,\ufeff5,6\n", encoding="utf-8")
    message = "line 2, column 2: non-numeric value '\\ufeff5'"
    _raises_at_each_block_size(monkeypatch, path, message)
    path.write_text("\n\ufeff1,2,3\n4,5,6\n", encoding="utf-8")
    for _ in _at_each_block_size(monkeypatch):
        assert load_matrix(str(path)).values.tobytes() == rows[1:2].tobytes()


def _reference_load(path):
    """The cell-by-cell loader: csv.reader, then float() on every cell."""

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    with open(path, newline="") as handle:
        rows = [
            [c.strip() for c in cells]
            for cells in csv.reader(handle)
            if any(c.strip() for c in cells)
        ]
    label = len(rows) > 1 and not all(is_number(r[0]) for r in rows[1:])
    first = 1 if label else 0
    header = not all(is_number(c) for c in rows[0][first:])
    return np.array(
        [[float(c) for c in r[first:]] for r in rows[header:]], dtype=np.float64
    )


def _styled_csv(values, header, labels, style):
    cell = {
        "padded": lambda v: f"  {v:.17g}\t",
        "quoted": lambda v: f'"{v:.17g}"',
    }.get(style, lambda v: f"{v:.17g}")
    label = (lambda i: f'"g,{i}"') if style == "quoted" else (lambda i: f"g{i}")
    lines = []
    if header:
        names = [f"s{j}" for j in range(values.shape[1])]
        lines.append(",".join(["gene"] * labels + names))
    for i, row in enumerate(values):
        lines.append(",".join([label(i)] * labels + [cell(v) for v in row]))
    if style == "blank_lines":
        # the second blank line is longer than the small block size
        lines = ["", " " * 60] + [x for line in lines for x in (line, "", " \t ", ",,")]
    newline = {"crlf": "\r\n", "cr": "\r"}.get(style, "\n")
    return newline.join(lines) + newline


@pytest.mark.parametrize(
    "style", ["plain", "blank_lines", "crlf", "cr", "padded", "quoted"]
)
@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("header", [False, True])
def test_load_matrix_matches_cell_by_cell_reference(
    tmp_path, monkeypatch, header, labels, style
):
    rng = np.random.default_rng(23)
    values = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-30, 30, size=(7, 5))
    path = tmp_path / "m.csv"
    path.write_text(_styled_csv(values, header, labels, style), newline="")
    reference = _reference_load(path)
    assert reference.shape == values.shape
    assert reference.tobytes() == values.tobytes()
    for _ in _at_each_block_size(monkeypatch):
        loaded = load_matrix(str(path)).values
        assert loaded.shape == values.shape
        assert loaded.tobytes() == values.tobytes()


@pytest.mark.parametrize("first", ["1", "g0"])
def test_load_matrix_late_text_in_column_0_makes_labels(tmp_path, monkeypatch, first):
    # one text cell far down column 0 drops the whole column as labels,
    # the first line's too, though the blocks before it see no text
    values = np.random.default_rng(37).normal(size=(2000, 4))
    lines = [",".join(f"{v:.17g}" for v in row) for row in values]
    lines[0] = first + lines[0][lines[0].index(",") :]
    lines[1500] = "g1500" + lines[1500][lines[1500].index(",") :]
    path = tmp_path / "late.csv"
    path.write_text("\n".join(lines) + "\n")
    reference = _reference_load(path)
    assert reference.tobytes() == values[:, 1:].tobytes()
    for _ in _at_each_block_size(monkeypatch):
        loaded = load_matrix(str(path)).values
        assert loaded.shape == (2000, 3)
        assert loaded.tobytes() == reference.tobytes()


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("header", [False, True])
def test_load_matrix_parses_the_body_once(tmp_path, monkeypatch, header, labels):
    values = np.random.default_rng(29).normal(size=(40, 5))
    path = tmp_path / "m.csv"
    path.write_text(_styled_csv(values, header, labels, "plain"))
    calls = []
    parse = dataio._parse

    def recording(lines, cols):
        try:
            out = parse(lines, cols)
        except ValueError:
            calls.append((len(lines), tuple(cols), False))
            raise
        calls.append((len(lines), tuple(cols), True))
        return out

    monkeypatch.setattr(dataio, "_parse", recording)
    assert load_matrix(str(path)).values.tobytes() == values.tobytes()
    full = tuple(range(5 + labels))
    data = full[labels:]
    if labels:
        # the full-width tries fail on the first label cell; the label
        # check, the header check and the body parse follow as before
        assert [ok for *_, ok in calls[:2]] == [False, False]
        assert calls[2:] == [
            (40 + header - 1, (0,), False),
            (1, data, not header),
            (40, data, True),
        ]
    else:
        assert calls == [(1, full, not header), (40, full, True)]


def _load_through_pipe(fifo, text):
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        return load_matrix(str(fifo))
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_load_matrix_reads_a_pipe(tmp_path, monkeypatch):
    # a pipe can be read only once, so its blocks and the error path
    # read a copy; the error still names the pipe's line and column
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    values = np.random.default_rng(41).normal(size=(60, 4))
    text = _styled_csv(values, header=True, labels=True, style="crlf")
    bad = text.replace(f"g50,{values[50, 0]:.17g}", "g50,oops", 1)
    message = f"{fifo}: line 52, column 2: non-numeric value 'oops'"
    for _ in _at_each_block_size(monkeypatch):
        assert _load_through_pipe(fifo, text).values.tobytes() == values.tobytes()
        with pytest.raises(ValueError, match=re.escape(message)):
            _load_through_pipe(fifo, bad)


def test_load_matrix_needs_three_samples(tmp_path, monkeypatch):
    path = tmp_path / "narrow.csv"
    path.write_text("1,2\n3,4\n")
    message = "need at least 3 data columns (samples), found 2"
    _raises_at_each_block_size(monkeypatch, path, message)
    # three columns, of which the first is labels
    path.write_text("g1,1,2\ng2,3,4\n")
    _raises_at_each_block_size(monkeypatch, path, message)


def test_load_matrix_needs_data_rows(tmp_path, monkeypatch):
    path = tmp_path / "empty.csv"
    for text, message in (
        ("", "no data rows found"),
        ("\n  \n,,,\n", "no data rows found"),
        ("s1,s2,s3\n\n", "no data rows below the header"),
    ):
        path.write_text(text)
        _raises_at_each_block_size(monkeypatch, path, f"{path}: {message}")


def test_standardize_rows_unit_variance():
    rng = np.random.default_rng(3)
    x = DataMatrix(rng.normal(size=(20, 6)) * np.linspace(0.1, 40, 20)[:, None])
    out = standardize_rows(x)
    sd = np.std(out.values, axis=1, ddof=1)
    assert np.all(np.abs(sd - 1.0) <= 1e-12)


def test_standardize_rows_idempotent():
    rng = np.random.default_rng(4)
    x = DataMatrix(rng.normal(size=(8, 7)) * 5.0)
    once = standardize_rows(x)
    twice = standardize_rows(once)
    assert np.all(np.abs(twice.values - once.values) <= 1e-12)


def test_standardize_rows_makes_trace_d():
    rng = np.random.default_rng(5)
    x = DataMatrix(rng.normal(size=(20, 6)) * np.linspace(1, 9, 20)[:, None])
    est = nr_estimate(standardize_rows(x))
    assert abs(est.trace_dual - 20.0) <= 1e-8 * 20.0


def test_standardize_rows_rejects_constant_row():
    values = np.ones((4, 5))
    values[1:] = np.random.default_rng(0).normal(size=(3, 5))
    with pytest.raises(ValueError, match="row 0"):
        standardize_rows(values)
