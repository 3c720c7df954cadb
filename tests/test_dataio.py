"""CSV round trips, layout detection, and row standardization."""

import csv
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_save_matrix_writes_17_digits_commas_and_crlf(tmp_path):
    values = np.array(
        [[-0.0, 5e-324, 1e300], [-1e300, 0.1, 123456789.12345678]]
    )
    path = tmp_path / "m.csv"
    save_matrix(str(path), values)
    assert path.read_bytes() == (
        b"-0,4.9406564584124654e-324,1.0000000000000001e+300\r\n"
        b"-1.0000000000000001e+300,0.10000000000000001,123456789.12345678\r\n"
    )
    assert np.array_equal(load_matrix(str(path)).values, values)


@pytest.mark.parametrize(
    "values,message",
    [
        ([[1.0, np.nan, 3.0]], "finite"),
        ([[1.0, 2.0, np.inf]], "finite"),
        ([1.0, 2.0, 3.0], "2-dimensional"),
        ([[1.0, 2.0], [3.0, 4.0]], "at least 3 samples"),
    ],
)
def test_save_matrix_writes_only_what_load_matrix_reads(tmp_path, values, message):
    # a nan cell used to be written and then refused by `load_matrix`, and
    # a vector failed inside the writer with numpy's own message
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=message):
        save_matrix(str(path), np.array(values))
    assert not path.exists()


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


def test_a_block_of_blank_lines_parses_without_a_warning(tmp_path, monkeypatch):
    # at 12 bytes a block, the second block holds 12 blank lines alone;
    # np.loadtxt warns "input contained no data" when it is given none
    path = tmp_path / "gap.csv"
    path.write_text("1,2,3\n4,5,6\n" + "\n" * 12 + "7,8,9\n")
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 12)
    monkeypatch.setattr(dataio.os, "sched_getaffinity", lambda pid: {0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_matrix(str(path))
    assert np.array_equal(loaded.values, np.arange(1.0, 10.0).reshape(3, 3))


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
    # a quoted comma hides the missing cell from a comma count: the line
    # is still named before a bad cell above it, a ragged line below it,
    # and the count of data columns
    message = "line 6: expected 4 columns, found 3"
    for first, last in (("g1,1,x,3", "g3,6,7,8"), ("g1,1,2,3", "g3,6,7")):
        path.write_text(f'gene,s1,s2,s3\n\n  \n{first}\n,,,\ng2,"4,5",6\n{last}\n')
        _raises_at_each_block_size(monkeypatch, path, message)
    path.write_text('gene,s1,s2\ng1,1,2\ng2,"1,2"\n')
    _raises_at_each_block_size(monkeypatch, path, "line 3: expected 3 columns, found 2")
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


def test_load_matrix_error_search_halves_the_block(tmp_path, monkeypatch):
    # one block of 40 columns with a bad cell on data line 1024: runs of
    # lines are re-parsed whole, halving toward it, and only the bad one
    # cell by cell; a search that splits every line before it into cells
    # makes 40 calls a line, and one that re-parses each line makes one
    rows = np.random.default_rng(11).normal(size=(1100, 40))
    lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
    lines[1023] = lines[1023].rsplit(",", 1)[0] + ",oops"
    path = tmp_path / "bad.csv"
    path.write_text("".join(line + "\n" for line in lines))
    calls = 0
    parse = dataio._parse

    def counting(lines, cols):
        nonlocal calls
        calls += 1
        return parse(lines, cols)

    monkeypatch.setattr(dataio, "_parse", counting)
    message = "line 1024, column 40: non-numeric value 'oops'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_matrix(str(path))
    # the load's own 3 calls, 11 halvings of 1100 lines, the 40 cells
    assert calls < 100


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


def test_load_matrix_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, monkeypatch):
    # 121-byte lines: file offset 37512 is byte 3 of line 311; the
    # position does not depend on the block size or the decoder's chunks
    x = np.random.default_rng(3).normal(size=(3000, 11))
    raw = bytearray(
        "".join(",".join(f"{v:+.3e}" for v in row) + "\n" for row in x).encode()
    )
    raw[37512] = 0xFF
    path = tmp_path / "latin.csv"
    path.write_bytes(bytes(raw))
    message = f"{path}: line 311: byte 3 (0xff) is not UTF-8: invalid start byte"
    _raises_at_each_block_size(monkeypatch, path, message)
    # the first of it and a ragged line is reported
    for line, expected in ((400, message), (6, "line 6: expected 11 columns, found 2")):
        cut = bytearray(raw)
        cut[121 * (line - 1) : 121 * (line - 1) + 4] = b"1,2\n"
        path.write_bytes(bytes(cut))
        _raises_at_each_block_size(monkeypatch, path, expected)
    # found while looking for the first line, with CR and CRLF endings,
    # and after a two-byte character, in bytes
    for data, message in (
        (b"1,2,3\n\xc3\xa9,\xff,6\n", "line 2: byte 4 (0xff)"),
        (b"\n \r\n\xff1,2,3\n4,5,6\n", "line 3: byte 1 (0xff)"),
        (b"\xef\xbb\xbf\r\r1,\xe2\x82,3\r", "line 3: byte 3 (0xe2) is not UTF-8: invalid continuation byte"),
        (b"1,2,3\r\n4,5,6\r\n7,8,9\xe2\x82", "line 3: byte 6 (0xe2) is not UTF-8: unexpected end of data"),
    ):
        path.write_bytes(data)
        _raises_at_each_block_size(monkeypatch, path, message)


_LOAD = """
import sys

from nrpca.dataio import load_matrix

try:
    print(load_matrix(sys.argv[1]).values.tobytes().hex())
except ValueError as exc:
    print(exc)
"""


def test_load_matrix_reads_utf8_whatever_the_locale(run_python, tmp_path):
    # the C locale's codec is ASCII: a UTF-8 label used to stop the loader
    # with an UnboundLocalError there, and a locale's codec is no rule
    # for which bytes a file may hold
    def load(path, utf8_mode):
        env = {"PYTHONUTF8": utf8_mode, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        proc = run_python(path, code=_LOAD, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    path = tmp_path / "labels.csv"
    path.write_bytes("gène,s1,s2,s3\ngène,1,2,3\ng2,4,5,7\n".encode("utf-8"))
    rows = np.array([[1.0, 2, 3], [4, 5, 7]])
    assert load(path, "0") == load(path, "1") == rows.tobytes().hex() + "\n"
    path.write_bytes("gène,1,2,3\n".encode("latin-1"))
    message = f"{path}: line 1: byte 2 (0xe8) is not UTF-8: invalid continuation byte\n"
    assert load(path, "0") == load(path, "1") == message


def _runs_on(line):
    """Whether numpy's tokenizer is still inside a quoted cell at the end
    of `line`: then the line below is read into that cell."""
    rows = np.loadtxt(
        [line + "\n", 'x"\n'], dtype=object, usecols=[0], ndmin=1, **dataio._SPLIT
    )
    # a closed line and the sentinel are two rows; an open quote takes
    # the sentinel's text into its cell, and its quote closes the cell
    return len(rows) == 1


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet='a1 ,"', min_size=1, max_size=12))
def test_open_quote_pattern_matches_the_tokenizer(line):
    assert dataio._ends_in_quote(line + "\n") == _runs_on(line)


def test_load_matrix_names_a_line_that_ends_inside_a_quote(tmp_path, monkeypatch):
    # the cell would run on into the lines below, which then parsed
    # differently at each block size; now the line is named at all of them
    x = np.random.default_rng(2).normal(size=(200, 6))
    lines = [",".join(f"{v:.17g}" for v in row) for row in x]
    path = tmp_path / "quote.csv"
    text = "a quoted cell is not closed on this line"
    for at, row in ((0, '"' + lines[0]), (75, '"' + lines[75]), (199, lines[199] + ',"')):
        cut = list(lines)
        cut[at] = row
        path.write_text("\n".join(cut) + "\n")
        _raises_at_each_block_size(monkeypatch, path, f"{path}: line {at + 1}: {text}")
    # after a header and labels, in an empty last cell, with CRLF endings,
    # and after a doubled quote that does not close the cell
    above = "gene,s1,s2,s3\r\ng1,1,2,3\r\n\r\n"
    for row in ('g2,4,5,"', '"g2",4,5,"6""', 'g2,"4""5,6,7'):
        path.write_text(above + row + "\r\ng3,7,8,9\r\ng4,1,2,3\r\n", newline="")
        _raises_at_each_block_size(monkeypatch, path, f"line 4: {text}")
    # the first faulty line is reported: a ragged one before it, the open
    # quote before a ragged line or a byte that is not UTF-8
    cut = list(lines)
    cut[150] = '"' + cut[150]
    for at, row, message in (
        (40, "1,2", "line 41: expected 6 columns, found 2"),
        (160, "1,2", f"line 151: {text}"),
        (160, "1,\udcff,3", f"line 151: {text}"),
        (10, "1,\udcff,3", "line 11: byte 3 (0xff) is not UTF-8"),
    ):
        both = list(cut)
        both[at] = row
        path.write_bytes(("\n".join(both) + "\n").encode("utf-8", "surrogateescape"))
        _raises_at_each_block_size(monkeypatch, path, message)


def test_load_matrix_skips_blank_lines_with_open_quotes(tmp_path, monkeypatch):
    # a line of only commas, spaces and quote marks holds no cell, so it is
    # dropped before parsing and its quote runs on into nothing
    x = np.random.default_rng(4).normal(size=(200, 6))
    lines = [",".join(f"{v:.17g}" for v in row) for row in x]
    for blank in ('"', ',,"', ' ,"', '"",,"'):
        cut = list(lines)
        for at in (0, 76, 150):
            cut.insert(at, blank)
        path = tmp_path / "blank.csv"
        path.write_text("\r\n".join(cut + [blank]) + "\r\n", newline="")
        for _ in _at_each_block_size(monkeypatch, cores=(1, 2)):
            assert load_matrix(str(path)).values.tobytes() == x.tobytes(), blank


def test_load_matrix_looks_for_open_quotes_in_quoted_lines_only(tmp_path, monkeypatch):
    seen, tokenized = [], []
    ends_in_quote, loadtxt = dataio._ends_in_quote, np.loadtxt

    def record(line):
        seen.append(line)

        def counted(*args, **kwargs):
            tokenized.append(line)
            return loadtxt(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", counted)
            return ends_in_quote(line)

    monkeypatch.setattr(dataio, "_ends_in_quote", record)
    values = np.random.default_rng(43).normal(size=(300, 5))
    path = tmp_path / "m.csv"
    for header, labels, style in ((True, True, "plain"), (False, False, "quoted")):
        text = _styled_csv(values, header, labels, style)
        path.write_text(text)
        for _ in _at_each_block_size(monkeypatch, cores=(1,)):
            seen.clear()
            assert load_matrix(str(path)).values.tobytes() == values.tobytes()
            # each line once, and the first line once more, while it is
            # looked for
            assert len(seen) == (text.count("\n") + 1) * (style == "quoted")
            # no closed line here ends in a quote just after a comma, so
            # the prefilter settles each one without the tokenizer
            assert tokenized == []


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
    below = 40 + header - 1  # the lines below the first one
    if labels:
        # the block fails at full width on its first label cell, then
        # the label check and the body parse follow; the first line is
        # parsed once, after the block, to decide whether it is a header
        assert calls == [
            (below, full, False),
            (below, (0,), False),
            (below, data, True),
            (1, data, not header),
        ]
    else:
        assert calls == [(below, full, True), (1, full, not header)]


# cells of generated files: numbers, and cells that are not one
_NUMBERS = ["0", "1", "-2.5", "3e2", " 4 ", "+.5", '"7"']
_ODD_CELLS = ["1e400", "inf", "nan", "x", "", '"1,2"', '""', '"a""b"', '"9', "1_0"]
# lines that hold no cell with content, and one that does: a quoted comma
_FILLERS = ["", " ", ",", ",,", '""', '","']


@st.composite
def _csv_bytes(draw):
    """A small CSV file: an optional header and label column, rows that
    may be ragged or hold odd cells, filler lines, any line ending and an
    optional byte-order mark."""
    width = draw(st.integers(1, 5))
    labels = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(["id"] * labels + [f"s{j}" for j in range(width)]))
    kinds = st.sampled_from(["data"] * 5 + ["odd", "ragged", "filler"])
    for i, kind in enumerate(draw(st.lists(kinds, max_size=10))):
        if kind == "filler":
            lines.append(draw(st.sampled_from(_FILLERS)))
            continue
        count = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
        pool = _NUMBERS + _ODD_CELLS if kind == "odd" else _NUMBERS
        cells = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
        lines.append(",".join([f"g{i}"] * labels + cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode()


def _load_outcome(path):
    """The loaded shape and bytes, or the error text."""
    try:
        values = load_matrix(str(path)).values
    except ValueError as exc:
        return str(exc)
    return values.shape, values.tobytes()


@settings(max_examples=150, deadline=None)
@given(raw=_csv_bytes())
def test_load_matrix_is_invariant_to_blocks_and_cores(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("generated") / "m.csv"
    path.write_bytes(raw)
    expected = _load_outcome(path)
    for size, cores in ((40, 1), (40, 2), (16, 1), (16, 2)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_BLOCK_BYTES", size)
            patch.setattr(dataio.os, "sched_getaffinity", lambda pid: set(range(cores)))
            assert _load_outcome(path) == expected, (size, cores)


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
    # a first line that parses is a data row, even with nothing below it
    path.write_text("1,2,3\n\n")
    for _ in _at_each_block_size(monkeypatch, cores=(1, 2)):
        assert load_matrix(str(path)).values.tolist() == [[1.0, 2.0, 3.0]]


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


def test_standardize_rows_constant_floor_is_1e_13_of_the_mean():
    # row 0's sample standard deviation is 1.05 * 1e-12 of its mean of 3,
    # then 1.05 * 5e-14 of it, either side of the 1e-13 floor
    x = np.random.default_rng(6).normal(size=(4, 10))
    wiggle = np.tile([1.0, -1.0], 5)
    x[0] = 3.0 + 3e-12 * wiggle
    # the mean of 3 leaves the wiggle about 4 significant digits
    assert np.std(standardize_rows(x).values[0], ddof=1) == pytest.approx(1.0, rel=1e-3)
    x[0] = 3.0 + 1.5e-13 * wiggle
    with pytest.raises(ValueError, match="row 0 has zero sample variance"):
        standardize_rows(x)


def test_standardize_rows_is_scale_free():
    # the constant-row floor was 1e-13 * max(1, |mean|): below a mean of
    # 1 an absolute 1e-13, which rejected this matrix scaled by 2^-45
    x = np.random.default_rng(1).normal(size=(500, 10))
    x[0] *= 30.0
    want = standardize_rows(x).values.tobytes()
    # each row is brought to one binary exponent first, so the squares in
    # the variance stay in range: at 2^520 they overflowed to zero rows,
    # and at 2^-540 underflowed to a zero variance
    for k in range(-1000, 1001):
        assert standardize_rows(x * 2.0**k).values.tobytes() == want, k
    # a zero row and a constant row are constant at any scale
    for k in (-1000, -60, 0, 60, 1000):
        for row in (0.0, 3.0):
            y = x * 2.0**k
            y[7] = row * 2.0**k
            with pytest.raises(ValueError, match="row 7 has zero sample variance"):
                standardize_rows(y)
