"""Command surface: argument handling, output formats, reproducibility."""

import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nrpca import cli, dataio, parallel, simulation
from nrpca.cli import DEFAULT_SEED, build_parser, main
from nrpca.dataio import load_matrix, save_matrix
from nrpca.inference import contribution_ci
from nrpca.sampling import make_stream
from nrpca.simulation import (
    TwoSampleScenario,
    gen_two_sample,
    run_estimation_mc,
    run_test_mc,
)


@pytest.fixture()
def spiked_csv(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(12, 10))
    values[0] += np.linspace(-6, 6, 10)  # plant a strong first component
    path = tmp_path / "x.csv"
    save_matrix(str(path), values)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_json_fields(capsys, spiked_csv):
    code, out, err = _run(capsys, ["estimate", "--input", spiked_csv])
    assert code == 0 and err == ""
    record = json.loads(out)
    assert set(record) == {
        "d", "n", "lambda_tilde_1", "lambda_hat_1", "kappa_tilde", "trace_dual",
        "contribution_ratio", "h_tilde_norm_sq", "scores_tilde", "scores_hat",
        "jb_statistic", "jb_p_value",
    }
    assert record["d"] == 12 and record["n"] == 10
    assert record["lambda_tilde_1"] < record["lambda_hat_1"]
    assert record["kappa_tilde"] + record["lambda_tilde_1"] == pytest.approx(
        record["trace_dual"], rel=1e-12
    )
    assert 0.0 < record["contribution_ratio"] <= 1.0
    assert record["h_tilde_norm_sq"] >= 1.0
    assert len(record["scores_tilde"]) == 10
    assert record["jb_statistic"] is not None
    assert 0.0 <= record["jb_p_value"] <= 1.0


def test_estimate_small_n_skips_normality_screen(capsys, tmp_path):
    # the Jarque-Bera screen is reported from n = 8 samples on
    rng = np.random.default_rng(9)
    path = tmp_path / "tiny.csv"
    for n, reported in ((7, False), (8, True)):
        save_matrix(str(path), rng.normal(size=(6, n)))
        code, out, _ = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 0
        record = json.loads(out)
        assert (record["jb_statistic"] is not None) is reported, n
        assert (record["jb_p_value"] is not None) is reported, n


def test_estimate_transpose_matches_direct(capsys, tmp_path):
    rng = np.random.default_rng(10)
    values = rng.normal(size=(7, 9))
    direct = tmp_path / "direct.csv"
    flipped = tmp_path / "flipped.csv"
    save_matrix(str(direct), values)
    save_matrix(str(flipped), values.T)

    code, out_direct, _ = _run(capsys, ["estimate", "--input", str(direct)])
    assert code == 0
    code, out_flipped, _ = _run(
        capsys, ["estimate", "--input", str(flipped), "--transpose"]
    )
    assert code == 0
    assert json.loads(out_direct) == json.loads(out_flipped)


def _write_named(path, values, header: bool, labels: bool) -> None:
    """`save_matrix`, then a header row of column names and a first
    column of row names, as asked."""
    save_matrix(str(path), values)
    lines = path.read_text().splitlines()
    if labels:
        lines = [f"r{i}," + line for i, line in enumerate(lines)]
    if header:
        names = [f"c{j}" for j in range(values.shape[1])]
        lines.insert(0, ",".join((["name"] if labels else []) + names))
    path.write_text("\n".join(lines) + "\n")


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    shape=st.tuples(st.integers(3, 12), st.integers(3, 10)),
    header=st.booleans(),
    labels=st.booleans(),
    data=st.data(),
)
def test_transpose_round_trip_gives_the_same_bytes(
    capsys, tmp_path, shape, header, labels, data
):
    # x as variables x samples, and x.T with one sample per line read
    # back with --transpose, print the same JSON byte for byte; a header
    # row and a label column name the other axis in the transposed file
    x = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    x[0] += data.draw(arrays(np.float64, shape[1], elements=st.floats(-1e5, 1e5)))
    direct = tmp_path / "direct.csv"
    flipped = tmp_path / "flipped.csv"
    _write_named(direct, x, header, labels)
    _write_named(flipped, x.T, header, labels)
    want = _run(capsys, ["estimate", "--input", str(direct)])
    got = _run(capsys, ["estimate", "--input", str(flipped), "--transpose"])
    assert got == want


def test_estimate_standardize_sets_trace(capsys, tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(size=(9, 8)) * np.linspace(1, 30, 9)[:, None]
    path = tmp_path / "scaled.csv"
    save_matrix(str(path), values)
    code, out, _ = _run(
        capsys, ["estimate", "--input", str(path), "--standardize"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["trace_dual"] == pytest.approx(9.0, rel=1e-10)


def test_ci_from_summary_numbers_matches_library(capsys):
    # (n - 1) * 1e308 is past the double range; the interval is found at
    # a common power-of-two scale
    for lt1, kappa, n in ((2717.0, 9865.0, 20), (1e308, 1.0, 10)):
        argv = ["--lambda-tilde", repr(lt1), "--kappa", repr(kappa), "--n", str(n)]
        code, out, err = _run(capsys, ["ci"] + argv)
        assert code == 0 and err == ""
        # json.loads takes one JSON value and rejects anything after it
        record = json.loads(out)
        want = contribution_ci(lt1, kappa, n)
        assert record["lower"] == want.lower
        assert record["upper"] == want.upper
        assert 0.0 <= record["lower"] <= record["upper"] <= 1.0
        assert record["df"] == n - 1


def test_ci_requires_input_or_summary(capsys):
    code, _, err = _run(capsys, ["ci"])
    assert code == 1
    assert err.startswith("error:")
    code, _, err = _run(
        capsys,
        ["ci", "--lambda-tilde", "2717", "--kappa", "9865"],
    )
    assert code == 1


def test_ci_rejects_both_sources(capsys, spiked_csv):
    code, _, err = _run(
        capsys,
        [
            "ci", "--input", spiked_csv,
            "--lambda-tilde", "2717", "--kappa", "9865", "--n", "20",
        ],
    )
    assert code == 1
    assert err.startswith("error:")
    # one summary number alone used to be ignored: the output showed the
    # data's kappa
    for flag, value in (("--lambda-tilde", "2717"), ("--kappa", "3"), ("--n", "20")):
        code, out, err = _run(capsys, ["ci", "--input", spiked_csv, flag, value])
        assert code == 1 and out == ""
        assert err == "error: ci takes --input or summary numbers, not both\n"


@pytest.mark.parametrize("flag", ["--standardize", "--transpose"])
def test_ci_from_summary_numbers_refuses_a_matrix_flag(capsys, flag):
    # each flag used to be dropped, and the plain interval printed
    argv = ["ci", "--lambda-tilde", "2", "--kappa", "8", "--n", "20", flag]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} applies to --input, not to summary numbers\n"


def test_ci_names_an_alpha_above_the_solver_bracket(capsys):
    # brentq used to stop on a NaN upper point with its own message
    argv = ["ci", "--lambda-tilde", "2", "--kappa", "8", "--n", "10"]
    code, out, err = _run(capsys, argv + ["--alpha", "0.999999"])
    assert (code, out) == (1, "")
    assert err == "error: alpha must lie in [1e-6, 1 - 1e-5], got 0.999999\n"


def test_ci_where_the_solver_takes_over_100_steps(capsys):
    # brentq's default cap of 100 iterations stopped this solve
    argv = ["ci", "--lambda-tilde", "2", "--kappa", "8", "--n", "136"]
    code, out, err = _run(capsys, argv + ["--alpha", "0.999"])
    assert (code, err) == (0, "")
    record = json.loads(out)
    ci = contribution_ci(2.0, 8.0, 136, 0.999)
    assert (record["lower"], record["upper"]) == (ci.lower, ci.upper)


def test_ci_from_matrix(capsys, spiked_csv):
    code, out, _ = _run(capsys, ["ci", "--input", spiked_csv])
    assert code == 0
    record = json.loads(out)
    assert set(record) == {
        "lambda_tilde_1", "kappa_tilde", "n", "lower", "upper", "a", "b", "alpha", "df",
    }
    assert 0.0 <= record["lower"] <= record["upper"] <= 1.0
    assert record["n"] == 10


def _two_sample_files(tmp_path, hypothesis):
    rng = make_stream(33, 1 if hypothesis == "H0" else 2)
    draw = gen_two_sample(
        TwoSampleScenario(hypothesis=hypothesis, d=16, n1=10, n2=12, seed=33),
        rng,
    )
    p1 = tmp_path / "s1.csv"
    p2 = tmp_path / "s2.csv"
    save_matrix(str(p1), draw.x1)
    save_matrix(str(p2), draw.x2)
    return str(p1), str(p2)


def test_test_command_modes(capsys, tmp_path):
    p1, p2 = _two_sample_files(tmp_path, "Ha")
    for mode in ("f1", "f2", "f3"):
        code, out, err = _run(
            capsys, ["test", "--input1", p1, "--input2", p2, "--mode", mode]
        )
        assert code == 0, err
        record = json.loads(out)
        assert set(record) == {
            "mode", "statistic", "nu1", "nu2", "alpha", "alternative",
            "lower_crit", "upper_crit", "reject_null", "components",
        }
        assert record["mode"] == mode
        assert record["statistic"] > 0
        assert isinstance(record["reject_null"], bool)
        assert (record["nu1"], record["nu2"]) == (9, 11)
    assert set(record["components"]) == {
        "lambda_ratio", "h_tilde", "h_star", "gamma_tilde", "gamma_star",
    }


@pytest.mark.parametrize("scales", [(1e100, 1e-100), (1e-100, 1e100)])
@pytest.mark.parametrize("mode", ["f1", "f2", "f3"])
def test_test_command_names_a_statistic_outside_double_precision(
    capsys, tmp_path, mode, scales
):
    # lambda_tilde_1 near 1e200 over one near 1e-200: the statistic used
    # to reach the JSON encoder as inf, and its message was printed; the
    # swapped files gave a statistic of 0 and a rejection
    p1, p2 = _two_sample_files(tmp_path, "H0")
    for path, scale in zip((p1, p2), scales):
        save_matrix(path, load_matrix(path).values * scale)
    argv = ["test", "--input1", p1, "--input2", p2, "--mode", mode]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: the F statistic is outside double precision\n"


@pytest.mark.parametrize("mode", ["f2", "f3"])
def test_test_command_names_unequal_dimensions(capsys, tmp_path, mode):
    # the direction tests need one dimension; this used to print numpy's
    # raw matmul message
    paths = []
    for d in (50, 40):
        paths.append(str(tmp_path / f"x{d}.csv"))
        save_matrix(paths[-1], np.random.default_rng(d).normal(size=(d, 12)))
    code, out, err = _run(
        capsys, ["test", "--input1", paths[0], "--input2", paths[1], "--mode", mode]
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: direction vectors")
    assert "(50,) and (40,)" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_test_command_refuses_alpha_zero(capsys, spiked_csv, fmt):
    # the library's never-reject limit has an infinite upper point, which
    # was printed as `Infinity`, not JSON, or `inf`
    argv = ["test", "--input", spiked_csv, "--input2", spiked_csv, "--alpha", "0"]
    code, out, err = _run(capsys, argv + ["--format", fmt])
    assert (code, out) == (1, "")
    assert err == "error: test alpha must lie in (0, 1/2), got 0.0\n"


def test_test_command_checks_alpha_before_reading_a_file(capsys, spiked_csv):
    # an out-of-range alpha used to cost a full parse of both files; here
    # the second is missing, and alpha is named, not the file
    argv = ["test", "--input", spiked_csv, "--input2", "/no/such.csv"]
    code, out, err = _run(capsys, argv + ["--alpha", "0"])
    assert (code, out) == (1, "")
    assert err == "error: test alpha must lie in (0, 1/2), got 0.0\n"


def test_ci_checks_alpha_before_reading_a_file(capsys):
    argv = ["ci", "--input", "/no/such.csv", "--alpha", "2"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: alpha must lie in [1e-6, 1 - 1e-5], got 2.0\n"


def test_json_output_has_no_nan_or_infinity():
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._render({"upper_crit": float("inf")}, "json")
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._render({"rows": [{"x": float("nan")}]}, "json")


def test_test_command_one_sided_only_for_f1(capsys, tmp_path):
    p1, p2 = _two_sample_files(tmp_path, "H0")
    code, out, _ = _run(
        capsys,
        [
            "test", "--input1", p1, "--input2", p2,
            "--mode", "f1", "--alternative", "less",
        ],
    )
    assert code == 0
    assert json.loads(out)["alternative"] == "less"

    code, _, err = _run(
        capsys,
        [
            "test", "--input1", p1, "--input2", p2,
            "--mode", "f2", "--alternative", "less",
        ],
    )
    assert code == 1
    assert err.startswith("error:")


def _flat_json(record, prefix=""):
    """(key, CSV text) pairs of a JSON record: nested keys joined by a
    dot, lists as `;`-joined float reprs, None as an empty cell."""
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flat_json(value, f"{name}.")
        elif isinstance(value, list):
            yield name, ";".join(repr(float(v)) for v in value)
        else:
            yield name, "" if value is None else str(value)


@pytest.mark.parametrize(
    "command", ["estimate", "ci", "test", "power", "simulate pc", "simulate tests"]
)
def test_csv_format_flattens_the_json_record(capsys, tmp_path, command):
    # a record is a one-row table; `simulate` writes the rows of its record
    p1, p2 = _two_sample_files(tmp_path, "Ha")
    simulate = ["--d", "8,16", "--R", "4", "--seed", "3"]
    argv = {
        "estimate": ["estimate", "--input", p1],
        "ci": ["ci", "--input", p1],
        "test": ["test", "--input1", p1, "--input2", p2, "--mode", "f2"],
        "power": ["power", "--nu1", "9", "--nu2", "11", "--ratio", "1.5"],
        "simulate pc": ["simulate", "--study", "pc"] + simulate,
        "simulate tests": ["simulate", "--study", "tests"] + simulate,
    }[command]
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert code == 0, err
    record = json.loads(out)
    expected = [list(_flat_json(row)) for row in record.get("rows", [record])]
    code, out, err = _run(capsys, argv + ["--format", "csv"])
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out))
    assert header == [key for key, _ in expected[0]]
    assert rows == [[text for _, text in row] for row in expected]
    values = rows[0]
    if command == "test":
        assert "components.h_star" in header
    if command == "estimate":
        # the scores, as a list, and the n >= 8 Jarque-Bera screen
        assert values[header.index("scores_tilde")].count(";") == 9
        assert values[header.index("jb_p_value")] != ""
    if command.startswith("simulate"):
        assert [row[header.index("d")] for row in rows] == ["8", "16"]


def test_simulate_repeat_runs_byte_identical(capsys, tmp_path):
    argv = [
        "simulate", "--study", "pc", "--model", "a",
        "--d", "8,64,512", "--n", "10", "--R", "200", "--seed", "7",
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code, _, err = _run(capsys, argv + ["--out", str(out1)])
    assert code == 0, err
    code, _, _ = _run(capsys, argv + ["--out", str(out2)])
    assert code == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    header = b1.decode().splitlines()[0].split(",")
    assert header[:4] == ["model", "d", "n", "reps"]
    assert len(b1.decode().splitlines()) == 4  # header + one row per d


def test_simulate_tests_study_csv(capsys, tmp_path):
    out = tmp_path / "t.csv"
    code, _, err = _run(
        capsys,
        [
            "simulate", "--study", "tests", "--d", "8",
            "--R", "8", "--seed", "5", "--out", str(out),
        ],
    )
    assert code == 0, err
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert "size_f1" in header and "power_f3" in header
    assert len(lines) == 2


def test_simulate_json_stdout(capsys):
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--study", "pc", "--model", "b", "--d", "8",
            "--R", "4", "--seed", "2", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["study"] == "estimation"
    assert payload["seed"] == 2
    assert payload["rows"][0]["d"] == 8
    assert payload["rows"][0]["reps"] == 4


def test_simulate_rejects_bad_dimension_list(capsys):
    for text, message in (("8,x", "bad dimension list '8,x'"), (",", "list is empty")):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["simulate", "--d", text])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


def test_power_command_pinned_values(capsys):
    code, out, err = _run(
        capsys,
        [
            "power", "--nu1", "9", "--nu2", "19",
            "--ratio", str(1.0 / 3.0), "--h", str(5.0 / 3.0),
            "--gamma", "1.5",
        ],
    )
    assert code == 0, err
    record = json.loads(out)
    assert record["f1"] == pytest.approx(0.3903, abs=5e-4)
    assert record["f2"] == pytest.approx(0.7263, abs=5e-4)
    assert record["f3"] == pytest.approx(0.9081, abs=5e-4)


def test_power_command_null_is_level(capsys):
    code, out, _ = _run(
        capsys, ["power", "--nu1", "9", "--nu2", "19", "--ratio", "1"]
    )
    assert code == 0
    record = json.loads(out)
    for key in ("f1", "f2", "f3"):
        assert record[key] == pytest.approx(0.05, abs=1e-12)


_POWER = ["power", "--nu1", "9", "--nu2", "19"]


@pytest.mark.parametrize(
    "argv,name",
    [
        (_POWER + ["--ratio", "1.5", "--h", "inf"], "h"),
        (_POWER + ["--ratio", "1.5", "--gamma", "inf"], "gamma"),
        (_POWER + ["--ratio", "nan"], "lambda_ratio"),
        (["ci", "--lambda-tilde", "1", "--kappa", "inf", "--n", "10"], "kappa_tilde"),
        (["ci", "--lambda-tilde", "nan", "--kappa", "1", "--n", "10"], "lambda_tilde_1"),
    ],
)
def test_non_finite_numbers_fail_with_one_named_error(capsys, argv, name):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name} must be finite")
    assert err.count("\n") == 1


_TINY_SIMULATION = ["simulate", "--study", "tests", "--d", "8", "--R", "4"]


def test_simulate_rejects_zero_workers(capsys):
    # the library checks the count; the command reports it on one line
    code, out, err = _run(capsys, _TINY_SIMULATION + ["--workers", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: workers must be")
    assert err.count("\n") == 1


def test_simulate_refuses_alpha_zero(capsys):
    # outside the library's one test-alpha range, (0, 1/2), and named
    # before any replication starts
    code, out, err = _run(capsys, _TINY_SIMULATION + ["--alpha", "0"])
    assert (code, out) == (1, "")
    assert err == "error: test alpha must lie in (0, 1/2), got 0.0\n"


@pytest.mark.parametrize(
    "study,flag,value,owner",
    [
        ("tests", "--model", "b", "pc"),
        ("tests", "--n", "7", "pc"),
        ("pc", "--n1", "5", "tests"),
        ("pc", "--n2", "5", "tests"),
        ("pc", "--alpha", "0.3", "tests"),
    ],
)
def test_simulate_refuses_the_other_studys_flag(
    capsys, monkeypatch, study, flag, value, owner
):
    # named, not dropped, and before any replication starts
    def no_replications(*args, **kwargs):
        raise AssertionError("a replication started before the checks")

    monkeypatch.setattr(simulation, "ordered_map", no_replications)
    argv = ["simulate", "--study", study, "--d", "8", "--R", "4", flag, value]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} belongs to --study {owner}, not {study}\n"


def test_simulate_defaults_are_each_studys_own(capsys):
    # a study's flags left out take the library's defaults, --model a
    tiny = ["simulate", "--d", "8", "--R", "4", "--seed", "3"]
    for study, explicit in (
        ("pc", ["--model", "a", "--n", "10"]),
        ("tests", ["--n1", "10", "--n2", "20", "--alpha", "0.05"]),
    ):
        default = _run(capsys, tiny + ["--study", study])
        assert default[0] == 0, default[2]
        assert default == _run(capsys, tiny + ["--study", study] + explicit)


def test_a_study_sets_the_heap_policy_once_and_the_loader_never(
    capsys, monkeypatch, tmp_path
):
    # each study applies the policy once, in the process that calls it,
    # and its forked workers inherit it; the CSV loader's pool leaves the
    # allocator alone. A stand-in mallopt logs every call, from whichever
    # process makes it, to a file
    log = tmp_path / "mallopt.log"

    def mallopt(param, value):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {param} {value}\n")

    libc = parallel._libc
    monkeypatch.setattr(
        parallel, "_libc", lambda name: mallopt if name == "mallopt" else libc(name)
    )
    once = [
        f"{os.getpid()} {parallel._M_MMAP_THRESHOLD} {parallel._MMAP_THRESHOLD}",
        f"{os.getpid()} {parallel._M_TRIM_THRESHOLD} {parallel._TRIM_THRESHOLD}",
    ]

    def applied() -> list[str]:
        lines = log.read_text().splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return lines

    for workers in (1, 2):
        run_test_mc([8, 16], n1=5, n2=6, reps=4, workers=workers)
        assert applied() == once
        run_estimation_mc("b", [8, 16], n=5, reps=4, workers=workers)
        assert applied() == once
        code, _, _ = _run(capsys, _TINY_SIMULATION + ["--workers", str(workers)])
        assert code == 0
        assert applied() == once

    # a file of many blocks, parsed by a pool of two
    path = tmp_path / "blocks.csv"
    save_matrix(str(path), np.arange(120.0).reshape(40, 3))
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 40)
    monkeypatch.setattr(dataio.os, "sched_getaffinity", lambda pid: {0, 1})
    assert load_matrix(str(path)).values.shape == (40, 3)
    code, _, _ = _run(capsys, ["estimate", "--input", str(path)])
    assert code == 0
    assert applied() == []


def test_a_gram_overflow_fails_with_one_named_error(run_python, tmp_path):
    # finite cells near 1e160 whose squares overflow: a subprocess, so
    # that a RuntimeWarning would print as it does for a user
    path = tmp_path / "big.csv"
    values = np.random.default_rng(3).uniform(0.5, 1.5, size=(50, 10)) * 1e160
    np.savetxt(path, values, fmt="%.17g", delimiter=",")
    proc = run_python("estimate", "--input", path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the Gram matrix overflowed double precision")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def multi_block_csvs(tmp_path_factory):
    # about 16 MB as a spreadsheet writes it, labelled and with CRLF line
    # ends: several parse blocks, so every core parses, and three
    # estimator row blocks; the second file's last cell is no number
    x = np.random.default_rng(7).normal(size=(20000, 40))
    cells = ",".join(["%.17g"] * 40)
    lines = ["gene," + ",".join(f"s{j + 1}" for j in range(40))]
    lines += [f"g{i}," + cells % tuple(row) for i, row in enumerate(x)]
    folder = tmp_path_factory.mktemp("multi_block")
    good, bad = folder / "big.csv", folder / "bad.csv"
    good.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",oops"
    bad.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    return good, bad


def test_estimate_on_a_multi_block_csv_at_one_core_and_at_all(
    run_python, multi_block_csvs, tmp_path
):
    # as a user runs it, pinned to one core and free to use every one
    outputs = []
    for one_core in (True, False):
        out = tmp_path / "est.json"
        argv = ["estimate", "--input", multi_block_csvs[0], "--out", out]
        proc = run_python(*argv, one_core=one_core)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_estimate_names_the_bad_cell_of_a_multi_block_csv_at_one_core_and_at_all(
    run_python, multi_block_csvs, tmp_path
):
    bad = multi_block_csvs[1]
    message = f"error: {bad}: line 20001, column 41: non-numeric value 'oops'\n"
    for one_core in (True, False):
        argv = ["estimate", "--input", bad, "--out", tmp_path / "bad.json"]
        proc = run_python(*argv, one_core=one_core)
        assert (proc.returncode, proc.stderr) == (1, message)


def test_a_failed_command_leaves_its_out_file_alone(capsys, tmp_path):
    # nothing is written until the record is rendered
    out = tmp_path / "ci.json"
    out.write_text("kept\n")
    argv = ["ci", "--lambda-tilde", "1", "--kappa", "inf", "--n", "10"]
    code, _, err = _run(capsys, argv + ["--out", str(out)])
    assert code == 1 and err.startswith("error: kappa_tilde")
    assert out.read_text() == "kept\n"


def test_default_seed_is_pinned():
    args = build_parser().parse_args(["simulate", "--d", "8"])
    assert args.seed == DEFAULT_SEED == 1729


def test_missing_input_file_fails_cleanly(capsys):
    code, out, err = _run(capsys, ["estimate", "--input", "/no/such/file.csv"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
