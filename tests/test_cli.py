"""Command surface: argument handling, output formats, reproducibility."""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nrpca import dataio, parallel
from nrpca.cli import DEFAULT_SEED, WORKERS_ENV, build_parser, main
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
    rng = np.random.default_rng(9)
    path = tmp_path / "tiny.csv"
    save_matrix(str(path), rng.normal(size=(6, 5)))
    code, out, _ = _run(capsys, ["estimate", "--input", str(path)])
    assert code == 0
    record = json.loads(out)
    assert record["jb_statistic"] is None
    assert record["jb_p_value"] is None


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
    code, out, err = _run(
        capsys,
        ["ci", "--lambda-tilde", "2717", "--kappa", "9865", "--n", "20"],
    )
    assert code == 0 and err == ""
    record = json.loads(out)
    want = contribution_ci(2717.0, 9865.0, 20)
    assert record["lower"] == want.lower
    assert record["upper"] == want.upper
    assert record["df"] == 19


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


def test_ci_from_matrix(capsys, spiked_csv):
    code, out, _ = _run(capsys, ["ci", "--input", spiked_csv])
    assert code == 0
    record = json.loads(out)
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
        assert record["mode"] == mode
        assert record["statistic"] > 0
        assert isinstance(record["reject_null"], bool)
        assert (record["nu1"], record["nu2"]) == (9, 11)
    assert "h_star" in record["components"]
    assert "gamma_star" in record["components"]


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


def test_simulate_rejects_bad_dimension_list():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--d", "8,x"])


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


def test_workers_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    args = build_parser().parse_args(["simulate", "--d", "8"])
    assert args.workers == 3

    args = build_parser().parse_args(["simulate", "--d", "8", "--workers", "1"])
    assert args.workers == 1

    monkeypatch.delenv(WORKERS_ENV)
    args = build_parser().parse_args(["simulate", "--d", "8"])
    assert args.workers == 1


@pytest.mark.parametrize("value", ["0", "abc"])
def test_workers_environment_ignored_outside_simulate(capsys, monkeypatch, value):
    monkeypatch.setenv(WORKERS_ENV, value)
    code, out, err = _run(
        capsys, ["ci", "--lambda-tilde", "2717", "--kappa", "9865", "--n", "20"]
    )
    assert code == 0, err
    assert json.loads(out)["df"] == 19
    code, out, err = _run(
        capsys, ["power", "--nu1", "9", "--nu2", "19", "--ratio", "1"]
    )
    assert code == 0, err
    assert json.loads(out)["f1"] == pytest.approx(0.05, abs=1e-12)


_TINY_SIMULATION = ["simulate", "--study", "tests", "--d", "8", "--R", "4"]


def test_simulate_rejects_zero_workers(capsys, monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    code, out, err = _run(capsys, _TINY_SIMULATION + ["--workers", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")

    monkeypatch.setenv(WORKERS_ENV, "0")
    code, out, err = _run(capsys, _TINY_SIMULATION)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_simulate_rejects_non_integer_workers_environment(capsys, monkeypatch):
    # argparse converts the string default and reports a bad value by
    # exiting with status 2 and naming the option.
    monkeypatch.setenv(WORKERS_ENV, "abc")
    with pytest.raises(SystemExit) as exit_info:
        main(_TINY_SIMULATION)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err


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

    monkeypatch.setattr(parallel, "_mallopt", lambda: mallopt)
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


def test_default_seed_is_pinned():
    args = build_parser().parse_args(["simulate", "--d", "8"])
    assert args.seed == DEFAULT_SEED == 1729


def test_missing_input_file_fails_cleanly(capsys):
    code, out, err = _run(capsys, ["estimate", "--input", "/no/such/file.csv"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
