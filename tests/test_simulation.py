"""Scenario generators against their closed-form population targets.

Every generator here has an exact population covariance, so the oracles
are either algebraic (eigenvalues of the loading matrices, bit-level
recursions) or large-sample moment checks with bands a few standard
errors wide. The sha256 digests pin the generated data and the Monte
Carlo output bit for bit.
"""

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import typing
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrpca import dataio, parallel, simulation
from nrpca.dataio import load_matrix
from nrpca.estimators import nr_estimate
from nrpca.inference import asymptotic_power
from nrpca.inference import test_f1 as f1_test
from nrpca.sampling import make_stream, sample_std_normal
from nrpca.simulation import (
    SpikeScenario,
    TwoSampleScenario,
    _spike_transforms,
    gen_ar1,
    gen_spiked,
    gen_two_sample,
    run_estimation_mc,
    run_test_mc,
    spike_eigenvalues,
)


def test_spike_eigenvalues_closed_form():
    lam = spike_eigenvalues("a", 16)
    idx = np.arange(1, 17)
    assert np.array_equal(lam, 16.0 ** (1.0 / idx))
    assert lam[0] == 16.0
    assert lam[1] == 4.0
    assert lam[3] == 2.0

    lam_b = spike_eigenvalues("b", 16)
    assert np.array_equal(lam_b, 16.0 ** (3.0 / (2.0 + 2.0 * idx)))
    assert lam_b[0] == pytest.approx(8.0, rel=1e-14)

    assert np.all(np.diff(lam) < 0)
    assert np.all(np.diff(lam_b) < 0)


def test_spike_eigenvalues_cached_read_only():
    lam = spike_eigenvalues("a", 32)
    assert lam is spike_eigenvalues("a", 32)
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        spike_eigenvalues("c", 8)
    with pytest.raises(ValueError):
        spike_eigenvalues("a", 0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        SpikeScenario(model="x", d=8, n=10, seed=0)
    with pytest.raises(ValueError):
        SpikeScenario(model="a", d=3, n=10, seed=0)
    with pytest.raises(ValueError):
        SpikeScenario(model="a", d=8, n=2, seed=0)
    with pytest.raises(ValueError):
        TwoSampleScenario(hypothesis="H2", d=8, n1=10, n2=20, seed=0)
    with pytest.raises(ValueError):
        TwoSampleScenario(hypothesis="H0", d=7, n1=10, n2=20, seed=0)


def test_scenarios_hold_python_ints():
    # the scenarios are the studies' one check of d, the sample sizes and
    # the seed, and they store what the check returns
    spike = SpikeScenario("a", np.int64(8), np.int32(10), np.uint64(3))
    pair = TwoSampleScenario("H0", np.int16(8), np.int64(5), np.uint8(6), np.int64(3))
    for scenario in (spike, pair):
        for field in dataclasses.fields(scenario)[1:]:
            assert type(getattr(scenario, field.name)) is int, field.name
    assert spike == SpikeScenario("a", 8, 10, 3)
    assert pair == TwoSampleScenario("H0", 8, 5, 6, 3)
    # with several arguments bad, a study names the first its scenario checks
    with pytest.raises(ValueError, match="^model must be"):
        run_estimation_mc("q", [8], n=2)
    with pytest.raises(ValueError, match="^d must be an integer >= 8"):
        run_test_mc([4], n1=2, reps=2)


@pytest.mark.parametrize(
    "name, call, listed",
    [
        (
            "alternative",
            lambda v: f1_test(1.0, 2.0, 10, 20, alternative=v),
            "'two-sided' or 'less'",
        ),
        (
            "which",
            lambda v: asymptotic_power(9, 19, 1.5, which=v),
            "'f1', 'f2' or 'f3'",
        ),
        ("model", lambda v: SpikeScenario(model=v, d=8, n=10, seed=0), "'a' or 'b'"),
        (
            "hypothesis",
            lambda v: TwoSampleScenario(hypothesis=v, d=8, n1=10, n2=20, seed=0),
            "'H0' or 'Ha'",
        ),
        ("model", lambda v: spike_eigenvalues(v, 8), "'a' or 'b'"),
    ],
)
def test_each_choice_names_its_options(name, call, listed):
    # a choice is compared exactly: another case is refused, and so is a
    # value that is not a string, with the same message
    for value in ("F1", "A", "h0", 3, None):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be {listed}, got {value!r}"


def test_gen_spiked_truth_fields():
    rng = make_stream(42, 1)
    sample = gen_spiked(SpikeScenario(model="a", d=16, n=10, seed=42), rng)
    assert sample.x.values.shape == (16, 10)
    assert sample.lambda1 == 16.0
    # the true direction is the first axis, so the sample holds no vector of it
    fields = [field.name for field in dataclasses.fields(sample)]
    assert fields == ["x", "lambda1", "true_scores"]
    # the first row is the scaled first innovation row, which is exactly
    # the true score vector
    assert np.array_equal(sample.true_scores, sample.x.values[0])

    rng = make_stream(42, 1)
    sample_b = gen_spiked(SpikeScenario(model="b", d=16, n=10, seed=42), rng)
    assert sample_b.lambda1 == pytest.approx(8.0, rel=1e-14)


def test_gen_spiked_draw_order_reproducible():
    # gaussian block first, then the heavy blockstream consumption must
    # match an explicit replay of the same substream
    d, n = 16, 10
    rng = make_stream(7, 3)
    sample = gen_spiked(SpikeScenario(model="a", d=d, n=n, seed=7), rng)

    replay = make_stream(7, 3)
    d_star = 4  # ceil(sqrt(16))
    z_gauss = sample_std_normal(replay, (d - d_star, n))
    assert np.array_equal(sample.x.values[0], math.sqrt(16.0) * z_gauss[0])


def test_gen_spiked_population_covariance():
    # one long draw; sample second moments against diag(lambda)
    d, n = 8, 100_000
    rng = make_stream(11, 8)
    sample = gen_spiked(SpikeScenario(model="a", d=d, n=n, seed=11), rng)
    x = sample.x.values
    second = x @ x.T / n
    lam = spike_eigenvalues("a", d)
    for i in range(d):
        assert abs(second[i, i] - lam[i]) <= 0.05 * lam[i]
        for j in range(i + 1, d):
            assert abs(second[i, j]) <= 0.05 * math.sqrt(lam[i] * lam[j])


def test_gen_ar1_zero_rho_is_scaled_noise():
    rng = make_stream(5, 1)
    out = gen_ar1(6, 0.0, 2.0, rng, size=4)
    replay = make_stream(5, 1)
    e = sample_std_normal(replay, (6, 4))
    assert np.array_equal(out, math.sqrt(2.0) * e)


def test_gen_ar1_matches_explicit_recursion():
    d, size, rho, scale = 6, 5, 0.37, 1.7
    rng = make_stream(9, 2)
    out = gen_ar1(d, rho, scale, rng, size=size)

    replay = make_stream(9, 2)
    e = sample_std_normal(replay, (d, size))
    e[0] *= math.sqrt(scale)
    e[1:] *= math.sqrt(scale * (1.0 - rho * rho))
    expected = np.empty_like(e)
    expected[0] = e[0]
    for t in range(1, d):
        expected[t] = e[t] + rho * expected[t - 1]
    assert np.array_equal(out, expected)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@example(d=7, size=0, rho=0.3, scale=1.0, key=5)  # dtbsv rejects an empty vector
@example(d=1, size=3, rho=0.3, scale=2.0, key=5)  # a recursion with no step
@given(
    d=st.integers(1, 300),
    size=st.integers(0, 25),
    rho=st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    scale=st.floats(-300.0, 300.0).map(lambda k: 10.0**k),
    key=st.integers(0, 2**32),
)
def test_gen_ar1_is_the_python_float_recursion_bit_for_bit(d, size, rho, scale, key):
    out = gen_ar1(d, rho, scale, make_stream(key, 3), size)
    e = sample_std_normal(make_stream(key, 3), (d, size)).tolist()
    first, rest = math.sqrt(scale), math.sqrt(scale * (1.0 - rho * rho))
    expected = np.empty((d, size))
    for j in range(size):
        x = expected[0, j] = first * e[0][j]
        for t in range(1, d):
            x = expected[t, j] = rest * e[t][j] + rho * x
    assert out.shape == (d, size)
    assert out.tobytes() == expected.tobytes()


# the sha256 of gen_ar1(2046, 0.3, 1.5, make_stream(28, 1), 20), the size
# of the tests study's tail; scipy.signal.lfilter gave these bits too
AR1_DIGEST = "ec3b62c5d129e21cc863a979ed8d1283179edcff480a073df2fdebf15e15f5ff"
# what _spiked_digest(model, d) and _two_sample_digest(hypothesis, d)
# below return for each key
SPIKED_DIGESTS = {
    ("a", 8): "45f50113d02b19d4fd7ae220d600baae61f5f9d33da1e9cae250c38caa71ccde",
    ("a", 8192): "2ece7b0282eb56630729da872c4eed6885aef7b53d6d9b4b5b62197fd39ec99a",
    ("b", 8): "f60f54cae4f76e36441722cce000e76cff7ae8f8c99f7d44d013f5be29f356c4",
    ("b", 8192): "f91dba37b72dfa55091cbc14c2e6ea47b8d9055de18d48735876071333eda57e",
}
TWO_SAMPLE_DIGESTS = {
    ("H0", 8): "55a4ece5c9c0497b8c06d3400836d231cffa664d900fe8e3cb5e9f66ca5b3a28",
    ("H0", 2048): "43bb6768ab89cc4f8cae769550a2b92943ccf3a673583a05cd47eb090308ebe1",
    ("Ha", 8): "ae2386ad3a824254c9edcc1be4fd0157ec75181b78b0efb54d6bba52463ef949",
    ("Ha", 2048): "089f5a4f9bc656b8b65353b8012c6a85171d7cee7111cfcf1b1c346bcc14eaa7",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _spiked_digest(model, d):
    draw = gen_spiked(SpikeScenario(model=model, d=d, n=10, seed=0), make_stream(9, d))
    # the digest includes the true direction, the first axis
    return _digest(draw.x.values, draw.true_scores, np.eye(d)[0], draw.lambda1)


def _two_sample_digest(hypothesis, d):
    scenario = TwoSampleScenario(hypothesis=hypothesis, d=d, n1=10, n2=20, seed=0)
    draw = gen_two_sample(scenario, make_stream(4, d))
    return _digest(draw.x1.values, draw.x2.values)


@pytest.mark.parametrize(
    "env",
    [{}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Nehalem"},
     {"OPENBLAS_NUM_THREADS": "1"}],
    ids=["default", "Haswell", "Nehalem", "one-thread"],
)
def test_gen_ar1_bits_do_not_depend_on_the_blas_kernel(run_python, env):
    # the filter's dot has length one, so no kernel can fuse or reorder
    # it; Nehalem has no FMA, Haswell has one. The spiked and the null
    # two-sample draws keep their frozen bits too; the alternative is
    # left out, as its 2x2 loading product rounds otherwise without FMA
    null = [key for key in TWO_SAMPLE_DIGESTS if key[0] == "H0"]
    helpers = (_digest, _spiked_digest, _two_sample_digest)
    proc = run_python(
        code="import hashlib\n"
        "import numpy as np\n"
        "from nrpca.sampling import make_stream\n"
        "from nrpca.simulation import (\n"
        "    SpikeScenario, TwoSampleScenario, gen_ar1, gen_spiked, gen_two_sample\n"
        ")\n"
        + "".join(map(inspect.getsource, helpers))
        + "print(_digest(gen_ar1(2046, 0.3, 1.5, make_stream(28, 1), 20)))\n"
        + f"for key in {list(SPIKED_DIGESTS)!r}:\n    print(_spiked_digest(*key))\n"
        + f"for key in {null!r}:\n    print(_two_sample_digest(*key))\n",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    want = [AR1_DIGEST, *SPIKED_DIGESTS.values(), *map(TWO_SAMPLE_DIGESTS.get, null)]
    assert proc.stdout.split() == want


def test_gen_ar1_single_vector_shape():
    rng = make_stream(5, 2)
    out = gen_ar1(10, 0.3, 1.0, rng, 1)
    assert out.shape == (10, 1)
    with pytest.raises(TypeError, match="^size must be an integer"):
        gen_ar1(10, 0.3, 1.0, rng, None)
    with pytest.raises(ValueError):
        gen_ar1(0, 0.3, 1.0, rng, 1)
    with pytest.raises(ValueError):
        gen_ar1(5, 1.0, 1.0, rng, 1)
    with pytest.raises(ValueError):
        gen_ar1(5, 0.3, 0.0, rng, 1)
    for scale in (math.nan, math.inf):
        # nan used to give all-nan data, and inf [inf, nan, ...]
        with pytest.raises(ValueError, match="^scale must be positive and finite"):
            gen_ar1(5, 0.3, scale, rng, 1)


def test_gen_ar1_stationary_moments():
    rho, scale = 0.3, 2.0
    rng = make_stream(77, 3)
    x = gen_ar1(3, rho, scale, rng, size=400_000)
    for i in range(3):
        assert abs(np.var(x[i]) - scale) <= 0.02 * scale
    corr = np.corrcoef(x)
    assert abs(corr[0, 1] - rho) <= 0.01
    assert abs(corr[1, 2] - rho) <= 0.01
    assert abs(corr[0, 2] - rho * rho) <= 0.01


def test_spike_transforms_null_and_alternative():
    b1, b2 = _spike_transforms("H0", 256)
    assert np.array_equal(b1, b2)
    cov1 = b1 @ b1.T
    assert cov1 == pytest.approx(np.diag([256.0**0.75, 256.0**0.5]))

    b1, b2 = _spike_transforms("Ha", 256)
    cov2 = b2 @ b2.T
    want = np.sort([3.0 * 256.0**0.75, 1.5 * 256.0**0.5])
    assert np.linalg.eigvalsh(cov2) == pytest.approx(want, rel=1e-12)
    # rotated top direction keeps inner product 1/3 with the first axis
    vals, vecs = np.linalg.eigh(cov2)
    top = vecs[:, np.argmax(vals)]
    assert abs(top[0]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_gen_two_sample_shapes_and_truth():
    rng = make_stream(3, 1)
    draw = gen_two_sample(
        TwoSampleScenario(hypothesis="H0", d=8, n1=5, n2=7, seed=3), rng
    )
    assert draw.x1.values.shape == (8, 5)
    assert draw.x2.values.shape == (8, 7)

    # the truth is a function of the hypothesis alone, as
    # `TwoSampleScenario` states; `test_spike_transforms_null_and_alternative`
    # checks its eigenvalue ratio and inner product
    rng = make_stream(3, 2)
    draw = gen_two_sample(
        TwoSampleScenario(hypothesis="Ha", d=8, n1=5, n2=7, seed=3), rng
    )
    assert draw.x1.values.shape == (8, 5)
    assert draw.x2.values.shape == (8, 7)


def test_gen_two_sample_alternative_spike_moments():
    # the second sample's top block second moment should track
    # rotation-of-diag(3 d^(3/4), 1.5 sqrt(d)) at large n
    d, n = 64, 20_000
    rng = make_stream(19, 5)
    draw = gen_two_sample(
        TwoSampleScenario(hypothesis="Ha", d=d, n1=3, n2=n, seed=19), rng
    )
    top = draw.x2.values[:2]
    second = top @ top.T / n
    want = 3.0 * d**0.75
    got = float(np.linalg.eigvalsh(second)[-1])
    assert abs(got - want) <= 0.03 * want


def test_run_estimation_mc_two_rep_variance():
    out = run_estimation_mc(
        "a", [8], n=10, reps=2, seed=4, keep_samples=True
    )
    row = out.rows[0]
    for name in ("lambda_tilde", "h_tilde", "mse_hat"):
        v1, v2 = out.samples[(8, name)]
        want_var = (v1 - v2) ** 2 / 2.0
        got_var = getattr(row, f"{name}_var")
        assert got_var == pytest.approx(want_var, rel=1e-12)
        assert getattr(row, f"{name}_mean") == pytest.approx(
            (v1 + v2) / 2.0, rel=1e-12
        )
        assert getattr(row, f"{name}_se") == pytest.approx(
            math.sqrt(want_var / 2.0), rel=1e-12
        )


def test_run_estimation_mc_deterministic():
    a = run_estimation_mc("a", [8, 16], n=10, reps=6, seed=12)
    b = run_estimation_mc("a", [8, 16], n=10, reps=6, seed=12)
    assert a.as_records() == b.as_records()
    c = run_estimation_mc("a", [8, 16], n=10, reps=6, seed=13)
    assert a.as_records() != c.as_records()


def _assert_same_summary(a, b):
    assert a.as_records() == b.as_records()
    assert list(a.samples) == list(b.samples)
    for key, values in a.samples.items():
        assert values.tobytes() == b.samples[key].tobytes()


def test_run_estimation_mc_worker_count_invariant():
    # one and several dimensions, and fewer replications than workers
    for d_values, reps, workers in (
        ([8], 8, 2), ([8, 16, 32], 8, 2), ([8, 16, 32], 3, 8)
    ):
        a = run_estimation_mc(
            "b", d_values, n=10, reps=reps, seed=2, workers=1,
            keep_samples=True,
        )
        b = run_estimation_mc(
            "b", d_values, n=10, reps=reps, seed=2, workers=workers,
            keep_samples=True,
        )
        _assert_same_summary(a, b)


def _recorded_pool_sizes(monkeypatch):
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_process_pool_capped_at_job_count(monkeypatch):
    # 3 jobs per study at 8 workers on 8 cores: the pool gets 3 processes
    sizes = _recorded_pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    pooled = run_estimation_mc(
        "b", [8], n=10, reps=3, seed=2, workers=8, keep_samples=True
    )
    serial = run_estimation_mc(
        "b", [8], n=10, reps=3, seed=2, workers=1, keep_samples=True
    )
    _assert_same_summary(serial, pooled)
    pooled = run_test_mc(
        [8], n1=5, n2=6, reps=6, seed=21, workers=8, keep_samples=True
    )
    serial = run_test_mc(
        [8], n1=5, n2=6, reps=6, seed=21, workers=1, keep_samples=True
    )
    _assert_same_summary(serial, pooled)
    assert sizes == [3, 3]
    # and at one process per core: 1000 workers on 2 cores get 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    sizes.clear()
    pooled = run_estimation_mc(
        "b", [8], n=10, reps=3, seed=2, workers=1000, keep_samples=True
    )
    serial = run_estimation_mc(
        "b", [8], n=10, reps=3, seed=2, workers=1, keep_samples=True
    )
    _assert_same_summary(serial, pooled)
    assert sizes == [2]


def _three_block_csv(tmp_path):
    # 30 lines of 20 bytes: 3 blocks of 200 bytes, cut after lines 10 and 20
    values = 1000.0 + np.arange(120.0).reshape(30, 4)
    path = tmp_path / "m.csv"
    path.write_text("".join(",".join(f"{v:.0f}" for v in row) + "\n" for row in values))
    return path, values


def test_load_matrix_pool_capped_at_block_count(tmp_path, monkeypatch):
    # one pool per multi-block load, with one process per usable core up
    # to one per block, and the same bytes at every core count
    sizes = _recorded_pool_sizes(monkeypatch)
    path, values = _three_block_csv(tmp_path)
    loaded = {}
    for cores in (1, 2, 8):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            assert load_matrix(str(path)).values.tobytes() == values.tobytes()
            patch.setattr(dataio, "_BLOCK_BYTES", 200)
            loaded[cores] = load_matrix(str(path)).values.tobytes()
    assert sizes == [2, 3]
    assert loaded[1] == loaded[2] == loaded[8] == values.tobytes()


def test_a_load_keeps_no_workers(tmp_path, monkeypatch):
    # a file is read once, so a multi-block load's workers are gone
    # before it returns, and before the caller uses the matrix
    path, values = _three_block_csv(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 200)
    joined = []
    concatenate = np.concatenate

    def recording_concatenate(*args, **kwargs):
        joined.append(multiprocessing.active_children())
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(dataio.np, "concatenate", recording_concatenate)
    assert load_matrix(str(path)).values.tobytes() == values.tobytes()
    assert joined and all(children == [] for children in joined)


def test_pool_is_forked_once_per_function(tmp_path, monkeypatch):
    # two studies of one kind map onto one pool; a study of the other
    # kind and a multi-block load each fork a pool of their own, and
    # every row is the one a single worker gives
    sizes = _recorded_pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for seed in (2, 3):
        pooled = run_estimation_mc(
            "b", [8, 64], n=10, reps=4, seed=seed, workers=2, keep_samples=True
        )
        serial = run_estimation_mc(
            "b", [8, 64], n=10, reps=4, seed=seed, workers=1, keep_samples=True
        )
        _assert_same_summary(serial, pooled)
    assert sizes == [2]
    pooled = run_test_mc(
        [8], n1=5, n2=6, reps=6, seed=21, workers=2, keep_samples=True
    )
    serial = run_test_mc(
        [8], n1=5, n2=6, reps=6, seed=21, workers=1, keep_samples=True
    )
    _assert_same_summary(serial, pooled)
    assert sizes == [2, 2]
    path, values = _three_block_csv(tmp_path)
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 200)
    assert load_matrix(str(path)).values.tobytes() == values.tobytes()
    assert sizes == [2, 2, 2]


def _fails_at_three(job):
    if job == 3:
        raise KeyError(job)
    return job


def _exits_at_three(job):
    if job == 3:
        os._exit(1)
    return job


@pytest.mark.parametrize(
    "job, error", [(_fails_at_three, KeyError), (_exits_at_three, BrokenProcessPool)]
)
def test_a_failed_map_shuts_its_pool_down(job, error, monkeypatch):
    # the caller gets the job's error, or the broken pool's; the pool's
    # workers are gone, and the next pooled study forks a working one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    serial = run_estimation_mc(
        "b", [8, 64], n=10, reps=4, seed=2, workers=1, keep_samples=True
    )
    with pytest.raises(error):
        parallel.ordered_map(job, list(range(8)), workers=2)
    assert multiprocessing.active_children() == []
    assert parallel.ordered_map(job, [0, 1, 2, 4], workers=2) == [0, 1, 2, 4]
    pooled = run_estimation_mc(
        "b", [8, 64], n=10, reps=4, seed=2, workers=2, keep_samples=True
    )
    _assert_same_summary(serial, pooled)


def _study_in_a_process_group(study, options):
    # its own group, so a failing test can stop it with its workers
    os.setpgid(0, 0)
    run_estimation_mc(*study, **options)


def test_a_pooled_study_in_a_child_process_exits(monkeypatch):
    # the child sees its parent's pool as another process's and forks its
    # own, which it shuts down before multiprocessing joins its children
    # at exit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    study = ("b", [8, 64])
    options = {"n": 10, "reps": 4, "seed": 2, "workers": 2}
    run_estimation_mc(*study, **options)
    child = multiprocessing.get_context("fork").Process(
        target=_study_in_a_process_group, args=(study, options)
    )
    child.start()
    child.join(60)
    alive = child.is_alive()
    if alive:
        os.killpg(child.pid, signal.SIGKILL)
        child.join()
    assert not alive and child.exitcode == 0


_POOL_LIFETIME = """
import os, sys
import nrpca, nrpca.simulation
assert "multiprocessing" not in sys.modules
assert "concurrent.futures" not in sys.modules
import multiprocessing
os.sched_getaffinity = lambda pid: {0, 1}
nrpca.simulation.run_estimation_mc("b", [8, 64], n=10, reps=4, seed=2, workers=2)
print(*(process.pid for process in multiprocessing.active_children()))
"""


def test_the_cached_pool_is_shut_down_at_exit(run_python):
    # a pooled study leaves its workers running to the end of the
    # process, which then joins them, quietly
    proc = run_python(code=_POOL_LIFETIME)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


_INTERRUPTED_POOL = """
import contextlib, os, signal
import multiprocessing, multiprocessing.connection
import nrpca.simulation
os.sched_getaffinity = lambda pid: {0, 1}
def rows():
    return nrpca.simulation.run_estimation_mc(
        "b", [8, 64], n=10, reps=4, seed=2, workers=2
    ).as_records()
first = rows()
workers = multiprocessing.active_children()
for worker in workers:
    # the pool ends the others when it sees one worker gone, and may
    # have reaped one already
    with contextlib.suppress(ProcessLookupError):
        os.kill(worker.pid, signal.SIGINT)
ended = [multiprocessing.connection.wait([w.sentinel], 60) for w in workers]
print(len(workers), all(ended), rows() == first)
"""


def test_a_ctrl_c_ends_kept_workers_quietly(run_python):
    # a Ctrl-C signals the whole foreground process group: the idle kept
    # workers end without a traceback, and the next study maps on a
    # fresh pool, to the same rows
    proc = run_python(code=_INTERRUPTED_POOL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split() == ["2", "True", "True"]


def _describe(worker) -> str:
    """The worker's pid, whether the kept pool holds it, and its state
    and signal masks as Linux's /proc reports them."""
    pool = parallel._pool[1] if parallel._pool is not None else None
    kept = pool is not None and worker.pid in (pool._processes or {})
    fields = ("State", "SigPnd", "ShdPnd", "SigBlk", "SigIgn", "SigCgt")
    try:
        status = Path(f"/proc/{worker.pid}/status").read_text()
    except OSError as error:
        masks = f"no status ({error})"
    else:
        masks = "; ".join(
            line for line in status.splitlines() if line.split(":")[0] in fields
        )
    return f"pid {worker.pid}, in the kept pool: {kept}, {masks}"


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGKILL], ids=["SIGINT", "SIGKILL"]
)
def test_a_kept_pool_that_lost_a_worker_is_replaced(signum, monkeypatch):
    # a Ctrl-C or the OOM killer can end a worker while the pool waits
    # between studies; the next study maps again on a fresh pool
    sizes = _recorded_pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    study = ("b", [8, 64])
    options = {"n": 10, "reps": 4, "seed": 2, "keep_samples": True}
    serial = run_estimation_mc(*study, workers=1, **options)
    run_estimation_mc(*study, workers=2, **options)
    worker = multiprocessing.active_children()[0]
    # either signal ends a worker, busy or idle, since workers give
    # SIGINT its default action. Its sentinel says when it has ended:
    # once the pool's manager thread has reaped it, and until that
    # thread records the exit code, `exitcode` reads None and `join`
    # returns at once
    for _ in range(100):
        with contextlib.suppress(ProcessLookupError):
            os.kill(worker.pid, signum)
        if multiprocessing.connection.wait([worker.sentinel], 0.3):
            break
    else:
        pytest.fail(f"the worker outlived its signals: {_describe(worker)}")
    _assert_same_summary(serial, run_estimation_mc(*study, workers=2, **options))
    assert sizes == [2, 2]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
def test_a_pool_forked_in_an_ended_thread_is_replaced(monkeypatch):
    # a worker dies with the thread that forked it, so a pool kept from
    # a thread that has ended is broken, and is replaced
    sizes = _recorded_pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    study = ("b", [8, 64])
    options = {"n": 10, "reps": 4, "seed": 2, "keep_samples": True}
    serial = run_estimation_mc(*study, workers=1, **options)
    workers = []

    def pooled_study():
        run_estimation_mc(*study, workers=2, **options)
        workers.extend(multiprocessing.active_children())

    thread = threading.Thread(target=pooled_study)
    thread.start()
    thread.join()
    # join returns before the thread itself has ended
    deadline = time.monotonic() + 30
    while any(w.exitcode is None for w in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(workers) == 2 and all(w.exitcode is not None for w in workers)
    _assert_same_summary(serial, run_estimation_mc(*study, workers=2, **options))
    assert sizes == [2, 2]


# a semaphore and an event that the at-fork test sets before its pool
# forks, so that the pool's workers share them
_started = _release = None


def _held_until_released(job):
    _started.release()
    _release.wait(60)
    return job


def _square(job):
    return job * job


def _map_in_a_process_group(conn):
    # its own group, so a failing test can stop it with its workers
    os.setpgid(0, 0)
    conn.send(parallel.ordered_map(_square, [1, 2, 3, 4], workers=2))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork hooks")
def test_a_process_forked_during_a_map_maps_on_a_pool_of_its_own(monkeypatch):
    # a process forked while another thread holds the pool lock, inside
    # its map, gets a lock of its own: its copy of the held one would
    # never be released, and its first map would wait forever
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    context = multiprocessing.get_context("fork")
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "_started", context.Semaphore(0))
    monkeypatch.setattr(module, "_release", context.Event())
    mapped = []
    thread = threading.Thread(
        target=lambda: mapped.extend(
            parallel.ordered_map(_held_until_released, [5, 6], workers=2)
        )
    )
    thread.start()
    try:
        # both jobs running: the thread has submitted them and waits
        # inside its map, holding the lock
        assert all(_started.acquire(timeout=60) for _ in range(2))
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_map_in_a_process_group, args=(sender,))
        child.start()
        sender.close()
        child.join(20)
        alive = child.is_alive()
        if alive:
            os.killpg(child.pid, signal.SIGKILL)
            child.join()
        got = receiver.recv() if child.exitcode == 0 else None
        receiver.close()
    finally:
        _release.set()
        thread.join(60)
    assert not alive, "the child's map waited on a lock held in its parent"
    assert got == [1, 4, 9, 16]
    assert not thread.is_alive() and mapped == [5, 6]


def _gone(pid):
    # a worker whose owner was killed is reaped by whoever adopted it,
    # which may leave it a zombie for a while
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


_KEPT_POOL_OWNER = """
import os, time
import multiprocessing
import nrpca.simulation
os.sched_getaffinity = lambda pid: {0, 1}
nrpca.simulation.run_estimation_mc("b", [8, 64], n=10, reps=4, seed=2, workers=2)
print(*(process.pid for process in multiprocessing.active_children()), flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
def test_kept_workers_end_with_an_owner_killed_by_a_signal():
    # a SIGKILLed owner never shuts its pool down; its workers must not
    # wait on their call queue forever
    env = dict(os.environ, PYTHONPATH=str(Path(simulation.__file__).parents[1]))
    owner = subprocess.Popen(
        [sys.executable, "-c", _KEPT_POOL_OWNER],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 30
    while not all(map(_gone, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if not _gone(pid)]
    for pid in left:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    assert left == []


def test_load_matrix_in_a_daemonic_process(tmp_path, monkeypatch):
    # a multiprocessing.Pool worker may not start processes: it parses
    # every block itself
    path, values = _three_block_csv(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 200)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        loaded = pool.apply_async(load_matrix, (str(path),)).get(timeout=60)
    assert loaded.values.tobytes() == values.tobytes()


def test_simulate_in_a_daemonic_process():
    # a multiprocessing.Pool worker may not start processes: it runs
    # every replication itself, with the rows of a pooled run
    pooled = run_estimation_mc("b", [8], reps=3, seed=4, workers=2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        job = pool.apply_async(
            run_estimation_mc, ("b", [8]), {"reps": 3, "seed": 4, "workers": 2}
        )
        nested = job.get(timeout=60)
    assert nested.rows == pooled.rows


def test_run_estimation_mc_keep_samples_shapes():
    out = run_estimation_mc("a", [8], n=10, reps=5, seed=1, keep_samples=True)
    assert set(k[1] for k in out.samples) == {
        "lambda_tilde",
        "lambda_hat",
        "h_tilde",
        "h_hat",
        "mse_tilde",
        "mse_hat",
    }
    assert all(v.shape == (5,) for v in out.samples.values())
    plain = run_estimation_mc("a", [8], n=10, reps=5, seed=1)
    assert plain.samples is None


def test_run_estimation_mc_score_mse_matches_a_recomputation():
    seed, d, n, reps = 7, 16, 10, 4
    out = run_estimation_mc("b", [d], n=n, reps=reps, seed=seed, keep_samples=True)
    scenario = SpikeScenario(model="b", d=d, n=n, seed=seed)
    for rep in range(reps):
        draw = gen_spiked(scenario, make_stream(seed, d, rep, 0))
        est = nr_estimate(draw.x)
        # the true direction is the first axis: point the estimate along it
        sign = 1.0 if est.h_tilde_1[0] >= 0.0 else -1.0
        for name, scores in (("tilde", est.scores_tilde), ("hat", est.scores_hat)):
            want = np.mean((sign * scores - draw.true_scores) ** 2) / draw.lambda1
            got = out.samples[(d, f"mse_{name}")][rep]
            assert got == pytest.approx(want, rel=1e-12), (rep, name)


def test_run_estimation_mc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_estimation_mc("a", [8], reps=1)
    with pytest.raises(ValueError):
        run_estimation_mc("a", [], reps=4)
    with pytest.raises(ValueError):
        run_estimation_mc("q", [8], reps=4)


def test_simulation_counts_and_seeds_must_be_integers(monkeypatch):
    # each used to be truncated by int() or to fail inside a replication
    def no_replications(*args, **kwargs):
        raise AssertionError("a replication started before the checks")

    monkeypatch.setattr(simulation, "ordered_map", no_replications)
    rng = make_stream(0, 1)
    calls = [
        ("n1", lambda: run_test_mc([8], n1=10.0, n2=12, reps=2)),
        ("n", lambda: run_estimation_mc("b", [8], n=10.0, reps=2)),
        ("reps", lambda: run_estimation_mc("b", [8], reps=3.5)),
        ("reps", lambda: run_test_mc([8], reps=4.5)),
        ("d_values", lambda: run_test_mc([8.9], reps=4)),
        ("d_values", lambda: run_estimation_mc("b", [8.0], reps=2)),
        ("seed", lambda: run_estimation_mc("b", [8], reps=2, seed=1.7)),
        ("seed", lambda: run_test_mc([8], reps=2, seed=2.0)),
        ("d", lambda: gen_ar1(8.9, 0.3, 1.0, rng, 1)),
        ("size", lambda: gen_ar1(8, 0.3, 1.0, rng, size=2.7)),
        ("d", lambda: spike_eigenvalues("a", 8.9)),
        ("d", lambda: SpikeScenario(model="a", d=True, n=10, seed=0)),
        ("n2", lambda: TwoSampleScenario(hypothesis="H0", d=8, n1=10, n2=20.0, seed=0)),
    ]
    for w in (2.5, True, "2"):
        calls.append(("workers", lambda w=w: run_test_mc([8], reps=2, workers=w)))
        calls.append(("workers", lambda w=w: run_estimation_mc("b", [8], reps=2, workers=w)))
    for name, call in calls:
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call()
    for workers in (0, -1):
        with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
            run_test_mc([8], reps=2, workers=workers)
        with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
            run_estimation_mc("b", [8], reps=2, workers=workers)
    spike_eigenvalues("a", 8)
    with pytest.raises(TypeError, match="^d must be an integer"):
        spike_eigenvalues("a", 8.0)  # not the cached entry for 8
    with pytest.raises(ValueError, match="^seed must be a 64-bit"):
        run_test_mc([8], reps=2, seed=-1)


def test_numpy_integer_counts_give_the_same_rows():
    plain = run_estimation_mc("b", [8], n=5, reps=3, seed=3)
    typed = run_estimation_mc(
        "b", [np.int64(8)], n=np.int32(5), reps=np.int64(3), seed=np.uint64(3)
    )
    assert json.dumps(typed.as_records()) == json.dumps(plain.as_records())
    plain = run_test_mc([8], n1=5, n2=6, reps=2, seed=3)
    typed = run_test_mc(
        [np.int16(8)], n1=np.int64(5), n2=np.int64(6), reps=np.int64(2), seed=np.int64(3)
    )
    assert json.dumps(typed.as_records()) == json.dumps(plain.as_records())


def test_run_test_mc_refuses_alpha_zero(monkeypatch):
    # refused before any replication starts
    monkeypatch.setattr(simulation, "ordered_map", None)
    with pytest.raises(ValueError, match=r"^test alpha must lie in \(0, 1/2\)"):
        run_test_mc([8], n1=5, n2=6, reps=4, alpha=0.0, seed=3)


def test_run_test_mc_requires_even_reps():
    with pytest.raises(ValueError):
        run_test_mc([8], reps=5)
    with pytest.raises(ValueError):
        run_test_mc([8], alpha=0.5)


def test_run_test_mc_deterministic_and_samples():
    a = run_test_mc([8], n1=5, n2=6, reps=8, seed=21, keep_samples=True)
    b = run_test_mc([8], n1=5, n2=6, reps=8, seed=21, keep_samples=True)
    assert a.as_records() == b.as_records()
    for key, values in a.samples.items():
        assert values.shape == (4,)
        assert np.array_equal(values, b.samples[key])
    assert {k[1] for k in a.samples} == {
        "f1_null",
        "f1_alt",
        "f2_null",
        "f2_alt",
        "f3_null",
        "f3_alt",
    }
    assert np.all(a.samples[(8, "f1_null")] > 0)


def test_run_test_mc_worker_count_invariant():
    # reps=6 leaves 3 replications per arm for 8 workers
    for d_values, reps, workers in (
        ([8], 8, 2), ([8, 16, 32], 8, 2), ([8, 16, 32], 6, 8)
    ):
        a = run_test_mc(
            d_values, n1=5, n2=6, reps=reps, seed=21, workers=1,
            keep_samples=True,
        )
        b = run_test_mc(
            d_values, n1=5, n2=6, reps=reps, seed=21, workers=workers,
            keep_samples=True,
        )
        _assert_same_summary(a, b)


def test_row_columns_are_pinned_and_rows_pickle():
    # the columns of `as_records()` and of `simulate`'s CSV, in order
    estimation = [("model", str), ("d", int), ("n", int), ("reps", int)] + [
        (name, float)
        for name in (
            "lambda_tilde_mean", "lambda_tilde_var", "lambda_tilde_se",
            "lambda_hat_mean", "lambda_hat_var", "lambda_hat_se",
            "h_tilde_mean", "h_tilde_var", "h_tilde_se",
            "h_hat_mean", "h_hat_var", "h_hat_se",
            "mse_tilde_mean", "mse_tilde_var", "mse_tilde_se",
            "mse_hat_mean", "mse_hat_var", "mse_hat_se",
        )
    ]
    tests = [("d", int), ("n1", int), ("n2", int), ("alpha", float), ("reps", int)] + [
        (name, float)
        for name in (
            "size_f1", "size_f2", "size_f3",
            "size_se_f1", "size_se_f2", "size_se_f3",
            "power_f1", "power_f2", "power_f3",
            "power_se_f1", "power_se_f2", "power_se_f3",
        )
    ]
    studies = (
        (simulation.EstimationRow, estimation, run_estimation_mc("a", [8], reps=2)),
        (simulation.TestRow, tests, run_test_mc([8], n1=5, n2=6, reps=2)),
    )
    for cls, want, summary in studies:
        hints = typing.get_type_hints(cls)
        assert [(f.name, hints[f.name]) for f in dataclasses.fields(cls)] == want
        assert cls.__module__ == "nrpca.simulation"
        (row,) = summary.rows
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.d = 9
        copy = pickle.loads(pickle.dumps(row))
        assert type(copy) is cls
        assert repr(dataclasses.asdict(copy)) == repr(dataclasses.asdict(row))


@pytest.mark.parametrize(
    "model,d,expected", [(*key, digest) for key, digest in SPIKED_DIGESTS.items()]
)
def test_gen_spiked_is_frozen(model, d, expected):
    assert _spiked_digest(model, d) == expected


@pytest.mark.parametrize(
    "hypothesis,d,expected",
    [(*key, digest) for key, digest in TWO_SAMPLE_DIGESTS.items()],
)
def test_gen_two_sample_is_frozen(hypothesis, d, expected):
    assert _two_sample_digest(hypothesis, d) == expected


def _summary_digest(summary) -> str:
    h = hashlib.sha256(repr(summary.as_records()).encode())
    for key, values in summary.samples.items():
        h.update(repr(key).encode())
        h.update(values.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_output_is_frozen(workers):
    est = run_estimation_mc(
        "b", [512, 8, 64], n=10, reps=6, seed=5, workers=workers, keep_samples=True
    )
    assert _summary_digest(est) == (
        "cb8e21f63c1043075e470421ff08dbef7d066923612d52b5dfb2828c54d21f73"
    )
    tests = run_test_mc(
        [64, 16], n1=10, n2=20, reps=8, seed=3, workers=workers, keep_samples=True
    )
    assert _summary_digest(tests) == (
        "b087f5ac47569417e29f94a56f0d45392ea59d645b49ad18a3c554ecd93b4dc2"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_large_d_monte_carlo_output_is_frozen(workers):
    # at d = 8192 a replication's arrays come from the heap, not from
    # mmap, in pool workers that keep their freed memory: the bits must
    # not depend on where the memory comes from
    est = run_estimation_mc(
        "b", [8192, 2048], n=10, reps=8, seed=5, workers=workers, keep_samples=True
    )
    assert _summary_digest(est) == (
        "1e6d829f603ddc7b536075d1849a694fdb0ef438df89531ac59534a48ff3c47a"
    )
    tests = run_test_mc(
        [8192], n1=10, n2=20, reps=8, seed=3, workers=workers, keep_samples=True
    )
    assert _summary_digest(tests) == (
        "3a89a8b7d70bdb5c64e315371e9eb13be988697911ad74e1769823b40a1221c8"
    )


# minor page faults per replication, through the studies' `_run_study`: each job
# runs one warm-up replication, then 16 more, of the d = 8192 estimation
# study or the d = 2048 two-sample study
_FAULTS_PER_REP = """
import resource
import sys
from functools import partial
from nrpca import simulation

REPS = {
    simulation.SpikeScenario: simulation._estimation_rep,
    simulation.TwoSampleScenario: partial(simulation._test_rep, 0.05),
}

def faults_per_rep(scenario, job):
    run = REPS[type(scenario)]
    run(scenario, 100 + job)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for rep in range(16):
        run(scenario, rep)
    return ((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 16,)

scenarios = [
    simulation.SpikeScenario("b", 8192, 10, 5),
    simulation.TwoSampleScenario("H0", 2048, 10, 20, 5),
]
summary = simulation._run_study(
    "faults", faults_per_rep, scenarios, 2, int(sys.argv[1]), False,
    lambda scenario, by_rep: (float(by_rep.max()), {}),
)
print(max(summary.rows))
"""


@pytest.mark.skipif(
    parallel._libc("mallopt") is None, reason="no mallopt in this C library"
)
@pytest.mark.parametrize("workers", [1, 2])
def test_studies_keep_their_freed_memory(run_python, workers):
    # without the heap policy each replication gives its arrays back to
    # the kernel and faults them in again: about 600 faults, not 6, at
    # one worker as in a pool. A fresh interpreter, because glibc raises
    # its thresholds as a process frees large blocks, and forked workers
    # inherit what the parent did
    proc = run_python(workers, code=_FAULTS_PER_REP)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 64, proc.stdout


def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch):
    # a C library with no mallopt: the heap policy is skipped, not an error
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    parallel._libc.cache_clear()
    try:
        assert parallel._libc("mallopt") is None
        parallel.keep_freed_memory()
    finally:
        parallel._libc.cache_clear()


def test_jobs_are_submitted_largest_d_first(monkeypatch):
    # the rows come back in the caller's order, so only the map sees the
    # order the jobs are submitted in
    submitted = []

    def recording_map(fn, scenarios, reps, workers):
        submitted.extend(scenario.d for scenario in scenarios)
        return list(map(fn, scenarios, reps))

    monkeypatch.setattr(simulation, "ordered_map", recording_map)
    out = run_estimation_mc("b", [64, 2048, 512], reps=2)
    assert submitted == [2048, 2048, 512, 512, 64, 64]
    assert [row.d for row in out.rows] == [64, 2048, 512]


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_follow_the_callers_d_order(workers):
    # jobs run largest d first (test_jobs_are_submitted_largest_d_first);
    # rows and samples come back as asked
    for run in (
        lambda ds: run_estimation_mc(
            "b", ds, n=10, reps=4, seed=8, workers=workers, keep_samples=True
        ),
        lambda ds: run_test_mc(
            ds, n1=5, n2=6, reps=4, seed=8, workers=workers, keep_samples=True
        ),
    ):
        shuffled = run([2048, 64, 512])
        ascending = run([64, 512, 2048])
        assert [row.d for row in shuffled.rows] == [2048, 64, 512]
        by_d = {row.d: row for row in ascending.rows}
        assert all(row == by_d[row.d] for row in shuffled.rows)
        assert sorted(shuffled.samples) == sorted(ascending.samples)
        for key, values in shuffled.samples.items():
            assert values.tobytes() == ascending.samples[key].tobytes()
