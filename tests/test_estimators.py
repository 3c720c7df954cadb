"""Corrected-eigenvalue pipeline against a directly-computed oracle.

The oracle recomputes everything with plain numpy calls (centering,
Gram matrix, reference eigensolver, explicit correction loop) so any
disagreement points at the pipeline, not the formulas.
"""

import dataclasses
import hashlib
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nrpca import estimators
from nrpca.estimators import DegenerateSpectrumError, nr_estimate
from nrpca.inference import contribution_ci
from nrpca.linalg import DataMatrix, center_columns, dual_covariance

# the default row block, at which every matrix below is one block, and
# one that splits them into several, most with a short last block
BLOCK_ROWS = (estimators._BLOCK_ROWS, 7)


def _at_each_block_size():
    """Yield once per row-block size of nr_estimate."""
    for rows in BLOCK_ROWS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_BLOCK_ROWS", rows)
            yield rows


def _oracle(x: np.ndarray):
    """Straight-line recomputation of the corrected spectrum."""
    d, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    sd = xc.T @ xc / (n - 1)
    w = np.linalg.eigvalsh(sd)[::-1]
    trace = w.sum()
    lam_hat = w[: n - 1]
    lam_tilde = np.empty(n - 2)
    for i in range(1, n - 1):
        lam_tilde[i - 1] = lam_hat[i - 1] - (trace - lam_hat[:i].sum()) / (
            n - 1 - i
        )
    return trace, lam_hat, np.maximum(lam_tilde, 0.0)


def test_nr_eigenvalues_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for n in (3, 4, 7, 12, 30):
        x = rng.normal(size=(60, n)) * np.linspace(4, 0.2, 60)[:, None]
        _, _, want = _oracle(x)
        got = nr_estimate(x).lambda_tilde
        assert got.shape == (n - 2,)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
        assert np.all(got >= 0.0)


def test_kappa_tilde_agrees_with_trailing_average_form():
    # same quantity two ways: trace minus corrected top, or the trailing
    # mass inflated by (n-1)/(n-2)
    rng = np.random.default_rng(31)
    x = DataMatrix(rng.normal(size=(80, 10)) * np.linspace(5, 0.1, 80)[:, None])
    est = nr_estimate(x)
    n = est.n
    other = (n - 1) * (est.trace_dual - est.lambda_hat[0]) / (n - 2)
    assert est.kappa_tilde == pytest.approx(other, rel=1e-10)


def test_rank_one_data_recovers_direction_exactly():
    rng = np.random.default_rng(5)
    h = rng.normal(size=40)
    h /= np.linalg.norm(h)
    s = rng.normal(size=6) * 3.0
    est = nr_estimate(DataMatrix(np.outer(h, s))).aligned_with(h)
    assert np.allclose(est.h_tilde_1, h, atol=1e-10)
    assert est.h_tilde_1 @ est.h_tilde_1 == pytest.approx(1.0, rel=1e-10)
    # with no trailing spectrum the corrected and raw eigenvalues agree
    assert est.lambda_tilde[0] == pytest.approx(est.lambda_hat[0], rel=1e-10)
    assert est.kappa_tilde <= 1e-10 * est.lambda_tilde[0]
    assert 1.0 - 1e-10 <= est.contribution_ratio <= 1.0


def test_pipeline_matches_oracle():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(100, 9)) * np.linspace(6, 0.05, 100)[:, None]
    trace, lam_hat, lam_tilde = _oracle(x)
    est = nr_estimate(DataMatrix(x))
    assert est.trace_dual == pytest.approx(trace, rel=1e-10)
    assert np.allclose(est.lambda_hat, lam_hat, rtol=1e-8, atol=1e-10)
    assert np.allclose(est.lambda_tilde, lam_tilde, rtol=1e-8, atol=1e-10)


def test_structural_identities_on_random_data():
    rng = np.random.default_rng(23)
    for seed in range(5):
        x = rng.normal(size=(30 + 10 * seed, 8)) * (seed + 1.0)
        est = nr_estimate(DataMatrix(x))
        # additive split of the total variance
        assert est.lambda_tilde[0] + est.kappa_tilde == pytest.approx(
            est.trace_dual, rel=1e-14
        )
        # the stored direction's squared norm carries the bias ratio
        h_sq = est.h_tilde_1 @ est.h_tilde_1
        assert h_sq * est.lambda_tilde[0] == pytest.approx(
            est.lambda_hat[0], rel=1e-10
        )
        assert np.linalg.norm(est.h_hat_1) == pytest.approx(1.0, rel=1e-10)


def test_scores_norm_identity():
    rng = np.random.default_rng(29)
    est = nr_estimate(DataMatrix(rng.normal(size=(50, 7))))
    n = est.n
    assert np.sum(est.scores_tilde**2) == pytest.approx(
        (n - 1) * est.lambda_tilde[0], rel=1e-10
    )


def test_aligned_with_flips_all_direction_outputs():
    rng = np.random.default_rng(41)
    est = nr_estimate(DataMatrix(rng.normal(size=(25, 6))))
    flipped = est.aligned_with(-est.h_hat_1)
    assert np.array_equal(flipped.h_hat_1, -est.h_hat_1)
    assert np.array_equal(flipped.h_tilde_1, -est.h_tilde_1)
    assert np.array_equal(flipped.scores_tilde, -est.scores_tilde)
    assert np.array_equal(flipped.scores_hat, -est.scores_hat)
    unchanged = est.aligned_with(est.h_hat_1)
    assert np.array_equal(unchanged.h_hat_1, est.h_hat_1)


def test_aligned_with_refuses_a_direction_it_cannot_read():
    # a NaN direction used to flip the estimate silently, and a wrong
    # shape failed inside matmul with numpy's core-dimension message
    est = nr_estimate(DataMatrix(np.random.default_rng(41).normal(size=(25, 6))))
    for direction in (np.full(25, np.nan), np.r_[np.inf, np.ones(24)]):
        with pytest.raises(ValueError, match="^direction has a non-finite entry$"):
            est.aligned_with(direction)
    for direction in (np.ones(24), np.ones((25, 1))):
        shape = re.escape(f"{direction.shape}, not (25,)")
        with pytest.raises(ValueError, match=f"^direction has shape {shape}$"):
            est.aligned_with(direction)


def test_equal_spectrum_raises_degenerate_error():
    # the identity has every dual eigenvalue equal, so the correction
    # removes the top one entirely
    with pytest.raises(DegenerateSpectrumError):
        nr_estimate(DataMatrix(np.eye(4)))


def test_invalid_dual_spectrum_raises_value_error(monkeypatch):
    # an unsorted spectrum no eigensolver returns: at n = 4 the first
    # corrected eigenvalue is 1 - (4 - 1)/2 = -0.5, far below round-off
    def unsorted(gram):
        return np.array([1.0, 3.0, 0.0, 0.0]), np.eye(4)

    monkeypatch.setattr(estimators, "sym_eigen", unsorted)
    with pytest.raises(ValueError, match="negative beyond round-off") as info:
        nr_estimate(np.random.default_rng(2).normal(size=(6, 4)))
    assert type(info.value) is ValueError


def test_round_off_floor_is_1e_14_of_the_trace():
    # the second corrected value of diag(1, 0.1, 0.1, e) is 0.1 - (0.1 + e)
    # = -e, against a floor of 1e-14 times the trace 1.2 + e
    with pytest.raises(ValueError, match="negative beyond round-off"):
        estimators._spectrum(np.diag([1.0, 0.1, 0.1, 6e-14]), 4)
    fields, _, _ = estimators._spectrum(np.diag([1.0, 0.1, 0.1, 6e-15]), 4)
    assert fields["lambda_tilde"][1] == 0.0


def test_rank_one_round_off_is_clamped():
    # a rank-one matrix has lambda_tilde_1 = trace and a zero tail in exact
    # arithmetic; round-off puts lambda_tilde_1 above the trace in 91 of
    # these draws, and a corrected tail value below 0 in 35
    rng = np.random.default_rng(0)
    above = below = 0
    for _ in range(200):
        d, n = int(rng.integers(3, 60)), int(rng.integers(4, 15))
        est = nr_estimate(np.outer(rng.standard_normal(d), rng.standard_normal(n)))
        leading = est.lambda_hat[: n - 2]
        divisors = (n - 1) - np.arange(1, n - 1, dtype=np.float64)
        raw = leading - (est.trace_dual - np.cumsum(leading)) / divisors
        below += bool(np.any(raw < 0.0))
        assert np.array_equal(est.lambda_tilde, np.maximum(raw, 0.0))
        if est.lambda_tilde[0] > est.trace_dual:
            above += 1
            assert est.kappa_tilde == 0.0
            assert est.contribution_ratio == 1.0
        ci = contribution_ci(est.lambda_tilde[0], est.kappa_tilde, n)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0
    assert above >= 40 and below >= 20


@pytest.mark.parametrize(
    "x",
    [
        # each row mean rounds inexactly, so centering leaves a residue
        # along the all-ones vector that must not pass as a spike
        np.full((5, 3), 0.1),
        np.full((1, 3), -918052.9521276106),
        np.full((3, 7), 1e12 + 0.1),
        np.asfortranarray(np.full((4, 7), 0.1) * np.arange(1.0, 5.0)[:, None]),
    ],
    ids=["tenths", "offset_1e6", "offset_1e12", "fortran_order"],
)
def test_constant_rows_raise_degenerate_error(x):
    with pytest.raises(DegenerateSpectrumError):
        nr_estimate(x)


# the properties run a fixed example set, so a run cannot fail by chance
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# permuting rows only reorders the Gram sums; with d <= 40 rows and
# n <= 12 samples their rounding moves eigenvalues by far less than this
PERMUTATION_TOL = 1e-12


@st.composite
def _matrices(draw, elements):
    d = draw(st.integers(1, 40))
    n = draw(st.integers(3, 12))
    return draw(arrays(np.float64, (d, n), elements=elements))


def _estimate_or_error(x):
    try:
        return nr_estimate(x)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_bit_identical(got, want, names):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for name in names:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.kappa_tilde == want.kappa_tilde
    assert got.trace_dual == want.trace_dual
    assert got.contribution_ratio == want.contribution_ratio


@PROPERTY
@given(x=_matrices(st.floats(-1e150, 1e150)), data=st.data())
def test_row_sign_flips_leave_estimates_bit_identical(x, data):
    flip = data.draw(arrays(np.bool_, x.shape[0]))
    for _ in _at_each_block_size():
        want = _estimate_or_error(x)
        got = _estimate_or_error(np.where(flip[:, None], -x, x))
        _assert_bit_identical(
            got, want, ("lambda_tilde", "lambda_hat", "scores_tilde", "scores_hat")
        )


@PROPERTY
@given(x=_matrices(st.floats(-1e6, 1e6)), data=st.data())
def test_row_permutations_keep_top_eigenvalue_and_tail(x, data):
    order = data.draw(st.permutations(range(x.shape[0])))
    want = _estimate_or_error(x)
    got = _estimate_or_error(x[order])
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] is want[0], got
        return
    assert not isinstance(got, tuple), got
    tol = PERMUTATION_TOL * max(got.trace_dual, want.trace_dual)
    assert abs(got.trace_dual - want.trace_dual) <= tol
    assert abs(got.lambda_tilde[0] - want.lambda_tilde[0]) <= tol
    assert abs(got.kappa_tilde - want.kappa_tilde) <= tol


@PROPERTY
@given(x=_matrices(st.floats(-1e150, 1e150)))
def test_memory_layout_leaves_estimates_bit_identical(x):
    names = ("lambda_tilde", "lambda_hat", "h_tilde_1", "scores_tilde", "scores_hat")
    for _ in _at_each_block_size():
        want = _estimate_or_error(x)
        got = _estimate_or_error(np.asfortranarray(x))
        _assert_bit_identical(got, want, names)


def _small_data_spike():
    # contribution ratio 0.44: row 0 carries a 30x spike over unit noise
    x = np.random.default_rng(1).standard_normal((500, 10))
    x[0] *= 30.0
    return x


def _assert_scaled(got, want, k):
    """Every field of the estimate of x * 2^k is the one of x times
    2^(2k) (the eigenvalues, kappa_tilde and the trace), 2^k (the
    scores) or 1 (d, n and h_tilde_1), bit for bit."""
    powers = dict(
        lambda_tilde=2, lambda_hat=2, kappa_tilde=2, trace_dual=2,
        scores_tilde=1, scores_hat=1,
    )
    for field in dataclasses.fields(want):
        power = powers.get(field.name, 0)
        scaled = np.asarray(2.0 ** (power * k) * getattr(want, field.name))
        value = np.asarray(getattr(got, field.name), dtype=np.float64)
        assert value.tobytes() == scaled.tobytes(), (k, field.name)


@pytest.mark.parametrize(
    "k",
    # k = -30 puts the entries near 1e-9, the scale of concentrations in
    # mol: the round-off guards must scale with the trace, not stop at
    # 1e-14; past |k| = 250 LAPACK would rescale the Gram by a factor
    # that is not a power of two, had sym_eigen not scaled it first
    [-450, -300, -250, -200, -100, -60, -30, 60, 100, 200, 250, 300, 450],
)
def test_power_of_two_scaling_is_exact(k):
    x = _small_data_spike()
    for _ in _at_each_block_size():
        _assert_scaled(nr_estimate(x * 2.0**k), nr_estimate(x), k)


@pytest.mark.parametrize(
    "env",
    [{}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Nehalem"},
     {"OPENBLAS_NUM_THREADS": "1"}],
    ids=["default", "Haswell", "Nehalem", "one-thread"],
)
def test_power_of_two_scaling_is_exact_on_every_blas_kernel(run_python, env):
    # the kernels round the Gram and the eigenpairs differently from
    # one another, but on each of them the bits scale exactly
    proc = run_python(
        code="import dataclasses\n"
        "import numpy as np\n"
        "from nrpca.estimators import nr_estimate\n"
        + "".join(map(inspect.getsource, (_small_data_spike, _assert_scaled)))
        + "want = nr_estimate(_small_data_spike())\n"
        "for k in (-450, -300, 300, 450):\n"
        "    _assert_scaled(nr_estimate(_small_data_spike() * 2.0**k), want, k)\n"
        "print('exact')\n",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "exact\n"


def test_estimate_holds_one_centered_block_not_a_centered_copy():
    # a whole centered copy alone is 1.0 x.nbytes; one 8192-row block is
    # 0.125 of it here, and the direction d-vector 0.1
    x = np.random.default_rng(3).standard_normal((65536, 10))
    x[0] *= 300.0
    tracemalloc.start()
    try:
        nr_estimate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes


# summing the Gram over blocks reorders its additions, and a one-row
# block's matvec need not round as the whole gemv does
BLOCKED_TOL = 1e-12
# sha256 of every field of the four-block estimate below, frozen when
# each partial sum of the Gram was checked and wrapped in a SymMatrix
FOUR_BLOCK_DIGEST = "4bec415443f8c46c9dd2cc48366423c3da3aec52002ca85acadf63e5bb2f18bc"


def test_a_one_row_last_block_matches_the_whole_array():
    d = 3 * estimators._BLOCK_ROWS + 1
    x = np.random.default_rng(13).standard_normal((d, 10))
    x[0] *= 200.0
    got = nr_estimate(x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_BLOCK_ROWS", d)
        want = nr_estimate(x)
    digest = hashlib.sha256()
    for name in (
        "lambda_tilde", "lambda_hat", "kappa_tilde", "trace_dual",
        "h_tilde_1", "scores_tilde", "scores_hat",
    ):
        g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert np.max(np.abs(g - w)) <= BLOCKED_TOL * np.max(np.abs(w)), name
        digest.update(g.tobytes())
    assert digest.hexdigest() == FOUR_BLOCK_DIGEST


def test_spectrum_of_a_gram_summed_elsewhere_gives_the_estimate():
    # the seam a sampler or a diagnostic feeds its own Gram through: it
    # gives every field but d, n and h_tilde_1, with nr_estimate's bits
    n = 9
    x = np.random.default_rng(14).standard_normal((40, n))
    x *= np.linspace(6.0, 1.0, 40)[:, None]
    names = {field.name for field in dataclasses.fields(estimators.NrEstimate)}
    for rows in _at_each_block_size():
        total = None
        for start in range(0, len(x), rows):
            part = dual_covariance(center_columns(x[start : start + rows]))
            total = part if total is None else total + part
        fields, u1, scale = estimators._spectrum(total, n)
        est = nr_estimate(x)
        assert set(fields) == names - {"d", "n", "h_tilde_1"}
        for name, value in fields.items():
            want = getattr(est, name)
            assert np.asarray(value).tobytes() == np.asarray(want).tobytes(), name
        h_tilde_1 = estimators.pc_direction(center_columns(x), u1, scale)
        gap = np.max(np.abs(h_tilde_1 - est.h_tilde_1))
        assert gap <= BLOCKED_TOL * np.max(np.abs(h_tilde_1))


OVERFLOW = (
    "^the Gram matrix overflowed double precision; "
    "divide the data by a power of two$"
)
UNDERFLOW = (
    "^the Gram matrix underflowed double precision; "
    "multiply the data by a power of two$"
)


def test_gram_overflow_names_itself(monkeypatch):
    # finite values near 1e160 whose squares are not
    x = np.random.default_rng(4).uniform(0.5, 1.5, size=(50, 10)) * 1e160
    with pytest.raises(ValueError, match="^the Gram matrix overflowed double precision"):
        nr_estimate(x)
    # each 7-row block's covariance is finite, at 7 a^2 / 2; the sum of 4
    # overflows, and the sum of 2 does not (0.6 of the largest double),
    # but (n - 1) lambda_hat_1 does, as one whole product would
    monkeypatch.setattr(estimators, "_BLOCK_ROWS", 7)
    for d, a in ((28, 4.1e153), (14, 3.92e153)):
        x = np.tile([a, -a, 0.0], (d, 1))
        with pytest.raises(ValueError, match="^the Gram matrix overflowed double"):
            nr_estimate(x)


def test_an_overflowing_trace_names_itself(trace_overflow_matrix):
    # every Gram entry is finite and the trace is not; the spike check
    # used to read the overflowed sum as no spike, after a numpy warning
    for _ in _at_each_block_size():
        with pytest.raises(ValueError, match=OVERFLOW) as info:
            nr_estimate(trace_overflow_matrix)
        assert type(info.value) is ValueError


def test_overflowing_scores_name_themselves(score_overflow_matrix):
    # the Gram, its trace and lambda_tilde_1 are finite; the scores and the
    # direction scale (n - 1) lambda_tilde_1 are not, and came back as
    # infinite scores and an all-zero h_tilde_1, at one block or several
    for _ in _at_each_block_size():
        with pytest.raises(ValueError, match=OVERFLOW) as info:
            nr_estimate(score_overflow_matrix)
        assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "x",
    [
        # at 2^-540 the Gram trace is 3.5e-323: the products have underflowed,
        # and without this check the ratio comes out 2.3 times too large
        _small_data_spike() * 2.0**-540,
        # at 2^-505 the trace is about 2^-1000, a normal number, but the
        # products of the smallest entries are already subnormal
        _small_data_spike() * 2.0**-505,
        # this subnormal Gram's correction dips below the round-off floor,
        # so the check must run before the round-off check names another fault
        np.random.default_rng(24).standard_normal((6, 5)) * 2.0**-537,
    ],
    ids=["spike", "spike_normal_trace", "below_floor"],
)
def test_underflowed_gram_is_a_numerical_error(x):
    # an underflow is a numerical failure, not a missing spike
    with pytest.raises(ValueError, match=UNDERFLOW) as info:
        nr_estimate(x)
    assert type(info.value) is ValueError


# powers of two that take a spiked input near the top of the double
# range, where a finite Gram can still overflow the trace or the scores
# for one or two of them, and near the bottom, where its products underflow
RANGE_EDGES = (*range(440, 521), *range(-530, -439))


def _spiked(d, n, seed):
    """Noise plus a rank-one spike, with row 0 scaled up."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    spike = np.outer(rng.standard_normal(d), rng.standard_normal(n))
    x += rng.uniform(0.0, 5.0) * spike
    x[0] *= 10.0 ** rng.uniform(0.0, 2.0)
    return x


# the arguments of _spiked
SPIKED = dict(
    d=st.integers(3, 59), n=st.integers(3, 11), seed=st.integers(0, 2**32 - 1)
)


# each example runs 172 estimates
@settings(PROPERTY, max_examples=40)
@given(**SPIKED)
def test_range_edges_give_a_finite_estimate_or_a_named_error(d, n, seed):
    x = _spiked(d, n, seed)
    unscaled = _estimate_or_error(x)
    degenerate = isinstance(unscaled, tuple) and unscaled[0] is DegenerateSpectrumError
    for k in RANGE_EDGES:
        try:
            est = nr_estimate(x * 2.0**k)
        except DegenerateSpectrumError:
            assert degenerate, k
            continue
        except ValueError as exc:
            assert type(exc) is ValueError, k
            assert re.match(f"{OVERFLOW}|{UNDERFLOW}", str(exc)), (k, exc)
            continue
        for field in dataclasses.fields(est):
            assert np.isfinite(getattr(est, field.name)).all(), (k, field.name)
        assert np.any(est.h_tilde_1 != 0.0), k


@PROPERTY
@given(**SPIKED, k=st.integers(-480, 480))
def test_power_of_two_scaling_is_exact_wherever_the_estimate_exists(d, n, seed, k):
    x = _spiked(d, n, seed)
    for _ in _at_each_block_size():
        want = _estimate_or_error(x)
        if not isinstance(want, tuple):
            _assert_scaled(nr_estimate(x * 2.0**k), want, k)


@PROPERTY
@given(x=_matrices(st.floats(-1e6, 1e6)))
def test_estimate_identities(x):
    est = _estimate_or_error(x)
    if isinstance(est, tuple):
        return
    h_sq = float(est.h_tilde_1 @ est.h_tilde_1)
    lt1, lh1 = est.lambda_tilde[0], est.lambda_hat[0]
    assert lt1 + est.kappa_tilde == pytest.approx(est.trace_dual, rel=1e-12)
    assert h_sq * lt1 == pytest.approx(lh1, rel=1e-12)
    assert np.linalg.norm(est.h_hat_1) == pytest.approx(1.0, rel=1e-12)
    assert est.h_tilde_norm_sq == pytest.approx(h_sq, rel=1e-12)


@PROPERTY
@given(x=_matrices(st.floats(-1e6, 1e6)), data=st.data())
def test_column_permutations_permute_scores(x, data):
    order = np.array(data.draw(st.permutations(range(x.shape[1]))))
    want = _estimate_or_error(x)
    got = _estimate_or_error(x[:, order])
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] is want[0], got
        return
    assert not isinstance(got, tuple), got
    tol = PERMUTATION_TOL * max(got.trace_dual, want.trace_dual)
    assert abs(got.lambda_tilde[0] - want.lambda_tilde[0]) <= tol
    assert abs(got.kappa_tilde - want.kappa_tilde) <= tol
    # the first eigenvector moves by at most about tol / gap (Davis-Kahan),
    # its length sqrt((n-1) lambda_tilde_1) by at most sqrt((n-1) tol)
    gap = want.lambda_hat[0] - want.lambda_hat[1]
    moved = want.scores_tilde[order]
    sign = 1.0 if got.scores_tilde @ moved >= 0.0 else -1.0
    n = want.n
    length = math.sqrt((n - 1) * max(got.lambda_tilde[0], want.lambda_tilde[0]))
    if gap > 0.0:
        bound = 4.0 * tol / gap * length + math.sqrt((n - 1) * tol)
        assert np.linalg.norm(got.scores_tilde - sign * moved) <= bound


# centering a row with offset c and unit-scale variation loses about
# |c| * eps to round-off, far below this at |c| <= 1e4
OFFSET_TOL = 1e-10


@PROPERTY
@given(
    n=st.integers(4, 12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.integers(-20, 20),
    spike=st.floats(1.0, 4.0),
)
def test_moderate_row_offsets_keep_the_estimates(n, data, seed, scale_exp, spike):
    # unit-variance noise times 2^scale_exp, and row 0 a fixed centered
    # pattern carrying spike^2 * d of it, so lambda_tilde_1 and kappa_tilde
    # are both a sizable part of the trace and compare in relative terms
    d = data.draw(st.integers(n, 40))
    rng = np.random.default_rng(seed)
    noise = 2.0**scale_exp
    x = rng.standard_normal((d, n)) * noise
    pattern = rng.standard_normal(n)
    pattern -= pattern.mean()
    x[0] = pattern / pattern.std(ddof=1) * (spike * math.sqrt(d) * noise)
    offsets = data.draw(arrays(np.float64, d, elements=st.floats(-1e4, 1e4)))
    want = nr_estimate(x)
    got = nr_estimate(x + offsets[:, None] * noise)
    for name in ("kappa_tilde", "contribution_ratio"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=OFFSET_TOL)
    assert got.lambda_tilde[0] == pytest.approx(want.lambda_tilde[0], rel=OFFSET_TOL)
