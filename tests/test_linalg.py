"""Matrix container validation and eigensolver accuracy.

The solver is checked against LAPACK's relatively robust representations
driver (scipy's eigh with driver="evr"), an algorithm independent of the
divide-and-conquer one numpy's eigh uses, and against the residual,
orthogonality and trace bounds it promises.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla

from nrpca.linalg import (
    DataMatrix,
    SymMatrix,
    _apply_sign_convention,
    center_columns,
    dual_covariance,
    sym_eigen,
)


def _random_sym(m: int, seed: int, scale: float = 1.0) -> SymMatrix:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m)) * scale
    return SymMatrix((a + a.T) / 2.0)


def test_data_matrix_validation():
    with pytest.raises(ValueError):
        DataMatrix(np.ones(5))  # not 2-D
    with pytest.raises(ValueError):
        DataMatrix(np.ones((4, 2)))  # fewer than 3 samples
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0, np.nan, 2.0]]))
    with pytest.raises(ValueError, match="need at least one variable"):
        DataMatrix(np.empty((0, 3)))
    m = DataMatrix(np.arange(12.0).reshape(3, 4))
    assert (m.d, m.n) == (3, 4)


def test_data_matrix_checks_finiteness_in_place():
    # the check allocates nothing the size of the input, where a bool
    # per entry would be an eighth of it; NaN and both infinities fail
    x = np.random.default_rng(3).normal(size=(100_000, 20))
    tracemalloc.start()
    try:
        DataMatrix(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * x.nbytes
    for bad in (np.nan, np.inf, -np.inf):
        y = x[:50].copy()
        y[7, 3] = bad
        with pytest.raises(ValueError, match="^values must contain only finite values$"):
            DataMatrix(y)


def test_sym_matrix_symmetrizes_and_rejects():
    a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    s = SymMatrix(a)
    assert np.array_equal(s.values, s.values.T)
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 5.0], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.ones((2, 3)))


def test_center_columns_zeroes_row_sums():
    rng = np.random.default_rng(4)
    x = DataMatrix(rng.normal(size=(6, 9)) + 1e6)  # large common offset
    xc = center_columns(x)
    norms = np.linalg.norm(xc, axis=1) + 1e6
    assert np.all(np.abs(xc.sum(axis=1)) <= 1e-10 * norms)


def test_dual_covariance_hand_case():
    x = DataMatrix(np.array([[0.0, 1.0, 2.0]]))
    sd = dual_covariance(center_columns(x))
    expected = 0.5 * np.array(
        [[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]
    )
    assert np.allclose(sd.values, expected, atol=1e-15)


def test_dual_covariance_trace_is_scaled_frobenius():
    rng = np.random.default_rng(8)
    x = DataMatrix(rng.normal(size=(20, 7)))
    xc = center_columns(x)
    sd = dual_covariance(xc)
    expected = np.sum(xc**2) / 6.0
    assert abs(np.trace(sd.values) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 20])
def test_sym_eigen_matches_reference_solver(m):
    for seed in (0, 1, 2):
        a = _random_sym(m, 100 * m + seed)
        lam, v = sym_eigen(a)
        scale = 1.0 + np.linalg.norm(a.values)
        for reference in (
            np.linalg.eigvalsh(a.values),
            sla.eigh(a.values, eigvals_only=True, driver="evr"),
        ):
            assert np.all(
                np.abs(lam - reference[::-1]) <= 1e-10 * scale
            )
        # eigenvalues alone can look right while the basis is broken, so
        # pin the residual and orthogonality for every size as well
        assert np.linalg.norm(a.values @ v - v * lam) <= 1e-10 * scale
        assert np.linalg.norm(v.T @ v - np.eye(m)) <= 1e-10


def test_sym_eigen_residual_orthogonality_trace():
    for m, seed in [(4, 1), (8, 23), (9, 2), (16, 3), (25, 4)]:
        a = _random_sym(m, seed, scale=3.0)
        lam, v = sym_eigen(a)
        frob = np.linalg.norm(a.values)
        assert (
            np.linalg.norm(a.values @ v - v * lam) <= 1e-10 * (1.0 + frob)
        )
        assert np.linalg.norm(v.T @ v - np.eye(m)) <= 1e-10
        trace = np.trace(a.values)
        assert abs(lam.sum() - trace) <= 1e-9 * (1.0 + abs(trace))


def test_sign_flip_keeps_columns_intact():
    # column flips must be exact negations with no collateral writes;
    # 8x8 is the regression size where an in-place strided negate once
    # corrupted neighbouring entries under the local numpy build
    rng = np.random.default_rng(23)
    for m in (4, 8, 16):
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        a = SymMatrix(q @ np.diag(np.arange(m, 0, -1.0)) @ q.T)
        _, v = sym_eigen(a)
        assert np.linalg.norm(v.T @ v - np.eye(m)) <= 1e-10
        for j in range(m):
            lead = np.argmax(np.abs(v[:, j]))
            assert v[lead, j] > 0.0


def _loop_sign_convention(vectors):
    # the column-by-column form the vectorized convention replaced
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0.0:
            vectors[:, j] = -col


def test_sign_convention_matches_the_column_loop():
    rng = np.random.default_rng(31)
    cases = [rng.normal(size=(m, k)) for m, k in ((1, 1), (5, 5), (8, 8), (20, 7))]
    # ties in magnitude, the first of them negative or positive
    cases.append(np.array([[-2.0, 2.0, 1.0], [2.0, -2.0, -1.0], [1.0, 0.5, 1.0]]))
    # zero and negative-zero columns, which stay as they are
    cases.append(np.array([[0.0, -0.0, -1.0], [0.0, -0.0, 0.0]]))
    cases.append(np.empty((0, 0)))
    for values in cases:
        want, got = values.copy(), values.copy()
        _loop_sign_convention(want)
        _apply_sign_convention(got)
        assert got.tobytes() == want.tobytes()


def test_sym_eigen_reconstruction():
    a = _random_sym(6, 77)
    lam, v = sym_eigen(a)
    rebuilt = v @ np.diag(lam) @ v.T
    assert np.linalg.norm(rebuilt - a.values) <= 1e-9


def test_sym_eigen_descending_and_sign_convention():
    a = _random_sym(10, 42)
    lam, v = sym_eigen(a)
    assert np.all(np.diff(lam) <= 1e-12)
    for col in v.T:
        assert col[np.argmax(np.abs(col))] > 0.0


def test_sym_eigen_one_by_one():
    lam, v = sym_eigen(SymMatrix(np.array([[-2.5]])))
    assert lam[0] == -2.5
    assert v[0, 0] == 1.0


def test_sym_eigen_identity_matrix():
    lam, v = sym_eigen(SymMatrix(np.eye(3)))
    assert np.allclose(lam, 1.0, atol=1e-14)
    assert np.linalg.norm(v.T @ v - np.eye(3)) <= 1e-12


def test_sym_eigen_diagonal_input_sorted():
    lam, _ = sym_eigen(SymMatrix(np.diag([1.0, 5.0, 3.0])))
    assert np.allclose(lam, [5.0, 3.0, 1.0], atol=1e-14)


def test_primal_and_dual_spectra_agree():
    # nonzero eigenvalues of the variables x variables covariance and of
    # its samples x samples counterpart must coincide
    rng = np.random.default_rng(11)
    x = DataMatrix(rng.normal(size=(50, 8)) * np.linspace(3, 0.1, 50)[:, None])
    xc = center_columns(x)
    primal = SymMatrix(xc @ xc.T / 7.0)
    lam_primal = sym_eigen(primal)[0][:7]
    lam_dual = sym_eigen(dual_covariance(xc))[0][:7]
    assert np.all(
        np.abs(lam_primal - lam_dual) <= 1e-8 * np.maximum(lam_dual, 1e-12)
    )
