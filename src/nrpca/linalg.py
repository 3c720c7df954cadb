"""Dense matrix containers, column centering, the dual sample covariance,
and the symmetric eigendecomposition used on it.

Data matrices are d x n with samples as columns and d typically much
larger than n; all eigenwork happens on the n x n dual covariance. The
eigensolver is LAPACK's (`numpy.linalg.eigh`): the noise-reduction
correction only uses differences of the trace and partial eigenvalue
sums, for which a normwise backward-stable solver is accurate enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataMatrix",
    "SymMatrix",
    "SpectralDecomposition",
    "center_columns",
    "dual_covariance",
    "sym_eigen",
]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """A d x n data matrix, one variable per row, one sample per column.

    At least three samples are required; everything downstream assumes
    the sample count leaves room for centering and the noise correction.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values, "values")
        if arr.ndim != 2:
            raise ValueError(f"values must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("need at least one variable (row)")
        if arr.shape[1] < 3:
            raise ValueError(f"need at least 3 samples (columns), got {arr.shape[1]}")
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SymMatrix:
    """A symmetric m x m matrix, symmetrized exactly on construction."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values, "values")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"values must be square, got shape {arr.shape}")
        scale = np.abs(arr).max() if arr.size else 0.0
        if arr.size and np.abs(arr - arr.T).max() > 1e-8 * (1.0 + scale):
            raise ValueError("matrix is not symmetric within tolerance")
        object.__setattr__(self, "values", (arr + arr.T) / 2.0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted descending plus orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = _as_float_array(self.eigenvalues, "eigenvalues")
        vecs = _as_float_array(self.eigenvectors, "eigenvectors")
        if vals.ndim != 1:
            raise ValueError("eigenvalues must be a vector")
        if vecs.ndim != 2 or vecs.shape != (vals.size, vals.size):
            raise ValueError(
                f"eigenvectors must be {vals.size}x{vals.size}, got {vecs.shape}"
            )
        if np.any(np.diff(vals) > 1e-12 * (1.0 + np.abs(vals).max(initial=0.0))):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)


def center_columns(x: DataMatrix) -> DataMatrix:
    """Subtract the sample mean from every column.

    Equivalent to right-multiplying by the centering projector
    I_n - 1_n 1_n^T / n; every row of the result sums to zero.
    """
    values = x.values
    return DataMatrix(values - values.mean(axis=1, keepdims=True))


def dual_covariance(xc: DataMatrix) -> SymMatrix:
    """The n x n dual sample covariance of a centered matrix.

    Returns (Xc^T Xc)/(n - 1). Shares its nonzero eigenvalues with the
    d x d sample covariance; centering forces the smallest one to zero.
    """
    values = xc.values
    gram = values.T @ values
    return SymMatrix(gram / (values.shape[1] - 1))


def _apply_sign_convention(vectors: np.ndarray) -> None:
    # flip each column so its largest-magnitude component is positive;
    # the flip goes through a fresh temporary because in-place ufuncs on
    # column views corrupt data for some strides under this numpy build
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0.0:
            vectors[:, j] = -col


def sym_eigen(a: SymMatrix) -> SpectralDecomposition:
    """Full spectral decomposition by LAPACK's symmetric solver (`eigh`).

    Eigenvalues come back in a stable descending sort, so ties keep
    LAPACK's order, and each eigenvector column has its largest-magnitude
    component positive.
    """
    values, vectors = np.linalg.eigh(a.values)
    order = np.argsort(-values, kind="stable")
    eigenvectors = vectors[:, order]
    _apply_sign_convention(eigenvectors)
    return SpectralDecomposition(values[order], eigenvectors)
