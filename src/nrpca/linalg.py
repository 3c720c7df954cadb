"""Dense matrix containers, column centering, the dual sample covariance,
and the symmetric eigendecomposition used on it.

Data matrices are d x n with samples as columns and d typically much
larger than n; all eigenwork happens on the n x n dual covariance. The
eigensolver is LAPACK's (`numpy.linalg.eigh`): the noise-reduction
correction only uses differences of the trace and partial eigenvalue
sums, for which a normwise backward-stable solver is accurate enough.
`sym_eigen` hands LAPACK the matrix scaled by a power of two into
[1/2, 1), where LAPACK does not rescale it by a factor that is not a
power of two, so scaling the input by 2^k scales the eigenvalues by
exactly 2^k and leaves the eigenvectors' bits as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataMatrix",
    "SymMatrix",
    "center_columns",
    "dual_covariance",
    "sym_eigen",
]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    # min and max carry a NaN through and allocate nothing the size of
    # arr, where np.isfinite(arr) would allocate a bool per entry; their
    # initial 0 lets an empty array pass
    if not (np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0))):
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


# one input type of sym_eigen; the benchmark probe builds one directly
@dataclass(frozen=True)
class SymMatrix:
    """A symmetric m x m matrix, symmetrized exactly on construction."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values, "values")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"values must be square, got shape {arr.shape}")
        # relative to the largest entry, so the test does not depend on units
        if np.abs(arr - arr.T).max(initial=0.0) > 1e-8 * np.abs(arr).max(initial=0.0):
            raise ValueError("matrix is not symmetric within tolerance")
        object.__setattr__(self, "values", (arr + arr.T) / 2.0)


def center_columns(x: DataMatrix | np.ndarray) -> np.ndarray:
    """Subtract the sample mean from every column.

    Takes a DataMatrix or a 2-D float64 array already checked finite,
    such as a row block of one; rows are centered independently, so a
    block gives the bits of the same rows centered whole. Equivalent to
    right-multiplying by the centering projector I_n - 1_n 1_n^T / n;
    every row of the result sums to zero. Not re-checked for
    finiteness: an overflowed column makes its own Gram diagonal
    non-finite, so `dual_covariance` rejects it. The means are taken
    over a C-ordered array, as numpy sums a row in another order in
    Fortran order, so both layouts give the same bits.
    """
    values = np.ascontiguousarray(x.values if isinstance(x, DataMatrix) else x)
    return values - values.mean(axis=1, keepdims=True)


def _finite_gram(gram: np.ndarray) -> np.ndarray:
    """`gram`, unless a product or sum in it left double precision."""
    if not np.isfinite(gram).all():
        raise ValueError(
            "the Gram matrix overflowed double precision; "
            "divide the data by a power of two"
        )
    return gram


def dual_covariance(xc: np.ndarray) -> np.ndarray:
    """The n x n dual sample covariance of a centered d x n array.

    Returns (Xc^T Xc)/(n - 1) as a float64 array. It is exactly
    symmetric: numpy forms Xc^T Xc with one BLAS syrk call and mirrors
    its triangle. Shares its nonzero eigenvalues with the d x d sample
    covariance; centering forces the smallest one to zero. Raises
    ValueError for fewer than 2 samples or if the products overflow.
    """
    if xc.shape[1] < 2:
        raise ValueError(f"need at least 2 samples (columns), got {xc.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = xc.T @ xc
    return _finite_gram(gram) / (xc.shape[1] - 1)


def _apply_sign_convention(vectors: np.ndarray) -> None:
    # flip each column so its largest-magnitude component (the first of
    # ties) is positive; the flip goes through a fresh temporary because
    # in-place ufuncs on column views corrupt data for some strides under
    # this numpy build
    if not vectors.size:
        return
    lead = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] = -vectors[:, flip]


def sym_eigen(a: SymMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition by LAPACK's symmetric solver (`eigh`).

    Takes a SymMatrix or an exactly symmetric float64 array, such as a
    sum of `dual_covariance` results. An array is not checked: LAPACK
    reads only its lower triangle. Returns (eigenvalues, eigenvectors):
    the eigenvalues in a stable descending sort, so ties keep LAPACK's
    order, and the eigenvectors as matching columns, each with its
    largest-magnitude component positive.

    LAPACK decomposes the matrix divided by the power of two that puts
    its largest entry in [1/2, 1), and the eigenvalues are multiplied
    back by it, so a matrix times 2^k gives the eigenvalues times 2^k
    bit for bit and the same eigenvectors. An eigenvalue past the double
    range comes back inf. The one exception: an entry smaller than the
    largest by more than 2^1021 can lose bits as a subnormal in the
    divided copy; it is below eps of the norm, where the solver's
    normwise accuracy ignores it anyway.
    """
    a = a.values if isinstance(a, SymMatrix) else a
    shift = np.frexp(np.abs(a).max(initial=0.0))[1]
    values, vectors = np.linalg.eigh(np.ldexp(a, -shift))
    order = np.argsort(-values, kind="stable")
    eigenvectors = vectors[:, order]
    _apply_sign_convention(eigenvectors)
    with np.errstate(over="ignore"):
        return np.ldexp(values[order], shift), eigenvectors
