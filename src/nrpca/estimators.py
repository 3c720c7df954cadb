"""Noise-reduction and conventional estimators of the first principal
component.

The conventional eigenvalues of the dual covariance absorb the entire
tail of the population spectrum as additive noise when d >> n. The
noise-reduction correction subtracts the average of the trailing
eigenvalues from each leading one:

    lambda_tilde_i = lambda_hat_i - (trace - sum_{j<=i} lambda_hat_j)/(n-1-i)

for i = 1..n-2, which is nonnegative by construction because each
lambda_hat_i dominates the mean of the eigenvalues below it. The first
corrected eigenvalue drives the direction estimate

    h_tilde_1 = (Xc u_hat_1) / sqrt((n-1) lambda_tilde_1),

a deliberately non-unit vector with ||h_tilde_1||^2 = lh_1/lt_1 >= 1,
and the scores s_tilde_1j = sqrt((n-1) lambda_tilde_1) * u_hat_1j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import DataMatrix, center_columns, dual_covariance, sym_eigen

__all__ = [
    "DegenerateSpectrumError",
    "NrEstimate",
    "nr_eigenvalues",
    "kappa_tilde",
    "pc_direction",
    "pc_scores",
    "score_mse",
    "contribution_ratio",
    "nr_estimate",
]

# negatives beyond this fraction of the trace indicate numerical damage,
# not the usual harmless round-off at an exact zero; relative to the
# trace alone, so the guards do not depend on the data's units
_CLAMP_REL = 1e-14
# below this trace (the smallest normal over machine epsilon, 2^-970)
# the Gram products have lost bits to underflow
_GRAM_UNDERFLOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


class DegenerateSpectrumError(ValueError):
    """The corrected first eigenvalue vanished; directions are undefined."""


_NO_SPIKE = (
    "corrected first eigenvalue is zero: the spectrum has no "
    "detectable spike, so directions and scores are undefined"
)


def nr_eigenvalues(
    eigenvalues: np.ndarray, n: int, trace: float | None = None
) -> np.ndarray:
    """Noise-corrected eigenvalues lambda_tilde_1..lambda_tilde_{n-2}.

    Parameters
    ----------
    eigenvalues : ndarray
        The dual covariance spectrum (descending).
    n : int
        Sample count; the correction divides by n - 1 - i.
    trace : float, optional
        Total spectral mass. Defaults to the eigenvalue sum.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    n = int(n)
    if n < 3:
        raise ValueError(f"need n >= 3 samples, got {n}")
    if eigenvalues.size < n - 1:
        raise ValueError(
            f"expected at least {n - 1} eigenvalues for n={n}, got {eigenvalues.size}"
        )
    total = float(eigenvalues.sum()) if trace is None else float(trace)
    leading = eigenvalues[: n - 2]
    partial = np.cumsum(leading)
    divisors = (n - 1) - np.arange(1, n - 1, dtype=np.float64)
    corrected = leading - (total - partial) / divisors
    if np.any(corrected < -_CLAMP_REL * abs(total)):
        worst = float(corrected.min())
        raise ValueError(
            f"corrected eigenvalue {worst:.3e} is negative beyond round-off; "
            "the input spectrum is not a valid descending dual spectrum"
        )
    return np.maximum(corrected, 0.0)


def kappa_tilde(trace_dual: float, lambda_tilde_1: float) -> float:
    """Tail-mass estimate: the trace left after the corrected first value.

    Defined as trace_dual - lambda_tilde_1 (algebraically equal to
    (n-1)(trace - lambda_hat_1)/(n-2)); clamped at zero only against
    round-off since lambda_tilde_1 <= trace holds in exact arithmetic.
    """
    trace_dual = float(trace_dual)
    lambda_tilde_1 = float(lambda_tilde_1)
    value = trace_dual - lambda_tilde_1
    if value < -_CLAMP_REL * abs(trace_dual):
        raise ValueError(
            f"lambda_tilde_1={lambda_tilde_1} exceeds trace={trace_dual}; "
            "inputs are not from the same decomposition"
        )
    return max(value, 0.0)


def pc_direction(xc: np.ndarray, u1: np.ndarray, scale: float) -> np.ndarray:
    """Direction estimate (Xc u1)/sqrt(scale) with scale = (n-1)*lambda,
    for a centered d x n array Xc.

    With the conventional eigenvalue the result has unit norm; with the
    corrected one the norm is sqrt(lambda_hat_1/lambda_tilde_1) >= 1.
    """
    scale = float(scale)
    if scale <= 0.0:
        raise DegenerateSpectrumError(
            f"direction scale must be positive, got {scale}; "
            "a vanished first eigenvalue leaves the direction undefined"
        )
    u1 = np.asarray(u1, dtype=np.float64)
    n = xc.shape[1]
    if u1.shape != (n,):
        raise ValueError(f"u1 must have length n={n}, got shape {u1.shape}")
    return (xc @ u1) / math.sqrt(scale)


def pc_scores(u1: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Score estimates sqrt((n-1)*lam) * u1; all zero when lam is zero."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    u1 = np.asarray(u1, dtype=np.float64)
    n = int(n)
    if u1.shape != (n,):
        raise ValueError(f"u1 must have length n={n}, got shape {u1.shape}")
    return math.sqrt((n - 1) * lam) * u1


def score_mse(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared difference between estimated and true scores."""
    estimated = np.asarray(estimated, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimated.shape != truth.shape:
        raise ValueError(
            f"length mismatch: estimated {estimated.shape} vs truth {truth.shape}"
        )
    diff = estimated - truth
    return float(diff @ diff) / diff.size


def contribution_ratio(lambda_tilde_1: float, trace_dual: float) -> float:
    """Fraction of total variance carried by the first component."""
    trace_dual = float(trace_dual)
    if trace_dual <= 0.0:
        raise ValueError(f"trace must be positive, got {trace_dual}")
    lambda_tilde_1 = float(lambda_tilde_1)
    if lambda_tilde_1 < 0.0:
        raise ValueError(f"lambda_tilde_1 must be nonnegative, got {lambda_tilde_1}")
    return min(1.0, lambda_tilde_1 / trace_dual)


@dataclass(frozen=True)
class NrEstimate:
    """Everything the first-component analysis produces for one dataset.

    lambda_tilde holds the corrected eigenvalues (length n-2), lambda_hat
    the conventional ones (length n-1, the structurally zero last dual
    eigenvalue dropped). kappa_tilde is trace_dual - lambda_tilde[0] by
    definition, so the two always sum back to the trace. h_tilde_1, the
    inflated corrected direction, is the one stored d-vector; its squared
    norm h_tilde_norm_sq = lh_1/lt_1 and the unit conventional direction
    h_hat_1 are derived from the eigenvalues and from it.
    """

    d: int
    n: int
    lambda_tilde: np.ndarray
    lambda_hat: np.ndarray
    kappa_tilde: float
    trace_dual: float
    h_tilde_1: np.ndarray
    scores_tilde: np.ndarray
    scores_hat: np.ndarray

    @property
    def contribution_ratio(self) -> float:
        return contribution_ratio(float(self.lambda_tilde[0]), self.trace_dual)

    @property
    def h_tilde_norm_sq(self) -> float:
        """Norm inflation of the corrected direction, lh_1/lt_1 >= 1;
        equal to h_tilde_1 @ h_tilde_1 because ||Xc u_1||^2 = (n-1) lh_1."""
        return float(self.lambda_hat[0] / self.lambda_tilde[0])

    @property
    def h_hat_1(self) -> np.ndarray:
        """The unit conventional direction (Xc u_1)/sqrt((n-1) lh_1)."""
        return self.h_tilde_1 / math.sqrt(self.h_tilde_norm_sq)

    def aligned_with(self, direction: np.ndarray) -> "NrEstimate":
        """Flip estimate signs so the estimated direction points along
        a known true direction (used by simulations where truth exists)."""
        direction = np.asarray(direction, dtype=np.float64)
        if float(direction @ self.h_tilde_1) >= 0.0:
            return self
        return replace(
            self,
            h_tilde_1=-self.h_tilde_1,
            scores_tilde=-self.scores_tilde,
            scores_hat=-self.scores_hat,
        )


def nr_estimate(x: DataMatrix | np.ndarray) -> NrEstimate:
    """Run the full first-component pipeline on a data matrix.

    Validates the input once, centers the columns, forms the dual
    covariance, decomposes it, applies the noise correction, and computes
    the scores and, with one matvec, the corrected direction.

    Raises
    ------
    DegenerateSpectrumError
        If lambda_tilde_1 is zero relative to the trace (no detectable
        spike; the direction and downstream tests would be meaningless),
        if the first eigenvector lies mostly along the all-ones vector
        (constant rows), or if the trace is so small that the Gram
        matrix underflowed.
    """
    if not isinstance(x, DataMatrix):
        x = DataMatrix(x)
    n = x.n
    xc = center_columns(x)
    eigenvalues, eigenvectors = sym_eigen(dual_covariance(xc))
    trace_dual = float(eigenvalues.sum())
    if trace_dual < _GRAM_UNDERFLOW:
        raise DegenerateSpectrumError(_NO_SPIKE)
    lambda_tilde = nr_eigenvalues(eigenvalues, n, trace=trace_dual)
    lt1 = float(lambda_tilde[0])
    u1 = eigenvectors[:, 0]
    # the centered Gram has the ones vector in its null space, so a first
    # eigenvector mostly along it is the rounding residue of centering
    # constant rows, not a spike
    if lt1 <= _CLAMP_REL * trace_dual or u1.sum() ** 2 > n / 2:
        raise DegenerateSpectrumError(_NO_SPIKE)
    lambda_hat = eigenvalues[: n - 1]
    return NrEstimate(
        d=x.d,
        n=n,
        lambda_tilde=lambda_tilde,
        lambda_hat=lambda_hat,
        kappa_tilde=kappa_tilde(trace_dual, lt1),
        trace_dual=trace_dual,
        h_tilde_1=pc_direction(xc, u1, (n - 1) * lt1),
        scores_tilde=pc_scores(u1, lt1, n),
        scores_hat=pc_scores(u1, float(lambda_hat[0]), n),
    )
