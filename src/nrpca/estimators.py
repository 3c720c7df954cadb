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

`nr_estimate` is the one entry point; the fields and properties of
`NrEstimate` expose each of these. It never makes a centered copy of
the whole input: one pass over fixed blocks of `_BLOCK_ROWS` rows sums
their Gram matrices, `_spectrum` turns the sum into every field but
h_tilde_1, and a second pass forms h_tilde_1. An input of one block
gives the bits of one whole product, and is centered once. `_spectrum`
holds every range guard on the summed Gram, at any block count: an
entry or (n-1) lambda_hat_1 past the double range, or a trace below
2^-970, raises a plain ValueError naming the overflow or underflow.
`pc_direction` is internal: it stays a module-level function only so
the benchmark tracer (`bench/tracing.py`) can wrap the direction matvec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    _OVERFLOW,
    DataMatrix,
    _binade,
    _finite,
    center_columns,
    dual_covariance,
    sym_eigen,
)

__all__ = ["DegenerateSpectrumError", "NrEstimate", "nr_estimate"]

# negatives beyond this fraction of the trace indicate numerical damage,
# not the usual harmless round-off at an exact zero; relative to the
# trace alone, so the guards do not depend on the data's units
_CLAMP_REL = 1e-14
# below this trace (the smallest normal over machine epsilon, 2^-970)
# the Gram products have lost bits to underflow
_GRAM_UNDERFLOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# rows per centered block: 8192 x 40 doubles is 2.6 MB, and the per-block
# Gram product still runs at the whole array's speed
_BLOCK_ROWS = 8192


class DegenerateSpectrumError(ValueError):
    """The corrected first eigenvalue vanished; directions are undefined."""


def pc_direction(xc: np.ndarray, u1: np.ndarray, scale: float) -> np.ndarray:
    """Direction estimate (Xc u1)/sqrt(scale) with scale = (n-1)*lambda;
    nr_estimate has already required the scale to be positive."""
    return (xc @ u1) / math.sqrt(scale)


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
        """Fraction of total variance carried by the first component."""
        return min(1.0, float(self.lambda_tilde[0]) / self.trace_dual)

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
        """This estimate with h_tilde_1 and both score vectors negated
        when h_tilde_1 points away from `direction` (a negative inner
        product), else this estimate itself. An eigenvector's sign is a
        convention, so this puts estimates from different runs, or an
        estimate and a known or reference direction, on one sign before
        their directions or scores are compared. `direction` must be a
        finite vector of length d."""
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (self.d,):
            raise ValueError(f"direction has shape {direction.shape}, not ({self.d},)")
        # the sign of the inner product at a power-of-two scale: exact, and
        # in range for any finite direction, whatever its magnitude
        scaled, _ = _binade(direction, fault="direction has a non-finite entry")
        if float(scaled @ self.h_tilde_1) >= 0.0:
            return self
        return replace(
            self,
            h_tilde_1=-self.h_tilde_1,
            scores_tilde=-self.scores_tilde,
            scores_hat=-self.scores_hat,
        )


def _spectrum(gram: np.ndarray, n: int):
    """Every `NrEstimate` field of a summed dual covariance, given as an
    exactly symmetric n x n array, except d, n and h_tilde_1; with u_hat_1
    and the direction scale (n-1)*lambda_tilde_1. Holds every guard on
    the Gram, however many blocks were summed into it."""
    # a sum of finite blocks can overflow, and eigh of an inf returns NaNs
    _finite(gram, _OVERFLOW)
    eigenvalues, eigenvectors = sym_eigen(gram)
    # the largest number an estimate holds: it bounds the trace (n - 1
    # eigenvalues of at most lambda_hat_1), the scale, both scores and
    # every entry of a PSD Gram; a float product, so numpy cannot warn
    top = (n - 1) * float(eigenvalues[0])
    if not top < math.inf:
        raise ValueError(_OVERFLOW)
    trace_dual = float(eigenvalues.sum())
    if trace_dual < _GRAM_UNDERFLOW:
        raise ValueError(
            "the Gram matrix underflowed double precision; "
            "multiply the data by a power of two"
        )
    leading = eigenvalues[: n - 2]
    divisors = (n - 1) - np.arange(1, n - 1, dtype=np.float64)
    corrected = leading - (trace_dual - np.cumsum(leading)) / divisors
    if np.any(corrected < -_CLAMP_REL * trace_dual):
        raise ValueError(
            f"corrected eigenvalue {float(corrected.min()):.3e} is negative "
            "beyond round-off; the dual spectrum is not valid"
        )
    lambda_tilde = np.maximum(corrected, 0.0)
    u1 = eigenvectors[:, 0]
    # the centered Gram has the ones vector in its null space, so a first
    # eigenvector mostly along it is the rounding residue of centering
    # constant rows, not a spike
    if lambda_tilde[0] <= _CLAMP_REL * trace_dual or u1.sum() ** 2 > n / 2:
        raise DegenerateSpectrumError(
            "corrected first eigenvalue is zero: the spectrum has no "
            "detectable spike, so directions and scores are undefined"
        )
    scale = (n - 1) * float(lambda_tilde[0])
    fields = dict(
        lambda_tilde=lambda_tilde,
        lambda_hat=eigenvalues[: n - 1],
        # lambda_tilde_1 <= trace in exact arithmetic; clamp the round-off
        kappa_tilde=max(trace_dual - float(lambda_tilde[0]), 0.0),
        trace_dual=trace_dual,
        scores_tilde=math.sqrt(scale) * u1,
        scores_hat=math.sqrt(top) * u1,
    )
    return fields, u1, scale


def nr_estimate(x: DataMatrix | np.ndarray) -> NrEstimate:
    """Run the full first-component pipeline on a data matrix.

    Validates the input once; then, over row blocks, centers the columns
    and sums the dual covariance; `_spectrum` checks and decomposes the
    sum, applies the noise correction and forms the scores; one more
    blocked matvec pass forms the corrected direction.

    Raises
    ------
    DegenerateSpectrumError
        If lambda_tilde_1 is zero relative to the trace (no detectable
        spike; the direction and downstream tests would be meaningless)
        or if the first eigenvector lies mostly along the all-ones vector
        (constant rows).
    ValueError
        If an entry of the summed Gram matrix or (n - 1) * lambda_hat_1
        overflowed double precision, at any number of row blocks, or if
        the trace is so small (below 2^-970) that its products underflowed.
    """
    x = x if isinstance(x, DataMatrix) else DataMatrix(x)
    d, n, values = x.d, x.n, x.values
    starts = range(0, d, _BLOCK_ROWS)
    # the first block's covariance is the sum's start, so a one-block
    # input gets the bits of one whole product; an overflow in centering
    # or in the sum is named by the checks, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for start in starts:
            xc = center_columns(values[start : start + _BLOCK_ROWS])
            cov = dual_covariance(xc)
            total = cov if start == 0 else total + cov
    fields, u1, scale = _spectrum(total, n)
    h_tilde_1 = np.empty(d)
    # last block first: it is still centered from the first pass
    for start in reversed(starts):
        rows = slice(start, start + _BLOCK_ROWS)
        if start != starts[-1]:
            xc = center_columns(values[rows])
        h_tilde_1[rows] = pc_direction(xc, u1, scale)
    return NrEstimate(d=d, n=n, h_tilde_1=h_tilde_1, **fields)
