"""`nr_estimate` against a 50-digit oracle.

The oracle reads the same float64 input exactly, then centers the rows,
forms the dual covariance and decomposes it in mpmath at 50 significant
digits (`mp.eigsy`), and applies the noise correction there. So each
bound below is the whole float64 pipeline's error: centering, the Gram
product, LAPACK's eigensolver and the correction. The bounds are stated
in README "Known limits".
"""

import mpmath
import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nrpca.estimators import DegenerateSpectrumError, nr_estimate

EPS = np.finfo(np.float64).eps


def _oracle(x: np.ndarray):
    """(lambda_tilde_1, kappa_tilde, trace, ratio) of `x` at 50 digits."""
    d, n = x.shape
    with mpmath.workdps(50):
        rows = [[mpmath.mpf(float(v)) for v in row] for row in x]
        centered = [[v - mpmath.fsum(row) / n for v in row] for row in rows]
        columns = list(zip(*centered))
        cov = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(i + 1):
                cov[i, j] = cov[j, i] = mpmath.fdot(columns[i], columns[j]) / (n - 1)
        values = sorted(mpmath.eigsy(cov, eigvals_only=True), reverse=True)
        trace = mpmath.fsum(values)
        lt1 = values[0] - (trace - values[0]) / (n - 2)
        return lt1, trace - lt1, trace, lt1 / trace


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(3, 80),
    n=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
    spike=st.floats(-1.0, 3.0),
    k=st.integers(-40, 40),
)
def test_nr_estimate_matches_a_50_digit_oracle(d, n, seed, spike, k):
    # zero-mean rows, one of them spiked by 10**spike, all scaled by 2**k
    x = np.random.default_rng(seed).standard_normal((d, n))
    x[0] *= 10.0**spike
    x *= 2.0**k
    try:
        est = nr_estimate(x)
    except DegenerateSpectrumError:
        reject()
    lt1, kappa, trace, ratio = _oracle(x)
    bound = 64 * n * EPS * float(trace)
    assert abs(float(est.lambda_tilde[0]) - float(lt1)) <= bound
    assert abs(est.kappa_tilde - float(kappa)) <= bound
    assert abs(est.trace_dual - float(trace)) <= bound
    assert abs(est.contribution_ratio - float(ratio)) <= 128 * n * EPS
