"""The estimate, the interval and the F tests against 50-digit oracles.

The estimator oracle reads the same float64 input exactly, then centers
the rows, forms the dual covariance and decomposes it in mpmath at 50
significant digits (`mp.eigsy`), and applies the noise correction
there. So each bound below is the whole float64 pipeline's error:
centering, the Gram product, LAPACK's eigensolver and the correction.

The interval oracle solves the Tate-Klett pair at 50 digits, from the
chi-square tails (`gammainc`) and the stationarity condition, by
Newton's method (`findroot`); the F oracles invert the F tail, a
regularized incomplete beta function (`betainc`), and recompute F1-F3
from the estimates' own lambda_tilde_1, kappa_tilde and h_tilde_1. Alpha
is drawn from 1e-6 to 0.2 and the degrees of freedom from 2 to 300.
The bounds are stated in README "Known limits".
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, reject, settings
from hypothesis import strategies as st

from nrpca.estimators import DegenerateSpectrumError, nr_estimate
from nrpca.inference import contribution_ci, optimal_ab
from nrpca.inference import test_f1 as f1_test
from nrpca.inference import test_f2 as f2_test
from nrpca.inference import test_f3 as f3_test

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


# alpha, log-uniform over the range both checks of alpha accept
ALPHAS = st.floats(-6.0, math.log10(0.2)).map(lambda u: 10.0**u)


def _tate_klett(df: int, alpha: float, start) -> tuple:
    """The chi-square(df) pair (a, b) with P(X < a) + P(X > b) = alpha and
    (df/2 + 1) ln(b/a) = (b - a)/2, at 50 digits, by Newton's method from
    `start`; a start too far off fails to converge and raises."""
    with mpmath.workdps(50):
        k, alpha = mpmath.mpf(df) / 2, mpmath.mpf(alpha)

        def density(x):
            log_density = (k - 1) * mpmath.log(x / 2) - x / 2 - mpmath.loggamma(k)
            return mpmath.exp(log_density) / 2

        def equations(a, b):
            lower = mpmath.gammainc(k, 0, a / 2, regularized=True)
            upper = mpmath.gammainc(k, b / 2, mpmath.inf, regularized=True)
            stationarity = (k + 1) * mpmath.log(b / a) - (b - a) / 2
            return [(lower + upper) / alpha - 1, stationarity]

        def jacobian(a, b):
            return [
                [density(a) / alpha, -density(b) / alpha],
                [0.5 - (k + 1) / a, (k + 1) / b - 0.5],
            ]

        start = tuple(map(mpmath.mpf, start))
        return tuple(mpmath.findroot(equations, start, J=jacobian))


def _rel(value: float, exact) -> float:
    return float(abs(mpmath.mpf(value) - exact) / abs(exact))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    df=st.integers(2, 300),
    alpha=ALPHAS,
    lt1=st.floats(-3.0, 3.0).map(lambda u: 10.0**u),
    kappa=st.floats(-3.0, 3.0).map(lambda u: 10.0**u),
    k=st.integers(-500, 500),
)
# the smallest df and alpha: b was 2.3e-8 off before the solver took the
# upper-tail mass as its unknown
@example(df=2, alpha=1e-6, lt1=1.0, kappa=1.0, k=0)
def test_interval_matches_a_50_digit_oracle(df, alpha, lt1, kappa, k):
    pair = optimal_ab(df, alpha)
    a, b = _tate_klett(df, alpha, (pair.a, pair.b))
    assert _rel(pair.a, a) <= 64 * EPS
    assert _rel(pair.b, b) <= 64 * EPS
    lt1, kappa = math.ldexp(lt1, k), math.ldexp(kappa, k)
    ci = contribution_ci(lt1, kappa, df + 1, alpha)
    assert (ci.a, ci.b) == (pair.a, pair.b)
    with mpmath.workdps(50):
        mass = df * mpmath.mpf(lt1)
        lower = mass / (b * mpmath.mpf(kappa) + mass)
        upper = mass / (a * mpmath.mpf(kappa) + mass)
    assert _rel(ci.lower, lower) <= 72 * EPS
    assert _rel(ci.upper, upper) <= 72 * EPS


def _f_upper_point(d1: int, d2: int, p: float, start: float):
    """The f with P(F(d1, d2) > f) = p, at 50 digits: that tail is the
    regularized incomplete beta I_x(d2/2, d1/2) at x = d2/(d2 + d1 f),
    solved for log f from `start`."""
    with mpmath.workdps(50):
        a, b, log_p = mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, mpmath.log(p)

        def gap(t):
            x = d2 / (d2 + d1 * mpmath.exp(t))
            return mpmath.log(mpmath.betainc(a, b, 0, x, regularized=True)) - log_p

        return mpmath.exp(mpmath.findroot(gap, mpmath.log(start)))


def _estimate_pair(nu1: int, nu2: int, d: int, seed: int, spike: float):
    """Estimates of two samples of d rows, nu1 + 1 and nu2 + 1 columns,
    both spiked along the first row."""
    rng = np.random.default_rng(seed)
    estimates = []
    for nu in (nu1, nu2):
        x = rng.standard_normal((d, nu + 1))
        x[0] *= 10.0**spike
        estimates.append(nr_estimate(x))
    return estimates


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nu1=st.integers(2, 300),
    nu2=st.integers(2, 300),
    d=st.integers(3, 60),
    seed=st.integers(0, 2**32 - 1),
    spike=st.floats(0.0, 2.0),
    alpha=ALPHAS,
)
def test_f_statistics_match_a_50_digit_oracle(nu1, nu2, d, seed, spike, alpha):
    try:
        est1, est2 = _estimate_pair(nu1, nu2, d, seed, spike)
    except DegenerateSpectrumError:
        reject()
    lt1, lt2 = float(est1.lambda_tilde[0]), float(est2.lambda_tilde[0])
    h1, h2 = est1.h_tilde_1, est2.h_tilde_1
    with mpmath.workdps(50):
        inner = abs(mpmath.fdot(map(mpmath.mpf, h1), map(mpmath.mpf, h2)))
        h = (inner + 1 / inner) / 2
        gamma = max(
            mpmath.mpf(est1.kappa_tilde) / est2.kappa_tilde,
            mpmath.mpf(est2.kappa_tilde) / est1.kappa_tilde,
        )
        f1 = mpmath.mpf(lt1) / lt2
        # each factor is oriented by which sample has the larger lambda_tilde_1
        power = 1 if lt1 >= lt2 else -1
        f2 = f1 * h**power
        f3 = f2 * gamma**power
    assert _rel(f1_test(lt1, lt2, nu1 + 1, nu2 + 1, alpha).statistic, f1) <= EPS
    # the inner product's rounding, relative to it, is at most d eps
    # times its condition number sum |h1_i h2_i| / |h1 . h2|
    condition = float(np.abs(h1) @ np.abs(h2)) / float(inner)
    bound = (d * condition + 16) * EPS
    assert _rel(f2_test(est1, est2, alpha).statistic, f2) <= bound
    assert _rel(f3_test(est1, est2, alpha).statistic, f3) <= bound


# no shrinking: the first failure is the finding
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate),
    report_multiple_bugs=False,
)
@given(nu1=st.integers(2, 300), nu2=st.integers(2, 300), alpha=ALPHAS)
@example(nu1=201, nu2=266, alpha=1e-5)
def test_f_critical_points_match_a_50_digit_oracle(nu1, nu2, alpha):
    _check_f_critical_points(nu1, nu2, alpha)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="fdtrc is inexact at small even d1 with large d2: the Newton "
    "step leaves F(12, 77)'s upper 0.137 point about 119 eps off",
)
def test_f_critical_points_at_small_even_d1_and_large_d2():
    # the less.lower_crit branch inverts F(12, 77) at p = 0.137
    _check_f_critical_points(77, 12, 0.137)


def _check_f_critical_points(nu1, nu2, alpha):
    # two-sided: [1/F_{nu2,nu1}(alpha/2), F_{nu1,nu2}(alpha/2)]; "less":
    # below 1/F_{nu2,nu1}(alpha)
    two_sided = f1_test(1.0, 1.0, nu1 + 1, nu2 + 1, alpha)
    less = f1_test(1.0, 1.0, nu1 + 1, nu2 + 1, alpha, "less")
    for value, (d1, d2, p, inverse) in (
        (two_sided.lower_crit, (nu2, nu1, alpha / 2, True)),
        (two_sided.upper_crit, (nu1, nu2, alpha / 2, False)),
        (less.lower_crit, (nu2, nu1, alpha, True)),
    ):
        start = 1.0 / value if inverse else value
        point = _f_upper_point(d1, d2, p, start)
        assert _rel(value, 1 / point if inverse else point) <= 64 * EPS
