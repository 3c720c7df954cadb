"""Confidence interval for the first contribution ratio and the three
F-based equality tests for two covariance spectra.

The interval uses the chi-square quantile pair (a, b) minimizing the
length objective 1/a - 1/b subject to coverage 1 - alpha; at the optimum
the stationarity condition a^2 g(a) = b^2 g(b) holds for the chi-square
density g. The tests compare two samples' corrected first eigenvalues
(F1), additionally their direction estimates (F2), and additionally
their tail masses (F3); each is F-distributed with (n1-1, n2-1) degrees
of freedom under its null, so all three share one two-sided decision
rule built from F quantiles.

The chi-square and F functions are one-line calls into `scipy.special`
(Cephes), which computes complements and upper-tail inverses directly;
the F upper point adds to `fdtri`'s one Newton step on the upper tail,
read from the regularized incomplete beta function (`betainc` or
`betaincc`) at whichever argument is at most 1/2.
Upper points are therefore inverted from the tail probability itself,
never from 1 - alpha, so small alphas keep full relative accuracy. They
check nothing: each public entry point checks its own arguments once,
and what it passes on is in range. `scipy.special` is imported on the
first call, so importing this module does not load scipy, and
`jarque_bera`'s closed-form tail keeps `nrpca estimate` free of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .estimators import DegenerateSpectrumError, NrEstimate
from .linalg import _binade
from .sampling import _check_choice, _check_count

__all__ = [
    "OrthogonalDirectionsError",
    "QuantilePair",
    "CiResult",
    "TestComponents",
    "TestOutcome",
    "JarqueBera",
    "optimal_ab",
    "contribution_ci",
    "direction_h",
    "test_f1",
    "test_f2",
    "test_f3",
    "asymptotic_power",
    "jarque_bera",
]


class OrthogonalDirectionsError(ValueError):
    """The two direction estimates are numerically orthogonal, so the
    direction-adjusted statistics are unbounded and the test is invalid."""


@dataclass(frozen=True)
class QuantilePair:
    """Chi-square quantile pair with 0 < a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError(f"need 0 < a < b, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class CiResult:
    """Two-sided interval for the first contribution ratio."""

    lower: float
    upper: float
    a: float
    b: float
    alpha: float
    df: int

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"interval must satisfy 0 <= lower <= upper <= 1, "
                f"got [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class TestComponents:
    """Multiplicative pieces of a test statistic, where applicable."""

    lambda_ratio: float
    h_tilde: float | None = None
    h_star: float | None = None
    gamma_tilde: float | None = None
    gamma_star: float | None = None


@dataclass(frozen=True)
class TestOutcome:
    """Decision record for one equality test."""

    statistic: float
    nu1: int
    nu2: int
    alpha: float
    alternative: str
    lower_crit: float
    upper_crit: float | None
    reject_null: bool
    components: TestComponents


@dataclass(frozen=True)
class JarqueBera:
    """Normality screen result."""

    statistic: float
    p_value: float
    skewness: float
    kurtosis: float


@cache
def _sc():
    """`scipy.special`, imported on first use."""
    import scipy.special

    return scipy.special


def chi2_cdf(df: float, x: float) -> float:
    """Chi-square CDF with df degrees of freedom."""
    return float(_sc().chdtr(df, x))


def chi2_quantile(df: float, p: float) -> float:
    """Lower-tail chi-square quantile: the q with chi2_cdf(df, q) = p."""
    return 2.0 * float(_sc().gammaincinv(0.5 * df, p))


def chi2_upper_point(df: float, alpha: float) -> float:
    """Upper alpha point of the chi-square distribution: P(X > value) = alpha."""
    return float(_sc().chdtri(df, alpha))


def f_cdf(d1: float, d2: float, x: float) -> float:
    """F distribution CDF with (d1, d2) degrees of freedom."""
    return float(_sc().fdtr(d1, d2, x))


def f_upper_point(d1: float, d2: float, alpha: float) -> float:
    """Upper alpha point of the F distribution: P(F > value) = alpha.

    Computed as 1 / (lower alpha point of F(d2, d1)), which inverts the
    tail probability alpha itself, then refined by one Newton step on
    the upper tail, f + (P(F > f) - alpha) / g(f) with g the F density:
    `fdtri` alone is off by up to about 420 eps at df 100-300. With
    t = d1 f, P(F > f) is `betaincc`(d1/2, d2/2, t/(t + d2)) for t <= d2
    and `betainc`(d2/2, d1/2, d2/(t + d2)) otherwise, so the argument is
    at most 1/2 and is never formed as 1 minus the other. At small d1
    with large d2 no scipy tail is exact everywhere: scipy's F tail
    `fdtrc` is hundreds of eps off at moderate alpha, and `betaincc` at
    small alpha (README "Known limits"). A step that is not finite or
    moves f by more than 1e-8 of itself is not taken, so in the far
    tails the point is `fdtri`'s.
    """
    sc = _sc()
    f = 1.0 / float(sc.fdtri(d2, d1, alpha))
    # the step as (P(F > f) / alpha - 1) * alpha / g(f), with alpha / g(f)
    # taken in logs so that neither underflows; with t = d1 f, log g(f) is
    # -(d1 log1p(d2/t) + d2 log1p(t/d2))/2 - log f - log B(d1/2, d2/2)
    t, a, b = d1 * f, 0.5 * d1, 0.5 * d2
    log_ratio = math.log(alpha) + math.log(f) + float(sc.betaln(a, b))
    log_ratio += 0.5 * (d1 * math.log1p(d2 / t) + d2 * math.log1p(t / d2))
    p = sc.betaincc(a, b, t / (t + d2)) if t <= d2 else sc.betainc(b, a, d2 / (t + d2))
    step = (float(p) / alpha - 1.0) * math.exp(min(log_ratio, 700.0))
    return f + step if abs(step) <= 1e-8 * f else f


def _check_ci_alpha(alpha: float) -> float:
    alpha = float(alpha)
    # from 1 - alpha = 4e-6 on, the upper point is NaN at the bracket's
    # end for small df; on df 2 to 10^4 it is finite up to the upper bound
    if not 1e-6 <= alpha <= 1.0 - 1e-5:
        raise ValueError(f"alpha must lie in [1e-6, 1 - 1e-5], got {alpha}")
    return alpha


def optimal_ab(df: int, alpha: float) -> QuantilePair:
    """Minimum-length chi-square quantile pair at coverage 1 - alpha.

    Minimizes 1/a - 1/b subject to G_df(a) + (1 - G_df(b)) = alpha, with
    a the lower point at alpha - q and b the upper point at q, so that no
    tail is a difference. Brent's method finds the upper-tail mass q at the
    root of the stationarity condition in log form, (df/2 + 1) ln(b/a) =
    (b - a)/2 (Tate & Klett 1959); the result is deterministic.
    """
    df = _check_count("df", df, 2)
    alpha = _check_ci_alpha(alpha)

    from scipy.optimize import brentq  # imported here to keep startup cheap

    def ends(q: float) -> tuple[float, float]:
        return chi2_quantile(df, alpha - q), chi2_upper_point(df, q)

    def stationarity(q: float) -> float:
        a, b = ends(q)
        return (0.5 * df + 1.0) * math.log(b / a) - 0.5 * (b - a)

    # q falls to ~1e-15 (df = 2, alpha = 1e-6), so brentq converges on its
    # relative tolerance, not its absolute xtol; the bracket's ends put a
    # just below the lower alpha point and 1e-4 alpha in the lower tail
    q = brentq(
        stationarity,
        alpha - chi2_cdf(df, chi2_quantile(df, alpha) * (1.0 - 1e-12)),
        alpha * (1.0 - 1e-4),
        xtol=1e-300,
        maxiter=200,
    )
    return QuantilePair(*ends(q))


def contribution_ci(
    lambda_tilde_1: float, kappa_tilde: float, n: int, alpha: float = 0.05
) -> CiResult:
    """Confidence interval for the first contribution ratio.

    The interval is
    [(n-1) lt1 / (b k + (n-1) lt1), (n-1) lt1 / (a k + (n-1) lt1)]
    with (a, b) the minimum-length chi-square(n-1) pair at 1 - alpha.
    """
    lambda_tilde_1 = float(lambda_tilde_1)
    kappa_tilde = float(kappa_tilde)
    n = _check_count("n", n, 3)
    for name, value in (
        ("lambda_tilde_1", lambda_tilde_1),
        ("kappa_tilde", kappa_tilde),
    ):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if lambda_tilde_1 == 0.0 and kappa_tilde == 0.0:
        raise DegenerateSpectrumError(
            "lambda_tilde_1 and kappa_tilde are both zero; the ratio is undefined"
        )
    df = n - 1
    pair = optimal_ab(df, alpha)
    # (lt1, k) scaled alike give the same interval, and a power of two
    # scales exactly: here no mass overflows and the larger input is normal
    scaled, _ = _binade(np.array([lambda_tilde_1, kappa_tilde]))
    lambda_tilde_1, kappa_tilde = scaled.tolist()
    mass = df * lambda_tilde_1
    lower = mass / (pair.b * kappa_tilde + mass)
    upper = mass / (pair.a * kappa_tilde + mass)
    return CiResult(
        lower=lower, upper=upper, a=pair.a, b=pair.b, alpha=alpha, df=df
    )


@lru_cache(maxsize=256)
def _two_sided_bounds(nu1: int, nu2: int, alpha: float) -> tuple[float, float]:
    return 1.0 / f_upper_point(nu2, nu1, alpha / 2.0), f_upper_point(
        nu1, nu2, alpha / 2.0
    )


def _check_test_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"test alpha must lie in (0, 1/2), got {alpha}")
    return alpha


def _outcome(
    statistic: float,
    nu1: int,
    nu2: int,
    alpha: float,
    components: TestComponents,
    alternative: str = "two-sided",
) -> TestOutcome:
    # every factor is positive and finite, so 0 and inf are an underflow
    # and an overflow: a numerical failure, not a DegenerateSpectrumError
    if statistic == 0.0 or statistic == math.inf:
        raise ValueError("the F statistic is outside double precision")
    # "less" rejects below the one-sided lower point at alpha, which is
    # the two-sided lower point at 2 alpha: (2 alpha) / 2 == alpha exactly
    less = alternative == "less"
    lower, upper = _two_sided_bounds(nu1, nu2, 2.0 * alpha if less else alpha)
    return TestOutcome(
        statistic=statistic,
        nu1=nu1,
        nu2=nu2,
        alpha=alpha,
        alternative=alternative,
        lower_crit=lower,
        upper_crit=None if less else upper,
        reject_null=bool(statistic < lower or (not less and statistic > upper)),
        components=components,
    )


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise DegenerateSpectrumError(f"{name} must be positive, got {value}")
    return value


def test_f1(
    lt1: float,
    lt2: float,
    n1: int,
    n2: int,
    alpha: float = 0.05,
    alternative: str = "two-sided",
) -> TestOutcome:
    """Equality test of the first eigenvalues via F1 = lt1/lt2.

    Two-sided: reject when F1 leaves [1/F_{nu2,nu1}(a/2), F_{nu1,nu2}(a/2)].
    One-sided ("less", the first eigenvalue smaller): reject when
    F1 < 1/F_{nu2,nu1}(alpha).
    """
    lt1 = _positive(lt1, "lt1")
    lt2 = _positive(lt2, "lt2")
    n1, n2 = _check_count("n1", n1, 3), _check_count("n2", n2, 3)
    alpha = _check_test_alpha(alpha)
    _check_choice("alternative", alternative, ("two-sided", "less"))
    statistic = lt1 / lt2
    components = TestComponents(lambda_ratio=statistic)
    return _outcome(statistic, n1 - 1, n2 - 1, alpha, components, alternative)


def direction_h(h1: np.ndarray, h2: np.ndarray) -> float:
    """Direction mismatch factor (|c| + 1/|c|)/2 for the raw inner
    product c of the two corrected direction vectors.

    The inputs are used exactly as estimated (no renormalization); their
    norm inflation is visible as NrEstimate.h_tilde_norm_sq. Always >= 1,
    with equality only for parallel unit-product directions. Raises
    OrthogonalDirectionsError for a cosine of at most 1e-8, and ValueError
    for an inner product outside the normal double range.
    """
    h1, h2 = (np.asarray(h, dtype=np.float64) for h in (h1, h2))
    if h1.ndim != 1 or h1.shape != h2.shape:
        raise ValueError(
            "direction vectors must be 1-D of one length, "
            f"got shapes {h1.shape} and {h2.shape}"
        )
    # the norms and the cosine test at a power-of-two scale: exact, and in
    # range for any two finite vectors, whatever their magnitudes
    s1 = _binade(h1, fault="direction vector h1 has a non-finite entry")[0]
    s2 = _binade(h2, fault="direction vector h2 has a non-finite entry")[0]
    norm1, norm2 = float(np.linalg.norm(s1)), float(np.linalg.norm(s2))
    if norm1 == 0.0 or norm2 == 0.0:
        raise ValueError("direction vectors must be nonzero")
    if abs(float(s1 @ s2)) <= 1e-8 * norm1 * norm2:
        raise OrthogonalDirectionsError(
            "direction estimates are numerically orthogonal (|cos| <= 1e-8); "
            "the direction-adjusted statistic is unbounded"
        )
    with np.errstate(over="ignore"):
        inner = abs(float(h1 @ h2))
    # a subnormal inner product has lost bits, and its reciprocal overflows
    if not sys.float_info.min <= inner < math.inf:
        raise ValueError(f"the inner product {inner:.3e} is outside the double range")
    return 0.5 * inner + 0.5 / inner


def _direction_test(
    est1: NrEstimate, est2: NrEstimate, alpha: float, tail: bool
) -> TestOutcome:
    """F2 = F1 * h_star, and with `tail` F3 = F2 * gamma_star: each
    factor is oriented by which sample has the larger lambda_tilde_1."""
    alpha = _check_test_alpha(alpha)
    if tail:
        k1 = _positive(est1.kappa_tilde, "kappa_tilde (sample 1)")
        k2 = _positive(est2.kappa_tilde, "kappa_tilde (sample 2)")
    lt1 = _positive(est1.lambda_tilde[0], "lambda_tilde_1 (sample 1)")
    lt2 = _positive(est2.lambda_tilde[0], "lambda_tilde_1 (sample 2)")
    h = direction_h(est1.h_tilde_1, est2.h_tilde_1)
    first_larger = lt1 >= lt2
    ratio = lt1 / lt2
    h_star = h if first_larger else 1.0 / h
    statistic = ratio * h_star
    gamma = gamma_star = None
    if tail:
        gamma = max(k1 / k2, k2 / k1)
        gamma_star = gamma if first_larger else 1.0 / gamma
        statistic *= gamma_star
    components = TestComponents(ratio, h, h_star, gamma, gamma_star)
    return _outcome(statistic, est1.n - 1, est2.n - 1, alpha, components)


def test_f2(
    est1: NrEstimate, est2: NrEstimate, alpha: float = 0.05
) -> TestOutcome:
    """Equality test of (first eigenvalue, first direction) pairs.

    F2 = F1 * h_star where h_star is the direction factor oriented by
    which sample carries the larger corrected eigenvalue. Two-sided only.
    """
    return _direction_test(est1, est2, alpha, tail=False)


def test_f3(
    est1: NrEstimate, est2: NrEstimate, alpha: float = 0.05
) -> TestOutcome:
    """Equality test of whole covariance matrices.

    F3 = F1 * h_star * gamma_star, adding the tail-mass factor
    gamma = max of the two kappa ratios, oriented like h_star.
    Two-sided only.
    """
    return _direction_test(est1, est2, alpha, tail=True)


def asymptotic_power(
    nu1: int,
    nu2: int,
    lambda_ratio: float,
    h: float = 1.0,
    gamma: float = 1.0,
    alpha: float = 0.05,
    which: str = "f1",
) -> float:
    """Large-d power of a two-sided test at the given truth.

    The statistic converges to c*f with f ~ F_{nu1,nu2} and c the first
    eigenvalue ratio, divided by h for the direction-adjusted test and by
    h*gamma for the full-covariance test. The power is the probability
    that c*f leaves the two-sided acceptance interval. `which` is one of
    "f1", "f2" and "f3", lower case.
    """
    nu1, nu2 = _check_count("nu1", nu1, 1), _check_count("nu2", nu2, 1)
    lambda_ratio = float(lambda_ratio)
    if not 0.0 < lambda_ratio < math.inf:
        raise ValueError(
            f"lambda_ratio must be finite and positive, got {lambda_ratio}"
        )
    h = float(h)
    gamma = float(gamma)
    for name, value in (("h", h), ("gamma", gamma)):
        if not 1.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 1, got {value}")
    alpha = _check_test_alpha(alpha)
    _check_choice("which", which, ("f1", "f2", "f3"))
    c = lambda_ratio / {"f1": 1.0, "f2": h, "f3": h * gamma}[which]
    if c == 0.0:
        # lambda_ratio / (h * gamma) underflowed: c*f is 0, below any lower point
        return 1.0
    lower, upper = _two_sided_bounds(nu1, nu2, alpha)
    # each tail is read directly: 1 - cdf loses the upper one at small alpha
    return f_cdf(nu1, nu2, lower / c) + float(_sc().fdtrc(nu1, nu2, upper / c))


def jarque_bera(values: np.ndarray) -> JarqueBera:
    """Moment-based normality screen for score vectors.

    JB = n/6 (skew^2 + (kurtosis - 3)^2 / 4), referred to the chi-square
    upper tail with 2 degrees of freedom. Needs at least 8 values for the
    moments to mean anything.

    That tail has a closed form. The chi-square(2) density is
    g(t) = exp(-t/2) / 2 for t >= 0, so

        P(X > x) = integral from x to inf of exp(-t/2) / 2 dt = exp(-x/2),

    and the p-value is `math.exp(-0.5 * JB)`: no incomplete gamma
    function, hence no scipy. 0.5 * JB is exact, so the only rounding is
    exp's own; the tail is 1 at JB = 0 and underflows to 0 past about
    JB = 1490.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be a vector, got shape {values.shape}")
    # skewness and kurtosis are scale-free, and at the power of two that puts
    # the largest magnitude in [1/2, 1) no moment overflows or underflows
    values, _ = _binade(values, fault="values must be finite")
    n = values.size
    if n < 8:
        raise ValueError(f"need at least 8 values, got {n}")
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    if m2 <= 0.0:
        raise ValueError("values have zero variance; moments are undefined")
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / (m2 * m2)
    statistic = n / 6.0 * (skew * skew + 0.25 * (kurt - 3.0) ** 2)
    return JarqueBera(
        statistic=statistic,
        p_value=math.exp(-0.5 * statistic),
        skewness=skew,
        kurtosis=kurt,
    )
