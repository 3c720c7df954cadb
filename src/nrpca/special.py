"""Regularized incomplete gamma/beta functions and the chi-square / F
distribution helpers built on them.

Every function is an argument-checked scalar wrapper over `scipy.special`
(Cephes), which computes complements and upper-tail inverses directly.
Upper points are therefore inverted from the tail probability itself,
never from 1 - alpha, so small alphas keep full relative accuracy. The
densities and the normal CDF are closed forms.
"""

from __future__ import annotations

import math

from scipy import special as sc

__all__ = [
    "reg_gamma_p",
    "reg_gamma_q",
    "reg_beta_i",
    "std_normal_cdf",
    "chi2_cdf",
    "chi2_sf",
    "chi2_pdf",
    "chi2_quantile",
    "chi2_upper_point",
    "f_cdf",
    "f_pdf",
    "f_quantile",
    "f_upper_point",
    "kolmogorov_sf",
    "ks_statistic",
]


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _check_f_dfs(d1: float, d2: float) -> tuple[float, float]:
    d1 = _check_finite("d1", d1)
    d2 = _check_finite("d2", d2)
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    return d1, d2


def _check_nonnegative(x: float) -> float:
    x = _check_finite("x", x)
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return x


def _check_probability(name: str, p: float) -> float:
    p = _check_finite(name, p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {p}")
    return p


def reg_gamma_p(s: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(s, x).

    Parameters
    ----------
    s : float
        Shape, s > 0.
    x : float
        Integration bound, x >= 0.

    Returns
    -------
    float
        P(s, x) in [0, 1], monotone nondecreasing in x.
    """
    return float(sc.gammainc(_check_positive("shape s", s), _check_nonnegative(x)))


def reg_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(s, x) = 1 - P(s, x),
    computed directly so small tail probabilities keep full relative
    accuracy."""
    return float(sc.gammaincc(_check_positive("shape s", s), _check_nonnegative(x)))


def reg_beta_i(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Satisfies the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    a = _check_finite("a", a)
    b = _check_finite("b", b)
    x = _check_finite("x", x)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shapes must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return float(sc.betainc(a, b, x))


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    x = _check_finite("x", x)
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def chi2_cdf(df: float, x: float) -> float:
    """Chi-square CDF with df degrees of freedom, df > 0."""
    return float(sc.chdtr(_check_positive("df", df), _check_nonnegative(x)))


def chi2_sf(df: float, x: float) -> float:
    """Chi-square upper tail probability, accurate for large x."""
    return float(sc.chdtrc(_check_positive("df", df), _check_nonnegative(x)))


def chi2_pdf(df: float, x: float) -> float:
    """Chi-square density; 0 at x = 0 for df > 2, as a limit elsewhere."""
    df = _check_positive("df", df)
    x = _check_finite("x", x)
    if x < 0.0:
        return 0.0
    half = 0.5 * df
    if x == 0.0:
        if df > 2.0:
            return 0.0
        if df == 2.0:
            return 0.5
        return math.inf
    return math.exp(
        (half - 1.0) * math.log(x) - 0.5 * x - half * math.log(2.0) - math.lgamma(half)
    )


def chi2_quantile(df: float, p: float) -> float:
    """Lower-tail chi-square quantile: the q with chi2_cdf(df, q) = p."""
    df = _check_positive("df", df)
    p = _check_probability("probability", p)
    return 2.0 * float(sc.gammaincinv(0.5 * df, p))


def chi2_upper_point(df: float, alpha: float) -> float:
    """Upper alpha point of the chi-square distribution: P(X > value) = alpha."""
    df = _check_positive("df", df)
    alpha = _check_probability("alpha", alpha)
    return float(sc.chdtri(df, alpha))


def f_cdf(d1: float, d2: float, x: float) -> float:
    """F distribution CDF with (d1, d2) degrees of freedom."""
    d1, d2 = _check_f_dfs(d1, d2)
    return float(sc.fdtr(d1, d2, _check_nonnegative(x)))


def f_pdf(d1: float, d2: float, x: float) -> float:
    """F distribution density."""
    d1, d2 = _check_f_dfs(d1, d2)
    x = _check_finite("x", x)
    if x <= 0.0:
        return 0.0
    half1 = 0.5 * d1
    half2 = 0.5 * d2
    log_beta = math.lgamma(half1) + math.lgamma(half2) - math.lgamma(half1 + half2)
    return math.exp(
        half1 * math.log(d1 / d2)
        + (half1 - 1.0) * math.log(x)
        - (half1 + half2) * math.log1p(d1 * x / d2)
        - log_beta
    )


def f_quantile(d1: float, d2: float, p: float) -> float:
    """Lower-tail F quantile: the q with f_cdf(d1, d2, q) = p."""
    d1, d2 = _check_f_dfs(d1, d2)
    p = _check_probability("probability", p)
    return float(sc.fdtri(d1, d2, p))


def f_upper_point(d1: float, d2: float, alpha: float) -> float:
    """Upper alpha point of the F distribution: P(F > value) = alpha.

    Computed as 1 / (lower alpha point of F(d2, d1)), which inverts the
    tail probability alpha itself.
    """
    d1, d2 = _check_f_dfs(d1, d2)
    alpha = _check_probability("alpha", alpha)
    return 1.0 / float(sc.fdtri(d2, d1, alpha))


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution."""
    return float(sc.kolmogorov(_check_finite("x", x)))


def ks_statistic(values, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_emp - F|.

    Parameters
    ----------
    values : sequence of float
        Sample draws (any order).
    cdf : callable
        Hypothesized CDF evaluated pointwise.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("ks_statistic needs at least one value")
    dist = 0.0
    for i, v in enumerate(ordered):
        f = cdf(v)
        dist = max(dist, (i + 1) / n - f, f - i / n)
    return dist
