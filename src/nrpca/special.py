"""Chi-square and F distribution functions for the contribution-ratio
interval and the F1-F3 tests.

Every function is an argument-checked scalar wrapper over `scipy.special`
(Cephes), which computes complements and upper-tail inverses directly.
Upper points are therefore inverted from the tail probability itself,
never from 1 - alpha, so small alphas keep full relative accuracy.
`scipy.special` is imported on the first call, so importing this module
does not load scipy. The one chi-square tail `nrpca estimate` needs, the
Jarque-Bera p-value, has 2 degrees of freedom and the closed form
exp(-x/2), which `inference.jarque_bera` computes itself, so `estimate`
runs without scipy.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "chi2_cdf",
    "chi2_quantile",
    "chi2_upper_point",
    "f_cdf",
    "f_upper_point",
]


@functools.cache
def _sc():
    """`scipy.special`, imported on first use."""
    import scipy.special

    return scipy.special


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


def chi2_cdf(df: float, x: float) -> float:
    """Chi-square CDF with df degrees of freedom, df > 0."""
    return float(_sc().chdtr(_check_positive("df", df), _check_nonnegative(x)))


def chi2_quantile(df: float, p: float) -> float:
    """Lower-tail chi-square quantile: the q with chi2_cdf(df, q) = p."""
    df = _check_positive("df", df)
    p = _check_probability("probability", p)
    return 2.0 * float(_sc().gammaincinv(0.5 * df, p))


def chi2_upper_point(df: float, alpha: float) -> float:
    """Upper alpha point of the chi-square distribution: P(X > value) = alpha."""
    df = _check_positive("df", df)
    alpha = _check_probability("alpha", alpha)
    return float(_sc().chdtri(df, alpha))


def f_cdf(d1: float, d2: float, x: float) -> float:
    """F distribution CDF with (d1, d2) degrees of freedom."""
    d1, d2 = _check_f_dfs(d1, d2)
    return float(_sc().fdtr(d1, d2, _check_nonnegative(x)))


def f_upper_point(d1: float, d2: float, alpha: float) -> float:
    """Upper alpha point of the F distribution: P(F > value) = alpha.

    Computed as 1 / (lower alpha point of F(d2, d1)), which inverts the
    tail probability alpha itself.
    """
    d1, d2 = _check_f_dfs(d1, d2)
    alpha = _check_probability("alpha", alpha)
    return 1.0 / float(_sc().fdtri(d2, d1, alpha))
