"""Independent reference computations the benchmark checks nrpca against.

Eigen quantities come from LAPACK (`numpy.linalg.eigvalsh`, and `eigh`
where a direction is needed) on the benchmark's own Gram matrix, never
from nrpca's solver. Distribution quantities come from `scipy.special`
(`chdtr`, `chdtrc`, `fdtr`, `fdtrc`, `fdtri`), never from nrpca's
special functions.

Tolerance: every compared value must agree to a relative 1e-9 (absolute
1e-12 near zero). The tolerance is fixed from what the program claims,
not from what it achieves: its Jacobi solver and LAPACK are both
backward stable, which leaves eigenvalue-derived values about 1e-13
apart, and its quantile inversion stops at a CDF error of 1e-13, which
for the conventional alphas leaves critical values within about 1e-10.
Quantile errors that grow beyond this at small alphas are reported as
failures.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

RTOL = 1e-9
ATOL = 1e-12


def mismatch(what: str, got: float, want: float) -> str | None:
    """None when got and want agree within the tolerance, else a reason."""
    if got is None or not math.isfinite(got) or not math.isclose(
        got, want, rel_tol=RTOL, abs_tol=ATOL
    ):
        return f"{what}: got {got!r}, oracle {want!r}"
    return None


def first(*reasons: str | None) -> str | None:
    """The first non-None reason, or None."""
    return next((r for r in reasons if r is not None), None)


# ---------------------------------------------------------------- estimators


def nr_reference(x: np.ndarray, with_direction: bool = False) -> dict:
    """Noise-reduced first-component quantities of a d x n matrix.

    lambda_tilde_1 = lambda_hat_1 - (trace - lambda_hat_1)/(n - 2) on the
    eigvalsh spectrum of the dual covariance Xc^T Xc/(n - 1).
    """
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    gram = (xc.T @ xc) / (n - 1)
    gram = (gram + gram.T) / 2.0
    if with_direction:
        values, vectors = np.linalg.eigh(gram)
    else:
        values, vectors = np.linalg.eigvalsh(gram), None
    lam = values[::-1]
    trace = float(lam.sum())
    lh1 = float(lam[0])
    lt1 = lh1 - (trace - lh1) / (n - 2)
    out = {
        "n": n,
        "lambda_hat_1": lh1,
        "lambda_tilde_1": lt1,
        "kappa_tilde": trace - lt1,
        "trace_dual": trace,
        "contribution_ratio": lt1 / trace,
    }
    if with_direction:
        u1 = vectors[:, -1]
        out["u1"] = u1
        out["xc_u1"] = xc @ u1
    return out


def direction(ref: dict, corrected: bool = True) -> np.ndarray:
    """Direction estimate Xc u1 / sqrt((n-1) lambda), up to sign."""
    lam = ref["lambda_tilde_1"] if corrected else ref["lambda_hat_1"]
    return ref["xc_u1"] / math.sqrt((ref["n"] - 1) * lam)


def jarque_bera_reference(values: np.ndarray) -> tuple[float, float]:
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / (m2 * m2)
    stat = values.size / 6.0 * (skew * skew + 0.25 * (kurt - 3.0) ** 2)
    return stat, float(sc.chdtrc(2.0, stat))


# ------------------------------------------------------------------ F tests


def f_two_sided_bounds(nu1: int, nu2: int, alpha: float) -> tuple[float, float]:
    """Acceptance interval [F lower alpha/2 point, F upper alpha/2 point].

    The upper point is taken as 1 / (lower point of F(nu2, nu1)) so that
    small alphas are not rounded away in 1 - alpha/2.
    """
    return float(sc.fdtri(nu1, nu2, alpha / 2.0)), 1.0 / float(
        sc.fdtri(nu2, nu1, alpha / 2.0)
    )


def f_less_bound(nu1: int, nu2: int, alpha: float) -> float:
    return float(sc.fdtri(nu1, nu2, alpha))


def two_sample_statistics(ref1: dict, ref2: dict) -> tuple[float, float, float]:
    """F1, F2 and F3 from two nr_reference(with_direction=True) records."""
    lt1, lt2 = ref1["lambda_tilde_1"], ref2["lambda_tilde_1"]
    f1 = lt1 / lt2
    inner = abs(float(direction(ref1) @ direction(ref2)))
    h = 0.5 * inner + 0.5 / inner
    k1, k2 = ref1["kappa_tilde"], ref2["kappa_tilde"]
    gamma = max(k1 / k2, k2 / k1)
    larger = lt1 >= lt2
    h_star = h if larger else 1.0 / h
    gamma_star = gamma if larger else 1.0 / gamma
    return f1, f1 * h_star, f1 * h_star * gamma_star


def reject(statistic: float, bounds: tuple[float, float]) -> bool | None:
    """Two-sided decision, or None when the statistic sits on a bound
    within the tolerance (either decision is then acceptable)."""
    for bound in bounds:
        if math.isclose(statistic, bound, rel_tol=RTOL):
            return None
    return statistic < bounds[0] or statistic > bounds[1]


# --------------------------------------------------------------- inference


def check_interval(result, lt1: float, kappa: float, n: int, alpha: float) -> str | None:
    """Coverage, stationarity and endpoints of a contribution_ci result.

    Coverage: chdtr(df, a) + chdtrc(df, b) = alpha (tails, so small alpha
    keeps its digits). Stationarity of the minimum-length pair,
    a^2 g(a) = b^2 g(b) for the chi-square density g, written in logs as
    (df/2 + 1) ln(b/a) = (b - a)/2 and compared on the scale (b - a)/2.
    """
    df = n - 1
    a, b = result.a, result.b
    if not 0.0 < a < b:
        return f"pair not ordered: a={a!r}, b={b!r}"
    tails = float(sc.chdtr(df, a)) + float(sc.chdtrc(df, b))
    half_gap = 0.5 * (b - a)
    stationarity = (0.5 * df + 1.0) * math.log(b / a) - half_gap
    mass = (n - 1) * lt1
    return first(
        mismatch(f"tail mass (df={df}, alpha={alpha})", tails, alpha),
        mismatch(f"stationarity (df={df}, alpha={alpha})", half_gap + stationarity, half_gap),
        mismatch("lower", result.lower, mass / (b * kappa + mass)),
        mismatch("upper", result.upper, mass / (a * kappa + mass)),
        None if result.df == df else f"df {result.df} != {df}",
    )


def check_f1(outcome, lt1: float, lt2: float, n1: int, n2: int, alpha: float,
             alternative: str) -> str | None:
    nu1, nu2 = n1 - 1, n2 - 1
    statistic = lt1 / lt2
    if alternative == "two-sided":
        bounds = f_two_sided_bounds(nu1, nu2, alpha)
        crit = first(
            mismatch(f"lower_crit ({nu1},{nu2},{alpha})", outcome.lower_crit, bounds[0]),
            mismatch(f"upper_crit ({nu1},{nu2},{alpha})", outcome.upper_crit, bounds[1]),
        )
        want = reject(statistic, bounds)
    else:
        bound = f_less_bound(nu1, nu2, alpha)
        crit = mismatch(f"lower_crit less ({nu1},{nu2},{alpha})", outcome.lower_crit, bound)
        want = None if math.isclose(statistic, bound, rel_tol=RTOL) else statistic < bound
    return first(
        mismatch("statistic", outcome.statistic, statistic),
        crit,
        None if want is None or want == outcome.reject_null
        else f"reject_null={outcome.reject_null}, oracle {want}",
    )


def power_reference(nu1: int, nu2: int, c: float, alpha: float) -> float:
    lower, upper = f_two_sided_bounds(nu1, nu2, alpha)
    return float(sc.fdtr(nu1, nu2, lower / c)) + float(sc.fdtrc(nu1, nu2, upper / c))
