"""Chi-square and F distribution functions against frozen high-precision
values, mpmath tails and scipy.

Frozen constants were produced by independent extended-precision
routines (50-digit series/quadrature, bisection on 40-digit CDFs):
regularized gamma P(s, x) via its power series summed to 200 terms,
regularized beta I_x(a, b) via adaptive quadrature of the integrand, and
quantiles via bisection. The gamma and beta values gate the CDFs through
the identities P(s, x) = chi2_cdf(2s, 2x) and
I_x(a, b) = f_cdf(2a, 2b, b x / (a (1 - x))).
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from nrpca.inference import (
    chi2_cdf,
    chi2_quantile,
    chi2_upper_point,
    f_cdf,
    f_upper_point,
)

# (s, x, 200-term series at 50 digits)
GAMMA_P_CASES = [
    (0.5, 0.1, 0.345279153981422971),
    (0.5, 2.0, 0.954499736103641586),
    (2.0, 0.5, 0.0902040104310498646),
    (3.5, 3.5, 0.571120142446945281),
    (4.5, 4.5, 0.5627258110861329359),
    (4.5, 10.0, 0.982087595470156726),
    (10.0, 3.0, 0.00110248813011547974),
    (25.0, 24.0, 0.445998776925004314),
    (25.0, 60.0, 0.999999890411928874),
    (120.0, 100.0, 0.0282303939648656927),
    (0.7, 0.001, 0.0087383602814559933),
]

# (a, b, x, adaptive quadrature at 40 digits)
BETA_I_CASES = [
    (0.5, 0.5, 0.25, 1.0 / 3.0),
    (2.0, 3.0, 0.4, 0.5248),
    (4.5, 9.5, 0.3, 0.45948345219911479897),
    (4.5, 9.5, 0.7, 0.998309262906752437),
    (9.5, 4.5, 0.3, 0.00169073709324756258),
    (12.0, 8.0, 0.55, 0.316926011310584217),
    (0.5, 8.0, 0.02, 0.424350894029675489),
    (30.0, 40.0, 0.45, 0.644748008558568044),
]

# (df, p, bisection on the 40-digit CDF)
CHI2_QUANTILE_CASES = [
    (9, 0.025, 2.7003894999803579164),
    (9, 0.975, 19.022767798641635213),
    (19, 0.025, 8.9065164819879725344),
    (19, 0.975, 32.852326861729705993),
]


@pytest.mark.parametrize("s,x,expected", GAMMA_P_CASES)
def test_reg_gamma_p_frozen(s, x, expected):
    # P(s, x) is the chi-square(2s) CDF at 2x
    assert abs(chi2_cdf(2.0 * s, 2.0 * x) - expected) <= 1e-12


def test_reg_gamma_p_exponential_case():
    # s=1 reduces to 1 - exp(-x); at x = ln 4 that is exactly 3/4
    assert abs(chi2_cdf(2.0, 2.0 * math.log(4.0)) - 0.75) <= 1e-12


def test_reg_gamma_p_edges():
    assert chi2_cdf(6.0, 0.0) == 0.0


@pytest.mark.parametrize("a,b,x,expected", BETA_I_CASES)
def test_reg_beta_i_frozen(a, b, x, expected):
    # I_x(a, b) is the F(2a, 2b) CDF at b x / (a (1 - x))
    assert abs(f_cdf(2.0 * a, 2.0 * b, b * x / (a * (1.0 - x))) - expected) <= 1e-12


def test_chi2_cdf_df2_is_exponential():
    for x in np.linspace(0.0, 50.0, 101):
        assert abs(chi2_cdf(2.0, x) - (1.0 - math.exp(-x / 2.0))) <= 1e-12


def test_chi2_cdf_real_df_frozen():
    assert abs(chi2_cdf(4.5, 3.2) - 0.399622690669975636) <= 1e-12


def test_chi2_pdf_integrates_to_cdf():
    # trapezoid integral of scipy's density tracks the CDF increment
    df = 7.0
    grid = np.linspace(1.0, 9.0, 4001)
    dens = stats.chi2.pdf(grid, df)
    integral = np.trapezoid(dens, grid)
    assert abs(integral - (chi2_cdf(df, 9.0) - chi2_cdf(df, 1.0))) <= 1e-6


def test_chi2_quantile_median_df2():
    assert abs(chi2_quantile(2.0, 0.5) - 2.0 * math.log(2.0)) <= 1e-10


@pytest.mark.parametrize("df,p,expected", CHI2_QUANTILE_CASES)
def test_chi2_quantile_frozen(df, p, expected):
    assert abs(chi2_quantile(df, p) - expected) <= 1e-10 * expected


def test_chi2_quantile_roundtrip():
    probs = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
    for df in (2.0, 4.5, 9.0, 19.0, 120.0):
        for p in probs:
            assert abs(chi2_cdf(df, chi2_quantile(df, p)) - p) <= 1e-10


def test_f_cdf_frozen():
    assert abs(f_cdf(2.5, 7.5, 1.3) - 0.663223050437036504) <= 1e-12


def test_f_reciprocal_law():
    for d1, d2 in [(9.0, 19.0), (19.0, 9.0), (1.0, 1.0), (2.5, 7.5)]:
        for x in (0.2, 0.7, 1.0, 2.3, 11.0):
            assert abs(
                f_cdf(d1, d2, x) - (1.0 - f_cdf(d2, d1, 1.0 / x))
            ) <= 1e-10


def test_f_quantile_roundtrip():
    alphas = [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999]
    for d1, d2 in [(9.0, 19.0), (19.0, 9.0), (1.0, 1.0), (2.5, 7.5)]:
        for a in alphas:
            assert abs(1.0 - f_cdf(d1, d2, f_upper_point(d1, d2, a)) - a) <= 1e-10


def test_f_quantile_frozen():
    assert abs(f_upper_point(9.0, 19.0, 0.025) - 2.8800520467237991307) <= 1e-9
    assert abs(f_upper_point(19.0, 9.0, 0.025) - 3.6833380832180524683) <= 1e-9


def test_f_upper_point_matches_quantile():
    # the upper point inverts alpha itself and the quantile inverts
    # 1 - alpha, so the two agree to rounding, not bit for bit
    assert f_upper_point(9.0, 19.0, 0.05) == pytest.approx(
        special.fdtri(9.0, 19.0, 0.95), rel=1e-14
    )
    assert abs(f_upper_point(9.0, 19.0, 0.05) - 2.4226989371239705544) <= 1e-9


@pytest.mark.parametrize(
    "d1,d2,alpha",
    [
        (300.0, 19.0, 1e-300),
        (1e4, 2.0, 1e-200),
        (1e4, 1.0, 1e-300),
        (1e9, 2.0, 1e-300),
        (1.0, 1.0, 6e-155),
        (20.0, 50.0, 1e-302),
        (8.0, 1e9, 1e-304),
    ],
)
def test_f_upper_point_steps_safely_in_the_far_tails(d1, d2, alpha):
    # here the F density underflows, d1 f overflows, or alpha / g(f) is
    # past the double range: a Newton step of (tail - alpha) / g(f)
    # divided by zero, took the log of zero or overflowed in exp; in the
    # last two the tail is inexact, and the step of 2e-3 and 9e-4 of the
    # point that the 1e-8 bound refuses moves it away from the true one
    # (`fdtri` is off by 6.5e-4 and 4.2e-4, the step's point by 1.3e-3)
    point = f_upper_point(d1, d2, alpha)
    assert point == pytest.approx(1.0 / special.fdtri(d2, d1, alpha), rel=1e-8)


@pytest.mark.parametrize("alpha", [1e-2, 1e-4, 1e-6, 1e-9, 1e-12])
def test_small_alpha_points_match_mpmath_tails(alpha):
    # the tail mass at each returned point, evaluated at 50 digits, must
    # give back alpha: small alphas are where inverting 1 - alpha fails
    with mpmath.workdps(50):
        for d1, d2 in [(9, 19), (19, 9)]:
            x = mpmath.mpf(f_upper_point(d1, d2, alpha))
            tail = mpmath.betainc(
                d2 / 2, d1 / 2, 0, d2 / (d2 + d1 * x), regularized=True
            )
            assert float(tail) == pytest.approx(alpha, rel=1e-12)
        for df in (1, 19):
            lower = mpmath.mpf(chi2_quantile(df, alpha)) / 2
            upper = mpmath.mpf(chi2_upper_point(df, alpha)) / 2
            head = mpmath.gammainc(df / 2, 0, lower, regularized=True)
            tail = mpmath.gammainc(df / 2, upper, mpmath.inf, regularized=True)
            assert float(head) == pytest.approx(alpha, rel=1e-12)
            assert float(tail) == pytest.approx(alpha, rel=1e-12)
