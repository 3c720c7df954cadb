"""Interval and test machinery against independent solvers and closed forms.

The quantile-pair solver is cross-checked live against scipy (different
distribution code, different root finder), interval coverage against the
exact quantile-event equivalence it must satisfy, and the power curve
against a direct scipy recomputation. Frozen constants come from those
same independent routes.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nrpca.estimators import DegenerateSpectrumError, NrEstimate, nr_estimate
from nrpca.inference import (
    CiResult,
    OrthogonalDirectionsError,
    QuantilePair,
    asymptotic_power,
    contribution_ci,
    direction_h,
    f_cdf,
    jarque_bera,
    optimal_ab,
    test_f1 as f1_test,
    test_f2 as f2_test,
    test_f3 as f3_test,
)
from nrpca.sampling import make_stream, sample_chi2

# minimum-length chi-square(19) pair at 95%, from an independent
# extended-precision solve of the stationarity system
A_19 = 9.899095215966568
B_19 = 38.327069509917955


def test_optimal_ab_frozen_pair():
    pair = optimal_ab(19, 0.05)
    assert pair.a == pytest.approx(A_19, rel=1e-12)
    assert pair.b == pytest.approx(B_19, rel=1e-12)


def test_optimal_ab_matches_scipy_root():
    from scipy import optimize, stats

    for df, alpha in [(9, 0.05), (19, 0.05), (23, 0.05), (27, 0.05), (19, 0.10)]:
        cov = 1.0 - alpha
        dist = stats.chi2(df)

        def b_of(a):
            return dist.ppf(dist.cdf(a) + cov)

        def stationarity(a):
            b = b_of(a)
            return a * a * dist.pdf(a) - b * b * dist.pdf(b)

        lo = dist.ppf(1e-6)
        hi = dist.ppf(alpha * (1.0 - 1e-9))
        a_ref = optimize.brentq(stationarity, lo, hi, xtol=1e-13, rtol=1e-14)
        b_ref = b_of(a_ref)

        pair = optimal_ab(df, alpha)
        assert pair.a == pytest.approx(a_ref, rel=1e-9)
        assert pair.b == pytest.approx(b_ref, rel=1e-9)


def test_optimal_ab_defining_equations():
    from scipy import special, stats

    # the small alphas down to the solver's 1e-6 floor are where
    # chi2_cdf(a) + coverage once rounded to above 1
    small = [
        (df, alpha)
        for df in range(2, 60)
        for alpha in (5e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)
    ]
    for df, alpha in [(9, 0.05), (19, 0.05), (23, 0.01), (40, 0.05)] + small:
        pair = optimal_ab(df, alpha)
        dist = stats.chi2(df)
        # coverage in tail form, so a small alpha keeps its digits
        tails = special.chdtr(df, pair.a) + special.chdtrc(df, pair.b)
        assert tails == pytest.approx(alpha, rel=1e-9)
        lhs = pair.a**2 * dist.pdf(pair.a)
        rhs = pair.b**2 * dist.pdf(pair.b)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_optimal_ab_beats_nearby_pairs():
    from scipy import stats

    df, alpha = 19, 0.05
    pair = optimal_ab(df, alpha)
    dist = stats.chi2(df)
    best = 1.0 / pair.a - 1.0 / pair.b
    # any coverage-preserving move off the solution must widen the interval
    for bump in (0.99, 0.999, 1.001, 1.01):
        a = pair.a * bump
        b = dist.ppf(dist.cdf(a) + 1.0 - alpha)
        assert 1.0 / a - 1.0 / b > best


def test_optimal_ab_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimal_ab(1, 0.05)
    with pytest.raises(ValueError):
        optimal_ab(19, 0.0)
    with pytest.raises(ValueError):
        optimal_ab(19, 1.0)
    with pytest.raises(ValueError):
        optimal_ab(19, 1e-9)
    with pytest.raises(ValueError, match="alpha"):
        optimal_ab(19, math.nan)
    # from 1 - alpha = 4e-6 on, brentq met a NaN upper point at df = 8
    message = r"^alpha must lie in \[1e-6, 1 - 1e-5\], got "
    for df in (2, 8, 1000):
        with pytest.raises(ValueError, match=message + r"0\.999999$"):
            optimal_ab(df, 0.999999)
    # both ends are in the range, and the next double past either is not
    for end, beyond in ((1e-6, 0.0), (1.0 - 1e-5, 1.0)):
        assert optimal_ab(2, end).a > 0.0
        with pytest.raises(ValueError, match=message):
            optimal_ab(2, np.nextafter(end, beyond))


def test_optimal_ab_converges_where_brent_takes_over_100_steps():
    # brentq's default cap of 100 iterations stopped these two solves
    from scipy import special

    for df, alpha in ((135, 0.999), (128, 0.999988)):
        pair = optimal_ab(df, alpha)
        tails = special.chdtr(df, pair.a) + special.chdtrc(df, pair.b)
        assert tails == pytest.approx(alpha, rel=1e-9)
        # a and b straddle the mode of t^2 g(t) closely, where that form
        # of the condition is flat: check the log form instead
        lhs = (0.5 * df + 1.0) * math.log(pair.b / pair.a)
        assert lhs == pytest.approx(0.5 * (pair.b - pair.a), rel=1e-9)


def test_benchmark_census_of_small_alphas_passes(monkeypatch, tmp_path):
    # every interval for n in [3, 60] and every F bound on a grid, at the
    # accepted alphas from 5e-4 down to 1e-6, against the benchmark's
    # oracles; a b formed from alpha - G(a) failed at df = 2 below 1e-5
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    checks = workloads.InferenceQueries(1, tmp_path).run_checks()
    assert checks["failing_keys"] == [], checks["failures"]


def test_quantile_pair_requires_order():
    with pytest.raises(ValueError):
        QuantilePair(a=2.0, b=2.0)
    with pytest.raises(ValueError):
        QuantilePair(a=-1.0, b=2.0)


def test_ci_result_validates_bounds():
    with pytest.raises(ValueError):
        CiResult(lower=0.4, upper=0.3, a=1.0, b=2.0, alpha=0.05, df=9)
    with pytest.raises(ValueError):
        CiResult(lower=-0.1, upper=0.3, a=1.0, b=2.0, alpha=0.05, df=9)
    with pytest.raises(ValueError):
        CiResult(lower=0.1, upper=1.3, a=1.0, b=2.0, alpha=0.05, df=9)


def test_contribution_ci_pinned_intervals():
    # case-study totals with the known 4-decimal reference intervals
    cases = [
        (2717.0, 9865.0, 20, 0.1201, 0.3458),
        (1256.0, 11326.0, 24, 0.0557, 0.1663),
        (1501.0, 11081.0, 28, 0.0706, 0.1884),
    ]
    for lt1, kappa, n, lo, hi in cases:
        ci = contribution_ci(lt1, kappa, n)
        assert abs(ci.lower - lo) <= 5e-4
        assert abs(ci.upper - hi) <= 5e-4
        assert ci.df == n - 1


def test_contribution_ci_formula():
    lt1, kappa, n = 2717.0, 9865.0, 20
    ci = contribution_ci(lt1, kappa, n)
    mass = (n - 1) * lt1
    assert ci.lower == pytest.approx(mass / (ci.b * kappa + mass), rel=1e-14)
    assert ci.upper == pytest.approx(mass / (ci.a * kappa + mass), rel=1e-14)
    assert ci.a == pytest.approx(A_19, rel=1e-12)
    assert ci.b == pytest.approx(B_19, rel=1e-12)


def test_contribution_ci_degenerate_edges():
    ci = contribution_ci(0.0, 5.0, 20)
    assert (ci.lower, ci.upper) == (0.0, 0.0)
    ci = contribution_ci(5.0, 0.0, 20)
    assert (ci.lower, ci.upper) == (1.0, 1.0)
    with pytest.raises(DegenerateSpectrumError):
        contribution_ci(0.0, 0.0, 20)
    with pytest.raises(ValueError):
        contribution_ci(-1.0, 5.0, 20)
    with pytest.raises(ValueError):
        contribution_ci(5.0, 5.0, 2)
    # a non-finite summary number is named, not turned into an interval
    for lt1, kappa, name in [
        (1.0, math.inf, "kappa_tilde"),
        (1.0, math.nan, "kappa_tilde"),
        (math.inf, 5.0, "lambda_tilde_1"),
        (math.nan, 5.0, "lambda_tilde_1"),
        (-math.inf, 5.0, "lambda_tilde_1"),
    ]:
        with pytest.raises(ValueError, match=name):
            contribution_ci(lt1, kappa, 10)
    with pytest.raises(ValueError, match="alpha"):
        contribution_ci(1.0, 5.0, 10, alpha=math.nan)


def test_contribution_ci_survives_an_overflowing_mass():
    # (n - 1) lt1 or b * kappa leaves the double range; the interval is
    # found at a common power-of-two scale, where nothing overflows
    ci = contribution_ci(1e308, 1.0, 10)
    assert (ci.lower, ci.upper) == (1.0, 1.0)
    ci = contribution_ci(1e308, 0.0, 10)
    assert (ci.lower, ci.upper) == (1.0, 1.0)
    ci = contribution_ci(0.0, 1e308, 10)
    assert (ci.lower, ci.upper) == (0.0, 0.0)


def test_contribution_ci_returns_python_floats():
    # numpy 2 prints its scalars as np.float64(...), so a numpy scalar
    # leaking into the interval would show in its repr
    for lt1, kappa in [(2717.0, 9865.0), (1e308, 5e-324), (np.float64(3.0), 5e-324)]:
        r = contribution_ci(lt1, kappa, 20)
        assert type(r.lower) is type(r.upper) is float
        assert "np.float64(" not in repr(r)


_SIGNIFICANDS = st.just(0.0) | st.floats(1.0, 2.0, exclude_max=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    lt1=st.tuples(_SIGNIFICANDS, st.integers(-100, 100)),
    kappa=st.tuples(_SIGNIFICANDS, st.integers(-100, 100)),
    n=st.integers(3, 80),
    top=st.integers(-700, 1023) | st.integers(1000, 1023),
)
def test_contribution_ci_is_exact_under_power_of_two_scaling(lt1, kappa, n, top):
    # a common power of two leaves the interval's bits unchanged, also
    # where (n - 1) lt1 or b * kappa leaves the double range. The larger
    # value is scaled to binary exponent `top`, so every scaled value
    # stays between 2^-900 and 2^1024, clear of the subnormals
    if lt1[0] == 0.0 and kappa[0] == 0.0:
        return
    shift = top - max(e for m, e in (lt1, kappa) if m)
    lt1, kappa = math.ldexp(*lt1), math.ldexp(*kappa)
    scaled = contribution_ci(math.ldexp(lt1, shift), math.ldexp(kappa, shift), n)
    ci = contribution_ci(lt1, kappa, n)
    assert (scaled.lower, scaled.upper) == (ci.lower, ci.upper)


@pytest.mark.parametrize("k", [-1074, -1060, -1030])
def test_contribution_ci_is_exact_at_subnormal_inputs(k):
    # a subnormal x = 2^k holds fewer bits than 1.0, but 3x is still
    # exact, and the interval is computed at a scale where neither is
    # subnormal; at x = 1e-310, 3x would not be exactly 3 times x
    x = math.ldexp(1.0, k)
    for ratio in (1.0, 3.0):
        got = contribution_ci(ratio * x, x, 10)
        want = contribution_ci(ratio, 1.0, 10)
        assert got.lower.hex() == want.lower.hex()
        assert got.upper.hex() == want.upper.hex()


def test_counts_must_be_integers():
    # a fractional count used to be truncated, and an infinite one or one
    # past the double range raised a bare OverflowError; each is now named
    calls = [
        ("n", lambda v: contribution_ci(1.0, 5.0, v)),
        ("df", lambda v: optimal_ab(v, 0.05)),
        ("n1", lambda v: f1_test(1.0, 1.0, v, 20)),
        ("n2", lambda v: f1_test(1.0, 1.0, 10, v)),
        ("nu1", lambda v: asymptotic_power(v, 19, 1.5)),
        ("nu2", lambda v: asymptotic_power(9, v, 1.5)),
    ]
    for name, call in calls:
        for value in (10.9, 10.0, math.inf, math.nan, True, "10"):
            with pytest.raises(TypeError, match=f"^{name} must be an integer"):
                call(value)
        with pytest.raises(ValueError, match=f"^{name} is too large for a float"):
            call(10**400)
        call(2**62)  # a large count that a float holds still works
        call(np.int64(10))  # numpy integers are counts too
    assert contribution_ci(1.0, 5.0, np.int32(10)) == contribution_ci(1.0, 5.0, 10)


def test_contribution_ci_covers_iff_pivot_in_pair():
    # in the limit model the interval covers the true ratio exactly when
    # the chi-square pivot lands in [a, b]; check the equivalence per
    # draw, then the event frequency at scale
    n, lam1, kappa = 20, 1.0, 3.0
    truth = lam1 / (lam1 + kappa)
    pair = optimal_ab(n - 1, 0.05)

    rng = make_stream(813, 19)
    pivots = sample_chi2(rng, n - 1, size=200_000)

    for w in pivots[:3000]:
        ci = contribution_ci(w * lam1 / (n - 1), kappa, n)
        covered = ci.lower <= truth <= ci.upper
        assert covered == (pair.a <= w <= pair.b)

    frequency = np.mean((pivots >= pair.a) & (pivots <= pair.b))
    assert abs(frequency - 0.95) <= 0.002


def test_f1_statistic_and_symmetry():
    out = f1_test(4.0, 2.0, 10, 20)
    assert out.statistic == pytest.approx(2.0)
    assert (out.nu1, out.nu2) == (9, 19)
    swapped = f1_test(2.0, 4.0, 20, 10)
    assert swapped.statistic == pytest.approx(0.5)
    assert swapped.reject_null == out.reject_null


def test_f1_never_rejects_equal_eigenvalues():
    for alpha in (0.05, 0.01, 0.2):
        out = f1_test(3.7, 3.7, 10, 20, alpha=alpha)
        assert out.statistic == 1.0
        assert not out.reject_null


def test_f1_two_sided_critical_region():
    # frozen 97.5% upper points for (9, 19) and (19, 9)
    upper = 2.8800520467237991307
    lower = 1.0 / 3.6833380832180524683
    out = f1_test(upper * 1.001, 1.0, 10, 20)
    assert out.reject_null
    out = f1_test(upper * 0.999, 1.0, 10, 20)
    assert not out.reject_null
    out = f1_test(lower * 0.999, 1.0, 10, 20)
    assert out.reject_null
    out = f1_test(lower * 1.001, 1.0, 10, 20)
    assert not out.reject_null
    out = f1_test(2.0, 1.0, 10, 20)
    assert out.lower_crit == pytest.approx(lower, rel=1e-12)
    assert out.upper_crit == pytest.approx(upper, rel=1e-12)


def test_f1_less_alternative_matches_cdf():
    # rejecting "less" at level alpha is the same event as the statistic's
    # F cdf falling below alpha
    for stat in (0.05, 0.2, 0.33, 0.5, 1.0, 2.0):
        out = f1_test(stat, 1.0, 10, 20, alpha=0.05, alternative="less")
        assert out.reject_null == (f_cdf(9, 19, stat) < 0.05)
        assert out.upper_crit is None
    with pytest.raises(ValueError):
        f1_test(1.0, 1.0, 10, 20, alternative="greater")


def test_every_test_refuses_alpha_zero():
    # (0, 1/2) is the one test-alpha range: alpha = 0 has an infinite
    # upper point and never rejects, so no test takes it
    e1 = np.array([1.0, 0.0, 0.0])
    est = _fake_estimate(4.0, 6.0, e1)
    message = r"^test alpha must lie in \(0, 1/2\), got 0\.0$"
    for run in (
        lambda: f1_test(1e6, 1.0, 10, 20, alpha=0.0),
        lambda: f1_test(1e-6, 1.0, 10, 20, alpha=0.0, alternative="less"),
        lambda: f2_test(est, est, alpha=0.0),
        lambda: f3_test(est, est, alpha=0.0),
        lambda: asymptotic_power(9, 19, 1.5, alpha=0.0),
    ):
        with pytest.raises(ValueError, match=message):
            run()


def test_f1_rejects_bad_inputs():
    with pytest.raises(ValueError):
        f1_test(0.0, 1.0, 10, 20)
    with pytest.raises(ValueError):
        f1_test(1.0, 1.0, 2, 20)
    with pytest.raises(ValueError):
        f1_test(1.0, 1.0, 10, 20, alpha=0.5)
    for alpha in (-0.1, math.nan):
        for alternative in ("two-sided", "less"):
            with pytest.raises(ValueError, match="alpha"):
                f1_test(1.0, 1.0, 10, 20, alpha=alpha, alternative=alternative)


def test_non_finite_eigenvalues_are_named_not_accepted():
    # a nan eigenvalue gave a nan statistic, which no critical value
    # rejects; nan and +-inf are now a ValueError, not a degenerate spectrum
    e1 = np.array([1.0, 0.0, 0.0])
    good = _fake_estimate(2.0, 2.0, e1)
    for value in (math.nan, math.inf, -math.inf):
        for alternative in ("two-sided", "less"):
            for args, name in (((value, 1.0), "lt1"), ((1.0, value), "lt2")):
                with pytest.raises(ValueError, match=f"^{name} must be finite") as info:
                    f1_test(*args, 10, 20, alternative=alternative)
                assert not isinstance(info.value, DegenerateSpectrumError)
        bad = _fake_estimate(value, 2.0, e1)
        for test in (f2_test, f3_test):
            for pair, sample in (((bad, good), 1), ((good, bad), 2)):
                name = re.escape(f"lambda_tilde_1 (sample {sample}) must be finite")
                with pytest.raises(ValueError, match=name) as info:
                    test(*pair)
                assert not isinstance(info.value, DegenerateSpectrumError)
        # F3's tail masses go through the same check
        bad_tail = _fake_estimate(2.0, value, e1)
        for pair, sample in (((bad_tail, good), 1), ((good, bad_tail), 2)):
            name = re.escape(f"kappa_tilde (sample {sample}) must be finite")
            with pytest.raises(ValueError, match=name) as info:
                f3_test(*pair)
            assert not isinstance(info.value, DegenerateSpectrumError)


def test_a_statistic_outside_double_precision_is_named_not_returned():
    # 1e300 / 1e-300 used to come back as statistic=inf with no word, and
    # the swapped samples as statistic=0.0 with reject_null=True; both are
    # numerical failures, not a degenerate spectrum
    e1 = np.array([1.0, 0.0, 0.0])
    big, small = _fake_estimate(1e300, 1.0, e1), _fake_estimate(1e-300, 1.0, e1)
    # F1 and F2 are 1e±200 here, and F3's tail factor takes them past the range
    wide, unit = _fake_estimate(1e200, 1e200, e1), _fake_estimate(1.0, 1.0, e1)
    assert f2_test(wide, unit).statistic == pytest.approx(1e200)
    assert f2_test(unit, wide).statistic == pytest.approx(1e-200)
    for run in (
        lambda: f1_test(1e300, 1e-300, 10, 10),
        lambda: f1_test(1e-300, 1e300, 10, 10),
        lambda: f1_test(1e300, 1e-300, 10, 10, alternative="less"),
        lambda: f1_test(1e-300, 1e300, 10, 10, alternative="less"),
        lambda: f2_test(big, small),
        lambda: f2_test(small, big),
        lambda: f3_test(big, small),
        lambda: f3_test(small, big),
        lambda: f3_test(wide, unit),
        lambda: f3_test(unit, wide),
    ):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == "the F statistic is outside double precision"
        assert not isinstance(info.value, DegenerateSpectrumError)


def test_direction_h_known_angle():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0])
    assert direction_h(u, v) == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert direction_h(v, u) == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert direction_h(u, u) == pytest.approx(1.0, rel=1e-14)


def test_direction_h_reciprocal_inner_product():
    # the factor only depends on max(|c|, 1/|c|), so raw inner products
    # c and 1/c give the same value
    u = np.array([2.0, 0.0])
    v = np.array([0.4, 1.1])
    c = abs(float(u @ v))
    w = v / (c * c)
    assert direction_h(u, v) == pytest.approx(direction_h(u, w), rel=1e-12)
    assert direction_h(u, -v) == pytest.approx(direction_h(u, v), rel=1e-14)


def test_direction_h_orthogonal_raises():
    with pytest.raises(OrthogonalDirectionsError):
        direction_h(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    # the threshold is 1e-8 of the norms' product, not an exact zero
    with pytest.raises(OrthogonalDirectionsError):
        direction_h(np.array([1.0, 0.0]), np.array([1e-9, 1.0]))
    assert direction_h(np.array([1.0, 0.0]), np.array([1e-7, 1.0])) > 1e6
    with pytest.raises(ValueError):
        direction_h(np.array([0.0, 0.0]), np.array([0.0, 1.0]))


def test_direction_h_takes_norms_past_the_double_range():
    # the norms 2e160 and 2e-160 leave the double range as squares, but
    # their product, and the inner product 4, do not
    ones = np.ones(4)
    assert direction_h(1e160 * ones, 1e-160 * ones) == 2.125
    # an inner product of 4e400 or 4e-400 is outside it, not orthogonal
    for scale in (1e200, 1e-200):
        with pytest.raises(ValueError, match="outside the double range") as info:
            direction_h(scale * ones, scale * ones)
        assert type(info.value) is ValueError


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_direction_h_names_a_non_finite_vector(bad):
    # a nan used to come back as the factor, which F2 read as "do not
    # reject"; an inf raised the orthogonality error
    good = np.array([1.0, 0.5, 0.25])
    for h1, h2, name in (
        (np.array([bad, 0.5, 0.25]), good, "h1"),
        (good, np.array([1.0, bad, 0.25]), "h2"),
    ):
        with pytest.raises(ValueError, match=f"^direction vector {name} has") as info:
            direction_h(h1, h2)
        assert not isinstance(info.value, OrthogonalDirectionsError)


def test_direction_h_needs_vectors_of_one_length():
    # unequal lengths used to fail inside matmul with numpy's own message
    with pytest.raises(ValueError, match=re.escape("got shapes (2,) and (3,)")):
        direction_h(np.ones(2), np.ones(3))
    with pytest.raises(ValueError, match=re.escape("got shapes (2, 2) and (2, 2)")):
        direction_h(np.eye(2), np.eye(2))


def _fake_estimate(lt1: float, kappa: float, h1: np.ndarray, n: int = 10):
    lambda_tilde = np.concatenate(([lt1], np.full(n - 3, 0.01)))
    lambda_hat = np.concatenate(([lt1 * 1.2], np.full(n - 2, 0.01)))
    return NrEstimate(
        d=h1.size,
        n=n,
        lambda_tilde=lambda_tilde,
        lambda_hat=lambda_hat,
        kappa_tilde=kappa,
        trace_dual=lt1 + kappa,
        h_tilde_1=np.asarray(h1, dtype=np.float64),
        scores_tilde=np.zeros(n),
        scores_hat=np.zeros(n),
    )


def test_f2_composes_ratio_and_direction():
    e1 = np.array([1.0, 0.0, 0.0])
    tilted = np.array([1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0])
    big = _fake_estimate(4.0, 6.0, e1, n=10)
    small = _fake_estimate(2.0, 2.0, tilted, n=20)

    out = f2_test(big, small)
    assert out.statistic == pytest.approx(2.0 * 5.0 / 3.0, rel=1e-12)
    assert out.components.lambda_ratio == pytest.approx(2.0)
    assert out.components.h_tilde == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert out.components.h_star == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert (out.nu1, out.nu2) == (9, 19)

    # with the larger eigenvalue in the second sample the direction
    # factor flips to its reciprocal and the statistic inverts
    flipped = f2_test(small, big)
    assert flipped.statistic == pytest.approx(1.0 / out.statistic, rel=1e-12)
    assert flipped.components.h_star == pytest.approx(3.0 / 5.0, rel=1e-12)


def test_f3_adds_tail_factor():
    e1 = np.array([1.0, 0.0, 0.0])
    tilted = np.array([1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0])
    big = _fake_estimate(4.0, 6.0, e1, n=10)
    small = _fake_estimate(2.0, 2.0, tilted, n=20)

    out = f3_test(big, small)
    assert out.components.gamma_tilde == pytest.approx(3.0)
    assert out.components.gamma_star == pytest.approx(3.0)
    assert out.statistic == pytest.approx(2.0 * (5.0 / 3.0) * 3.0, rel=1e-12)

    flipped = f3_test(small, big)
    assert flipped.statistic == pytest.approx(1.0 / out.statistic, rel=1e-12)
    assert flipped.components.gamma_star == pytest.approx(1.0 / 3.0, rel=1e-12)

    dead_tail = _fake_estimate(4.0, 0.0, e1, n=10)
    with pytest.raises(DegenerateSpectrumError):
        f3_test(dead_tail, small)


def test_direction_factors_orient_to_the_first_sample_on_a_tie():
    # equal corrected eigenvalues: h_star and gamma_star keep their
    # sample-1 orientation, h and gamma themselves
    e1 = np.array([1.0, 0.0, 0.0])
    tilted = np.array([1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0])
    first = _fake_estimate(4.0, 6.0, e1, n=10)
    second = _fake_estimate(4.0, 2.0, tilted, n=20)
    out = f3_test(first, second)
    parts = out.components
    assert parts.lambda_ratio == 1.0
    assert parts.h_star == parts.h_tilde == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert parts.gamma_star == parts.gamma_tilde == pytest.approx(3.0)
    assert out.statistic == parts.h_star * parts.gamma_star
    assert f2_test(first, second).components.h_star == parts.h_tilde


def test_f2_identical_samples_do_not_reject():
    e1 = np.array([1.0, 0.0, 0.0])
    est = _fake_estimate(4.0, 6.0, e1, n=10)
    out = f2_test(est, est)
    assert out.statistic == pytest.approx(1.0)
    assert not out.reject_null
    out3 = f3_test(est, est)
    assert out3.statistic == pytest.approx(1.0)
    assert not out3.reject_null


def test_asymptotic_power_pinned_values():
    # (nu1, nu2) = (9, 19) at the planted two-sample truth; constants
    # frozen from the scipy recomputation below
    args = dict(nu1=9, nu2=19, lambda_ratio=1.0 / 3.0, alpha=0.05)
    assert asymptotic_power(which="f1", **args) == pytest.approx(
        0.39033557611143815, abs=1e-9
    )
    assert asymptotic_power(which="f2", h=5.0 / 3.0, **args) == pytest.approx(
        0.726270345339368, abs=1e-9
    )
    assert asymptotic_power(
        which="f3", h=5.0 / 3.0, gamma=1.5, **args
    ) == pytest.approx(0.9080667011918491, abs=1e-9)


def test_asymptotic_power_matches_scipy():
    from scipy import stats

    nu1, nu2, alpha = 9, 19, 0.05
    upper = stats.f.ppf(1.0 - alpha / 2.0, nu1, nu2)
    lower = 1.0 / stats.f.ppf(1.0 - alpha / 2.0, nu2, nu1)
    for ratio, h, gamma, which in [
        (1.0 / 3.0, 1.0, 1.0, "f1"),
        (1.0 / 3.0, 5.0 / 3.0, 1.0, "f2"),
        (1.0 / 3.0, 5.0 / 3.0, 1.5, "f3"),
        (2.0, 1.3, 1.0, "f2"),
    ]:
        c = {"f1": ratio, "f2": ratio / h, "f3": ratio / (h * gamma)}[which]
        want = stats.f.cdf(lower / c, nu1, nu2) + stats.f.sf(upper / c, nu1, nu2)
        got = asymptotic_power(nu1, nu2, ratio, h=h, gamma=gamma, which=which)
        assert got == pytest.approx(want, abs=1e-10)


def test_asymptotic_power_null_equals_level():
    for alpha in (0.05, 0.01, 0.2):
        got = asymptotic_power(9, 19, 1.0, alpha=alpha)
        assert got == pytest.approx(alpha, abs=1e-12)
    # the upper tail is read directly: as 1 - cdf it was off by a relative
    # 1.4e-10 at 1e-6, 8.3e-8 at 1e-10 and 1e-2 at 1e-14
    for alpha in (1e-6, 1e-10, 1e-14):
        got = asymptotic_power(9, 19, 1.0, alpha=alpha)
        assert abs(got - alpha) <= 32 * np.finfo(np.float64).eps * alpha


def test_asymptotic_power_monotone_in_ratio():
    powers = [
        asymptotic_power(9, 19, r) for r in (1.0, 1.5, 2.0, 3.0, 5.0)
    ]
    assert all(p2 > p1 for p1, p2 in zip(powers, powers[1:]))


def test_asymptotic_power_rejects_bad_inputs():
    with pytest.raises(ValueError):
        asymptotic_power(9, 19, 1.0, h=0.9)
    with pytest.raises(ValueError):
        asymptotic_power(9, 19, 1.0, gamma=0.5)
    with pytest.raises(ValueError):
        asymptotic_power(9, 19, -1.0)
    with pytest.raises(ValueError):
        asymptotic_power(9, 19, 1.0, alpha=0.5)
    # `which` is compared exactly, and a value that is not a string is
    # refused like a wrong one
    for which in ("f4", "F1", 3, None):
        with pytest.raises(ValueError, match="^which must be"):
            asymptotic_power(9, 19, 1.0, which=which)
    with pytest.raises(ValueError, match="^nu1 must be an integer >= 1"):
        asymptotic_power(0, 19, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        asymptotic_power(9, 19, 1.0, alpha=-0.1)
    # non-finite truths are named; h = inf used to divide by zero
    for ratio, h, gamma, name in [
        (math.nan, 1.0, 1.0, "lambda_ratio"),
        (math.inf, 1.0, 1.0, "lambda_ratio"),
        (1.5, math.inf, 1.0, "h"),
        (1.5, math.nan, 1.0, "h"),
        (1.5, 1.0, math.inf, "gamma"),
        (1.5, 1.0, math.nan, "gamma"),
    ]:
        for which in ("f1", "f2", "f3"):
            with pytest.raises(ValueError, match=name):
                asymptotic_power(9, 19, ratio, h=h, gamma=gamma, which=which)


def test_asymptotic_power_underflowing_ratio_rejects_surely():
    # lambda_ratio / h and h * gamma leave the double range: c*f is 0
    assert asymptotic_power(9, 19, 1e-300, h=1e300, which="f2") == 1.0
    assert asymptotic_power(9, 19, 1.0, h=1e200, gamma=1e200, which="f3") == 1.0
    # a subnormal c reaches the formula, which gives the same limit
    assert asymptotic_power(9, 19, 1e-300, h=1e10, which="f2") == 1.0


def test_jarque_bera_names_a_non_finite_value_before_the_count():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^values must be finite$"):
            jarque_bera(np.array([1.0, bad, 2.0]))


def test_jarque_bera_hand_computed():
    values = np.array([1.0, 2.0, 4.0, 1.5, 3.0, 2.5, 0.5, 5.0])
    n = values.size
    c = values - values.mean()
    m2 = np.mean(c**2)
    skew = np.mean(c**3) / m2**1.5
    kurt = np.mean(c**4) / m2**2
    want = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)

    jb = jarque_bera(values)
    assert jb.statistic == pytest.approx(want, rel=1e-13)
    assert jb.skewness == pytest.approx(skew, rel=1e-13)
    assert jb.kurtosis == pytest.approx(kurt, rel=1e-13)
    # chi-square(2) upper tail is exactly exp(-x/2)
    assert jb.p_value == pytest.approx(math.exp(-want / 2.0), rel=1e-12)


def _tail_matches_scipy(p, x):
    from scipy import stats

    want = float(stats.chi2.sf(x, 2))
    assert abs(p - want) <= 1e-13 * want, (x, p, want)


def test_jarque_bera_p_value_is_the_chi2_2_tail():
    rng = np.random.default_rng(31)
    spiked = rng.standard_normal(100_000)
    spiked[0] = 1e6
    cases = [
        # symmetric, with kurtosis exactly 3: a statistic of exactly 0
        np.array([-1.0, -1.0, 1.0, 1.0] + [0.0] * 8),
        rng.standard_normal(1000),
        rng.standard_normal(1000) ** 2,
        rng.exponential(size=200),
        # one outlier: a statistic near 4e13, whose tail underflows to 0
        spiked,
    ]
    stats_seen = []
    for values in cases:
        jb = jarque_bera(values)
        # the closed form itself, so the grid below covers the function
        assert jb.p_value == math.exp(-0.5 * jb.statistic)
        _tail_matches_scipy(jb.p_value, jb.statistic)
        stats_seen.append(jb.statistic)
    assert stats_seen[0] == 0.0 and stats_seen[-1] > 1e13
    # a grid of statistics, from 1e-300, which no data set reaches, to
    # underflow; (1420, 1500) is left out, where both tails are
    # subnormal and scipy's reaches 0 first
    grid = [0.0, 1e-300, 1e-12, 1e-3, 0.5, 2.0, 5.991464547107979, 10.0]
    grid += [100.0, 700.0, 1000.0, 1400.0, 1420.0, 1500.0, 1e4, 1e300]
    for x in grid:
        _tail_matches_scipy(math.exp(-0.5 * x), x)
    assert math.exp(-0.5 * 1500.0) == 0.0


@pytest.mark.parametrize("k", [-1014, -485, -100, 100, 330, 900])
def test_jarque_bera_is_exact_under_power_of_two_scaling(k):
    # of the raw scores times 2^k, m2^1.5 underflows to 0 at 2^-485 and
    # the fourth powers overflow at 2^330; skewness and kurtosis are
    # scale-free, so the bits must not move
    x = np.random.default_rng(3).standard_normal((200, 12))
    x[0] *= 30.0
    scores = nr_estimate(x).scores_tilde
    want = jarque_bera(scores)
    got = jarque_bera(scores * 2.0**k)
    assert (got.statistic, got.skewness, got.kurtosis) == (
        want.statistic,
        want.skewness,
        want.kurtosis,
    )


def test_jarque_bera_rejects_bad_inputs():
    with pytest.raises(ValueError):
        jarque_bera(np.arange(7.0))
    with pytest.raises(ValueError, match="zero variance"):
        jarque_bera(np.full(10, 2.5))
    # tiny but not constant: the variance of the raw values underflows
    assert jarque_bera([0.0] * 9 + [1e-200]).statistic > 0.0
    with pytest.raises(ValueError):
        jarque_bera(np.zeros((3, 4)))
    # a non-finite value used to give a nan statistic and p-value
    for bad in (np.nan, np.inf, -np.inf):
        values = np.linspace(-1.0, 1.0, 10)
        values[3] = bad
        with pytest.raises(ValueError, match="finite"):
            jarque_bera(values)


def test_jarque_bera_size_under_normality():
    # vectorized moment recomputation over many independent normal rows;
    # the 5% rejection rate at n=10000 should sit near nominal
    rng = np.random.default_rng(1234)
    reps, n = 2000, 10_000
    rejections = 0
    for _ in range(20):
        block = rng.standard_normal(size=(reps // 20, n))
        c = block - block.mean(axis=1, keepdims=True)
        m2 = np.mean(c**2, axis=1)
        skew = np.mean(c**3, axis=1) / m2**1.5
        kurt = np.mean(c**4, axis=1) / m2**2
        stat = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
        rejections += int(np.sum(np.exp(-stat / 2.0) < 0.05))
    rate = rejections / reps
    assert abs(rate - 0.05) <= 0.015

    # and the library function agrees with the vectorized oracle per row
    row = rng.standard_normal(size=n)
    c = row - row.mean()
    m2 = np.mean(c**2)
    want = n / 6.0 * (
        (np.mean(c**3) / m2**1.5) ** 2
        + (np.mean(c**4) / m2**2 - 3.0) ** 2 / 4.0
    )
    assert jarque_bera(row).statistic == pytest.approx(want, rel=1e-12)


def _statistics(x1, x2):
    """F1, F2 and F3 statistics of two samples, or each one's error."""
    try:
        e1, e2 = nr_estimate(x1), nr_estimate(x2)
    except ValueError as exc:
        return type(exc), str(exc)
    out = []
    for test, args in (
        (f1_test, (e1.lambda_tilde[0], e2.lambda_tilde[0], e1.n, e2.n)),
        (f2_test, (e1, e2)),
        (f3_test, (e1, e2)),
    ):
        try:
            out.append(test(*args).statistic)
        except ValueError as exc:
            out.append((type(exc), str(exc)))
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_row_sign_flips_leave_f_statistics_bit_identical(data):
    # d >= 2: with one row the tail mass is zero and F3 never runs
    d = data.draw(st.integers(2, 30))

    def sample():
        n = data.draw(st.integers(3, 12))
        elements = st.floats(-1e150, 1e150)
        return data.draw(arrays(np.float64, (d, n), elements=elements))

    x1, x2 = sample(), sample()
    flip = data.draw(arrays(np.bool_, d))[:, None]
    assert _statistics(
        np.where(flip, -x1, x1), np.where(flip, -x2, x2)
    ) == _statistics(x1, x2)
