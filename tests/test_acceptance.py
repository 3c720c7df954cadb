"""End-to-end gates on the headline numbers.

Each test guards one numbered release check: pinned interval anchors, the
power formula against a fresh simulation, distributional bands for the
large-dimension Monte Carlo, structural identities of the estimator, and
byte-stable output across worker counts. Verdict lines are printed by the
terminal hook in conftest.py.
"""

import json
from dataclasses import asdict
from time import perf_counter

import numpy as np
import pytest
from scipy import stats

from nrpca.cli import main
from nrpca.estimators import nr_estimate
from nrpca.inference import asymptotic_power, chi2_cdf, contribution_ci, optimal_ab
from nrpca.inference import test_f1 as f1_test
from nrpca.linalg import DataMatrix, center_columns
from nrpca.sampling import make_stream, sample_chi2
from nrpca.simulation import run_estimation_mc, run_test_mc


class _Criterion:
    """Record a PASS/FAIL line for one numbered check, then re-raise."""

    def __init__(self, log, number: int):
        self._log = log
        self._number = number
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._log(self._number, "FAIL" if exc_type else "PASS", self.detail)
        return False


def _ks_pvalue(samples: np.ndarray, cdf) -> float:
    return stats.kstest(samples, cdf, method="asymp").pvalue


def test_contribution_interval_anchors(criterion_log):
    with _Criterion(criterion_log, 1) as c:
        t0 = perf_counter()
        first = contribution_ci(2717.0, 9865.0, 20)
        second = contribution_ci(1256.0, 11326.0, 24)
        elapsed = perf_counter() - t0
        c.detail = (
            f"[{first.lower:.4f}, {first.upper:.4f}] and "
            f"[{second.lower:.4f}, {second.upper:.4f}] in {elapsed * 1e3:.0f} ms"
        )
        assert first.lower == pytest.approx(0.1201, abs=5e-4)
        assert first.upper == pytest.approx(0.3458, abs=5e-4)
        assert second.lower == pytest.approx(0.0557, abs=5e-4)
        assert second.upper == pytest.approx(0.1663, abs=5e-4)
        assert elapsed < 1.0


def test_power_formula_against_simulation(criterion_log, acceptance_seed):
    # one pool of million-draw F variates serves all three tests; only the
    # scale multiplier applied to the critical region differs
    with _Criterion(criterion_log, 2) as c:
        t0 = perf_counter()
        anchors = {"f1": 0.39, "f2": 0.726, "f3": 0.908}
        ratio, h, gamma = 1.0 / 3.0, 5.0 / 3.0, 1.5
        scale = {"f1": ratio, "f2": ratio / h, "f3": ratio / (h * gamma)}

        rng = make_stream(acceptance_seed, 2)
        draws = 10**6
        f_draws = (sample_chi2(rng, 9, draws) / 9.0) / (
            sample_chi2(rng, 19, draws) / 19.0
        )
        probe = f1_test(1.0, 1.0, 10, 20, alpha=0.05)
        lo, hi = probe.lower_crit, probe.upper_crit

        worst = 0.0
        powers = {}
        for which in ("f1", "f2", "f3"):
            power = asymptotic_power(
                9, 19, ratio, h=h, gamma=gamma, alpha=0.05, which=which
            )
            mc = float(
                np.mean((f_draws < lo / scale[which]) | (f_draws > hi / scale[which]))
            )
            powers[which] = power
            worst = max(worst, abs(mc - power))
            assert power == pytest.approx(anchors[which], abs=0.005)
            assert mc == pytest.approx(power, abs=0.003)
        elapsed = perf_counter() - t0
        c.detail = (
            f"powers ({powers['f1']:.4f}, {powers['f2']:.4f}, {powers['f3']:.4f}), "
            f"max mc gap {worst:.4f}, in {elapsed:.1f} s"
        )
        assert elapsed < 10.0


def test_top_eigenvalue_estimate_distribution(criterion_log, est_a_2048, acceptance_seed):
    with _Criterion(criterion_log, 3) as c:
        row = est_a_2048.rows[0]
        # ratio samples scale to the pivot by n-1
        pivot = 9.0 * est_a_2048.samples[(2048, "lambda_tilde")]
        p_ks = _ks_pvalue(pivot, stats.chi2(9).cdf)
        c.detail = (
            f"mean {row.lambda_tilde_mean:.4f}, var {row.lambda_tilde_var:.4f}, "
            f"ks p {p_ks:.3f}"
        )
        assert 0.95 <= row.lambda_tilde_mean <= 1.05
        assert 0.17 <= row.lambda_tilde_var <= 0.27
        assert p_ks > 0.01

        # fast tier: smaller run, bands widened to +/- 0.08 around the
        # same limiting moments (1 and 2/9)
        fast = run_estimation_mc(
            "a", [512], n=10, reps=500, seed=acceptance_seed, keep_samples=True
        )
        frow = fast.rows[0]
        fast_pivot = 9.0 * fast.samples[(512, "lambda_tilde")]
        assert abs(frow.lambda_tilde_mean - 1.0) <= 0.08
        assert abs(frow.lambda_tilde_var - 2.0 / 9.0) <= 0.08
        assert _ks_pvalue(fast_pivot, stats.chi2(9).cdf) > 0.01


def test_score_error_distribution(criterion_log, est_a_2048):
    with _Criterion(criterion_log, 4) as c:
        row = est_a_2048.rows[0]
        c.detail = f"mse mean {row.mse_tilde_mean:.4f}, var {row.mse_tilde_var:.4f}"
        assert 0.07 <= row.mse_tilde_mean <= 0.13
        assert 0.012 <= row.mse_tilde_var <= 0.028


def test_direction_recovery(criterion_log, est_a_2048, est_b_2048):
    with _Criterion(criterion_log, 5) as c:
        row_a = est_a_2048.rows[0]
        row_b = est_b_2048.rows[0]
        c.detail = (
            f"rescaled alignment {row_a.h_tilde_mean:.4f} (a) / "
            f"{row_b.h_tilde_mean:.4f} (b); plain {row_b.h_hat_mean:.4f} (b)"
        )
        assert row_a.h_tilde_mean >= 0.97
        assert row_b.h_tilde_mean >= 0.97
        # under slow decay the unscaled direction estimate loses alignment
        assert row_b.h_hat_mean < row_b.h_tilde_mean


def test_two_sample_size_and_power(criterion_log, tests_2048):
    with _Criterion(criterion_log, 6) as c:
        row = tests_2048.rows[0]
        sizes = (row.size_f1, row.size_f2, row.size_f3)
        powers = (row.power_f1, row.power_f2, row.power_f3)
        c.detail = (
            f"sizes ({sizes[0]:.4f}, {sizes[1]:.4f}, {sizes[2]:.4f}), "
            f"powers ({powers[0]:.4f}, {powers[1]:.4f}, {powers[2]:.4f})"
        )
        for size in sizes:
            assert size == pytest.approx(0.05, abs=0.012)
        for power, anchor in zip(powers, (0.39, 0.726, 0.908)):
            assert power == pytest.approx(anchor, abs=0.03)


def test_null_statistic_follows_f_reference(tests_2048):
    # distributional check beyond the rejection-rate gate: under the null
    # the first-stage statistic should be F with (n1-1, n2-1) df
    f1_null = tests_2048.samples[(2048, "f1_null")]
    assert _ks_pvalue(f1_null, stats.f(9, 19).cdf) > 0.01


def test_structural_identities(criterion_log):
    with _Criterion(criterion_log, 7) as c:
        rng = np.random.default_rng(20260819)
        for d, n in ((100, 12), (37, 60), (64, 24)):
            x = rng.standard_normal((d, n)) * np.exp(rng.normal(size=(d, 1)))
            est = nr_estimate(x)
            assert est.lambda_tilde[0] + est.kappa_tilde == pytest.approx(
                est.trace_dual, rel=1e-12
            )
            # the stored direction's squared norm carries the bias ratio
            h_sq = est.h_tilde_1 @ est.h_tilde_1
            assert h_sq * est.lambda_tilde[0] == pytest.approx(
                est.lambda_hat[0], rel=1e-10
            )

            # the small-side spectrum must agree with the full covariance
            xc = center_columns(DataMatrix(x))
            primal = xc @ xc.T / (n - 1)
            prim_eigs = np.linalg.eigvalsh(primal)[::-1]
            rank = min(d, n - 1)
            for k in range(rank):
                if prim_eigs[k] <= 1e-10 * prim_eigs[0]:
                    break
                assert est.lambda_hat[k] == pytest.approx(prim_eigs[k], rel=1e-8)

        worst_cov = 0.0
        worst_stat = 0.0
        for df, alpha in ((19, 0.05), (9, 0.05), (19, 0.10), (30, 0.01)):
            pair = optimal_ab(df, alpha)
            coverage = chi2_cdf(df, pair.b) - chi2_cdf(df, pair.a)
            lhs = pair.a**2 * stats.chi2.pdf(pair.a, df)
            rhs = pair.b**2 * stats.chi2.pdf(pair.b, df)
            worst_cov = max(worst_cov, abs(coverage - (1.0 - alpha)))
            worst_stat = max(worst_stat, abs(lhs - rhs) / rhs)
            assert coverage == pytest.approx(1.0 - alpha, abs=1e-8)
            assert lhs == pytest.approx(rhs, rel=1e-6)
        c.detail = (
            f"interval coverage gap {worst_cov:.1e}, "
            f"stationarity gap {worst_stat:.1e}"
        )


def test_worker_invariant_output(criterion_log, acceptance_seed, tmp_path):
    def estimation_blob(workers: int) -> str:
        summary = run_estimation_mc(
            "a", [16, 64], n=10, reps=24, seed=acceptance_seed, workers=workers
        )
        return json.dumps([asdict(r) for r in summary.rows], sort_keys=True)

    def test_blob(workers: int) -> str:
        summary = run_test_mc(
            [16], n1=10, n2=20, reps=16, seed=acceptance_seed, workers=workers
        )
        return json.dumps([asdict(r) for r in summary.rows], sort_keys=True)

    def cli_bytes(study: str, workers: int) -> bytes:
        out = tmp_path / f"{study}_{workers}.csv"
        argv = ["simulate", "--study", study, "--seed", "99", "--workers", str(workers)]
        if study == "pc":
            argv += ["--model", "a", "--d", "8,64", "--n", "10", "--R", "60"]
        else:
            argv += ["--d", "8", "--n1", "10", "--n2", "20", "--R", "16"]
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    with _Criterion(criterion_log, 8) as c:
        est_ref = estimation_blob(1)
        tst_ref = test_blob(1)
        cli_ref = {study: cli_bytes(study, 1) for study in ("pc", "tests")}
        for workers in (2, 8):
            assert estimation_blob(workers) == est_ref
            assert test_blob(workers) == tst_ref
            for study in ("pc", "tests"):
                assert cli_bytes(study, workers) == cli_ref[study]
        c.detail = "library rows and command output identical for 1/2/8 workers"
