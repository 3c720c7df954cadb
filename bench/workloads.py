"""The four benchmark workloads.

Each workload draws its inputs from `numpy.random.default_rng` keyed by
the workload seed (never from `nrpca.sampling`, so a sampler change
cannot change the inputs), runs one closed-loop client through nrpca's
public functions or its CLI, and checks every output against
`oracles`. Import this module only after `harness.require_source()`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from nrpca import cli, inference, simulation
from nrpca.sampling import make_stream

import harness
import oracles

# the `nrpca` console script: import the CLI and exit with main()'s code
CLI_ENTRY = "import sys; from nrpca.cli import main; sys.exit(main())"


class Workload:
    """Inputs, the timed call, its oracle, and once-per-run checks."""

    name = ""
    stream = 0  # mixed into the seed so workloads draw independent inputs
    work_unit = "ops"
    rate_name: str | None = None  # the issue's name for work per second

    def __init__(self, seed: int, tmpdir: Path):
        self.seed = seed
        self.tmpdir = tmpdir
        self.rng = np.random.default_rng([seed, self.stream])

    def prepare(self) -> None:
        """Untimed input generation done once per run."""

    def inputs(self):
        """Endless (input, work units) pairs, a pure function of the seed."""
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def traced_call(self, inp):
        """The in-process form of `call` used by the traced run."""
        return self.call(inp)

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def run_checks(self) -> dict:
        """Untimed checks made once per run. With "counted" true their
        failures count as failed ops; otherwise they are only reported."""
        return {"attempted": 0, "failures": [], "counted": True}

    def _op_seeds(self):
        while True:
            yield int(self.rng.integers(0, 2**63))


# ------------------------------------------------------------ cli_estimate_csv


def make_expression_matrix(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Wide d x n matrix: per-row offsets, a rank-one spike, unit noise."""
    offsets = rng.uniform(0.0, 10.0, size=(d, 1))
    loadings = 0.5 * rng.standard_normal(d)
    scores = rng.standard_normal(n)
    return offsets + np.outer(loadings, scores) + rng.standard_normal((d, n))


def write_expression_csv(path: Path, x: np.ndarray) -> None:
    """Header row, one gene label per row, every value as %.17g."""
    n = x.shape[1]
    row = "g%07d," + ",".join(["%.17g"] * n) + "\n"
    with open(path, "w") as handle:
        handle.write("gene," + ",".join(f"s{j + 1}" for j in range(n)) + "\n")
        for i, values in enumerate(x):
            handle.write(row % (i + 1, *values))


class CliEstimateCsv(Workload):
    """`nrpca estimate --input F` as a user runs it, one subprocess per op."""

    name = "cli_estimate_csv"
    stream = 1
    work_unit = "estimates"
    d, n = 100_000, 40

    def prepare(self) -> None:
        x = make_expression_matrix(self.rng, self.d, self.n)
        self.csv = self.tmpdir / "expression.csv"
        write_expression_csv(self.csv, x)
        self.ref = oracles.nr_reference(x, with_direction=True)
        self.out = self.tmpdir / "estimate.json"

    def inputs(self):
        while True:
            yield str(self.csv), 1

    def _argv(self, path: str) -> list[str]:
        return ["estimate", "--input", path, "--out", str(self.out)]

    def call(self, path: str) -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *self._argv(path)],
            env=harness.child_env(),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(self.out.read_text())

    def traced_call(self, path: str) -> dict:
        code = cli.main(self._argv(path))
        if code != 0:
            raise RuntimeError(f"main() returned {code}")
        return json.loads(self.out.read_text())

    def check(self, path: str, rec: dict) -> str | None:
        ref = self.ref
        n = ref["n"]
        scores_t = np.asarray(rec["scores_tilde"])
        scores_h = np.asarray(rec["scores_hat"])
        jb_stat, jb_p = oracles.jarque_bera_reference(scores_t)
        return oracles.first(
            None if (rec["d"], rec["n"]) == (self.d, n) else f"shape {rec['d']}x{rec['n']}",
            *(oracles.mismatch(k, rec[k], ref[k]) for k in (
                "lambda_tilde_1", "lambda_hat_1", "kappa_tilde", "trace_dual",
                "contribution_ratio")),
            oracles.mismatch("h_tilde_norm_sq", rec["h_tilde_norm_sq"],
                             ref["lambda_hat_1"] / ref["lambda_tilde_1"]),
            oracles.mismatch("|scores_tilde . u1|", abs(float(scores_t @ ref["u1"])),
                             np.sqrt((n - 1) * ref["lambda_tilde_1"])),
            oracles.mismatch("|scores_hat|^2", float(scores_h @ scores_h),
                             (n - 1) * ref["lambda_hat_1"]),
            oracles.mismatch("jb_statistic", rec["jb_statistic"], jb_stat),
            oracles.mismatch("jb_p_value", rec["jb_p_value"], jb_p),
        )


# -------------------------------------------------------------------- mc_tests


class McTests(Workload):
    """Size/power study of F1-F3: many 10x10 and 20x20 eigenproblems."""

    name = "mc_tests"
    stream = 2
    work_unit = "replications"
    rate_name = "reps_per_s"
    d, n1, n2, alpha = 2048, 10, 20, 0.05
    reps = 4  # replications per op (two per arm)

    def inputs(self):
        for seed in self._op_seeds():
            yield seed, self.reps

    def call(self, seed: int):
        return simulation.run_test_mc(
            [self.d], n1=self.n1, n2=self.n2, reps=self.reps, alpha=self.alpha,
            seed=seed, workers=1, keep_samples=True,
        )

    def check(self, seed: int, summary) -> str | None:
        row = summary.rows[0]
        bounds = oracles.f_two_sided_bounds(self.n1 - 1, self.n2 - 1, self.alpha)
        for label, tag in (("size", "null"), ("power", "alt")):
            for test in ("f1", "f2", "f3"):
                flags = [oracles.reject(s, bounds) for s in summary.samples[(self.d, f"{test}_{tag}")]]
                if None not in flags and getattr(row, f"{label}_{test}") != float(np.mean(flags)):
                    return f"{label}_{test}={getattr(row, f'{label}_{test}')}, oracle {np.mean(flags)}"
        # replay one replication through the eigvalsh path
        half = self.reps // 2
        rep, arm = seed % half, (seed // half) % 2
        scenario = simulation.TwoSampleScenario(
            hypothesis="Ha" if arm else "H0", d=self.d, n1=self.n1, n2=self.n2, seed=seed
        )
        draw = simulation.gen_two_sample(scenario, make_stream(seed, self.d, rep, arm))
        want = oracles.two_sample_statistics(
            oracles.nr_reference(draw.x1.values, with_direction=True),
            oracles.nr_reference(draw.x2.values, with_direction=True),
        )
        tag = "alt" if arm else "null"
        return oracles.first(*(
            oracles.mismatch(f"{test} rep {rep} arm {arm}",
                             float(summary.samples[(self.d, f"{test}_{tag}")][rep]), w)
            for test, w in zip(("f1", "f2", "f3"), want)
        ))


# -------------------------------------------------------------- mc_pc_parallel


class McPcParallel(Workload):
    """Estimation study over three dimensions on a process pool."""

    name = "mc_pc_parallel"
    stream = 3
    work_unit = "replications"
    rate_name = "reps_per_s"
    model, d_values, n = "b", (512, 2048, 8192), 10
    reps = 48  # replications per dimension per op
    # per-replication values run_estimation_mc keeps under (d, name)
    metrics = ("lambda_tilde", "lambda_hat", "h_tilde", "h_hat", "mse_tilde", "mse_hat")

    def __init__(self, seed: int, tmpdir: Path):
        super().__init__(seed, tmpdir)
        self.workers = len(os.sched_getaffinity(0))

    def inputs(self):
        for seed in self._op_seeds():
            yield seed, self.reps * len(self.d_values)

    def _run(self, seed: int, workers: int):
        return simulation.run_estimation_mc(
            self.model, list(self.d_values), n=self.n, reps=self.reps,
            seed=seed, workers=workers, keep_samples=True,
        )

    def call(self, seed: int):
        return self._run(seed, self.workers)

    def traced_call(self, seed: int):
        # pool workers are separate processes the tracer cannot see into
        return self._run(seed, 1)

    def check(self, seed: int, summary) -> str | None:
        for k, (d, row) in enumerate(zip(self.d_values, summary.rows)):
            values = {m: summary.samples[(d, m)] for m in self.metrics}
            for m, v in values.items():
                reason = oracles.first(
                    oracles.mismatch(f"d={d} {m}_mean", getattr(row, f"{m}_mean"), float(np.mean(v))),
                    oracles.mismatch(f"d={d} {m}_var", getattr(row, f"{m}_var"), float(np.var(v, ddof=1))),
                )
                if reason:
                    return reason
            rep = (seed + k) % self.reps
            draw = simulation.gen_spiked(
                simulation.SpikeScenario(model=self.model, d=d, n=self.n, seed=seed),
                make_stream(seed, d, rep, 0),
            )
            want = self._replay(draw)
            for m, w in zip(self.metrics, want):
                reason = oracles.mismatch(f"d={d} rep {rep} {m}", float(values[m][rep]), w)
                if reason:
                    return reason
        return None

    def _replay(self, draw) -> tuple[float, ...]:
        ref = oracles.nr_reference(draw.x.values, with_direction=True)
        lam1, n = draw.lambda1, self.n
        lt1, lh1 = ref["lambda_tilde_1"], ref["lambda_hat_1"]
        # align the sign with the true direction (the first axis)
        sign = 1.0 if ref["xc_u1"][0] >= 0.0 else -1.0
        lead = sign * ref["xc_u1"][0]
        s_t = sign * np.sqrt((n - 1) * lt1) * ref["u1"]
        s_h = sign * np.sqrt((n - 1) * lh1) * ref["u1"]

        def mse(scores):
            return float(np.mean((scores - draw.true_scores) ** 2))

        return (
            lt1 / lam1,
            lh1 / lam1,
            lead / np.sqrt((n - 1) * lt1),
            lead / np.sqrt((n - 1) * lh1),
            mse(s_t) / lam1,
            mse(s_h) / lam1,
        )

    def run_checks(self) -> dict:
        """Worker invariance: rows and samples at workers=nproc equal those
        at workers=1 byte for byte, for one seed per run."""
        seed = int(np.random.default_rng([self.seed, self.stream, 1]).integers(0, 2**63))
        one = self._run(seed, 1)
        many = self._run(seed, self.workers)
        same = json.dumps(one.as_records()).encode() == json.dumps(many.as_records()).encode()
        same = same and all(
            one.samples[key].tobytes() == many.samples[key].tobytes() for key in one.samples
        )
        failures = [] if same else [f"workers={self.workers} rows differ from workers=1 (seed {seed})"]
        return {"attempted": 1, "failures": failures, "counted": True,
                "worker_invariance": same, "workers": self.workers, "seed": seed}


# ----------------------------------------------------------- inference_queries


class InferenceQueries(Workload):
    """Interval, F-test and power queries: optimal_ab and quantile inversion.

    Run by report.py and by hand, but not listed in BENCHMARK.json: on a
    2-vCPU shared host its throughput spread 0.08-0.29 (IQR over median)
    across sets of ten seeds, beyond the largest bound a driver accepts.
    """

    name = "inference_queries"
    stream = 4
    work_unit = "queries"
    rate_name = "queries_per_s"
    n_range = (5, 60)
    # half the alphas come from this grid, so (df, alpha) keys repeat; the
    # rest are log-uniform over [alpha_min, 0.2] and almost never repeat
    alpha_grid = (0.2, 0.1, 0.05, 0.01, 0.005, 0.001)
    alpha_min = 1e-3
    kinds = ("ci", "f1_two_sided", "f1_less", "power")
    kind_p = (0.4, 0.2, 0.2, 0.2)
    # the accepted alphas below alpha_min, checked once per run on a grid
    census_alphas = (5e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)
    census_n = tuple(range(3, 61))
    census_nu = (2, 4, 9, 19, 39, 59)
    # queries per op: one op's time sums several query kinds, so its median
    # does not hinge on where the kinds' times split the distribution
    batch = 10

    def _alpha(self) -> float:
        if self.rng.random() < 0.5:
            return float(self.alpha_grid[self.rng.integers(len(self.alpha_grid))])
        return float(10.0 ** self.rng.uniform(np.log10(self.alpha_min), np.log10(0.2)))

    def _n(self) -> int:
        return int(self.rng.integers(self.n_range[0], self.n_range[1] + 1))

    def _query(self) -> tuple:
        rng = self.rng
        kind = self.kinds[rng.choice(len(self.kinds), p=self.kind_p)]
        if kind == "ci":
            return (kind, float(rng.uniform(0.5, 50.0)), float(rng.uniform(1.0, 500.0)),
                    self._n(), self._alpha())
        if kind == "power":
            return (kind, self._n() - 1, self._n() - 1, float(np.exp(rng.uniform(-1.6, 1.6))),
                    float(rng.uniform(1.0, 3.0)), float(rng.uniform(1.0, 3.0)), self._alpha(),
                    ("f1", "f2", "f3")[rng.integers(3)])
        return (kind, float(rng.uniform(0.5, 50.0)), float(rng.uniform(0.5, 50.0)),
                self._n(), self._n(), self._alpha())

    def inputs(self):
        while True:
            yield tuple(self._query() for _ in range(self.batch)), self.batch

    def call(self, batch):
        out = []
        for q in batch:
            try:
                out.append(self.call_one(q))
            except ValueError as exc:
                raise ValueError(f"{exc} [query {q}]") from exc
        return out

    def check(self, batch, out) -> str | None:
        return oracles.first(*(self.check_one(q, o) for q, o in zip(batch, out)))

    def call_one(self, q):
        kind, *args = q
        if kind == "ci":
            return inference.contribution_ci(*args)
        if kind == "power":
            return inference.asymptotic_power(*args)
        alternative = "two-sided" if kind == "f1_two_sided" else "less"
        return inference.test_f1(*args, alternative)

    def check_one(self, q, out) -> str | None:
        kind, *args = q
        if kind == "ci":
            return oracles.check_interval(out, *args)
        if kind == "power":
            nu1, nu2, ratio, h, gamma, alpha, which = args
            c = ratio / {"f1": 1.0, "f2": h, "f3": h * gamma}[which]
            return oracles.mismatch(f"power {q}", out, oracles.power_reference(nu1, nu2, c, alpha))
        alternative = "two-sided" if kind == "f1_two_sided" else "less"
        return oracles.check_f1(out, *args, alternative)

    def run_checks(self) -> dict:
        """Census of the accepted alphas below the timed range: every
        interval for n in [3, 60] and every F critical value for a grid of
        (nu1, nu2), checked against the same oracles and tolerance."""
        failures, keys = [], []
        queries = [("ci", 2.0, 8.0, n, a) for a in self.census_alphas for n in self.census_n]
        queries += [
            (kind, 2.0, 1.0, nu1 + 1, nu2 + 1, a)
            for a in self.census_alphas
            for nu1 in self.census_nu
            for nu2 in self.census_nu
            for kind in ("f1_two_sided", "f1_less")
        ]
        for q in queries:
            try:
                reason = self.check_one(q, self.call_one(q))
            except ValueError as exc:
                reason = f"ValueError: {exc}"
            if reason is not None:
                key = (q[3] - 1, q[4]) if q[0] == "ci" else (q[3] - 1, q[4] - 1, q[5])
                keys.append([q[0], *key])
                failures.append(f"{q[0]} {key}: {reason}")
        return {"attempted": len(queries), "failures": failures, "counted": False,
                "failing_keys": keys}


WORKLOADS = {w.name: w for w in (CliEstimateCsv, McTests, McPcParallel, InferenceQueries)}
