"""Synthetic data generators and the Monte Carlo harness.

Two single-sample scenarios produce spiked-covariance data with a
Gaussian bulk and a heavy-tailed block (scaled t, identity covariance)
occupying the last ceil(sqrt(d)) coordinates, so the first principal
component stays Gaussian. The two-sample generator builds a pair of
block covariances (2x2 spike plus AR(1) tail) that are equal under the
null and differ by a known eigenvalue ratio, direction rotation, and
tail-mass factor under the alternative.

Replications are embarrassingly parallel. Each replication draws from
its own counter-based substream keyed by (seed, d, replication, arm).
Both studies run through one loop, `_run_study`. A study checks d, the
sample sizes and the seed only by building one frozen scenario per d,
and those scenarios are the jobs: `_run_study` maps every (scenario,
replication) pair through `parallel.ordered_map`, the map the CSV loader
uses too: at most `workers` forked processes, one per usable core and
one per job, so a count above the core count runs at the core count; and
a serial map in a daemonic process, which may not start processes. The
workers are forked once and kept; `nrpca.parallel` says when it forks
anew. First it applies `parallel.keep_freed_memory` to the calling
process, whose forked workers inherit it: replications reuse freed
memory instead of faulting it in again. The setting outlives the call
and never changes a value.
Jobs are submitted largest d first, so the pool's last chunks are the
cheapest, and the results are put back in (d, replication) order, where
the study's summary turns each d's values into its row and its named
per-replication samples. As each replication is a pure function of
(seed, d, replication), a run is byte-identical for any worker count
and any order of the d values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, make_dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .estimators import nr_estimate
from .inference import _check_test_alpha, test_f1, test_f2, test_f3
from .linalg import DataMatrix
from .parallel import keep_freed_memory, ordered_map
from .sampling import (
    Seed,
    _check_choice,
    _check_count,
    _check_real,
    _check_seed,
    _polar_normals,
    make_stream,
    sample_scaled_t_vector,
    sample_std_normal,
)

__all__ = [
    "SpikeScenario",
    "TwoSampleScenario",
    "SpikedSample",
    "TwoSampleDraw",
    "EstimationRow",
    "TestRow",
    "McSummary",
    "spike_eigenvalues",
    "gen_spiked",
    "gen_ar1",
    "gen_two_sample",
    "run_estimation_mc",
    "run_test_mc",
]

_T_DF = 10
_TAIL_RHO = 0.3


@dataclass(frozen=True)
class SpikeScenario:
    """Single-sample spiked model: model 'a' has eigenvalues d^(1/i),
    model 'b' has d^(3/(2+2i)); the population eigenvectors are the
    coordinate axes."""

    model: str
    d: int
    n: int
    seed: Seed

    def __post_init__(self):
        _check_choice("model", self.model, ("a", "b"))
        object.__setattr__(self, "d", _check_count("d", self.d, 4))
        object.__setattr__(self, "n", _check_count("n", self.n, 3))
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True)
class TwoSampleScenario:
    """Two Gaussian samples with block covariances; 'H0' makes them
    equal, 'Ha' scales the spike by 3 and 1.5, rotates it, and scales
    the AR(1) tail by 1.5. Sample 2 against sample 1, the first
    eigenvalue ratio, the inner product of the first directions and the
    tail-mass ratio are 1, 1 and 1 under 'H0', and 3, 1/3 and 1.5 under
    'Ha'."""

    hypothesis: str
    d: int
    n1: int
    n2: int
    seed: Seed

    def __post_init__(self):
        _check_choice("hypothesis", self.hypothesis, ("H0", "Ha"))
        object.__setattr__(self, "d", _check_count("d", self.d, 8))
        object.__setattr__(self, "n1", _check_count("n1", self.n1, 3))
        object.__setattr__(self, "n2", _check_count("n2", self.n2, 3))
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True)
class SpikedSample:
    """One draw of a `SpikeScenario`; its true first direction is the
    first coordinate axis."""

    x: DataMatrix
    lambda1: float
    true_scores: np.ndarray


@dataclass(frozen=True)
class TwoSampleDraw:
    x1: DataMatrix
    x2: DataMatrix


# typed, so that 8.0 or True cannot hit the entry that 8 or 1 made
@lru_cache(maxsize=64, typed=True)
def spike_eigenvalues(model: str, d: int) -> np.ndarray:
    """Population eigenvalue vector for the given scenario model.

    The returned array is cached and marked read-only.
    """
    _check_choice("model", model, ("a", "b"))
    d = _check_count("d", d, 1)
    index = np.arange(1, d + 1, dtype=np.float64)
    if model == "a":
        values = float(d) ** (1.0 / index)
    else:
        values = float(d) ** (3.0 / (2.0 + 2.0 * index))
    values.flags.writeable = False
    return values


def gen_spiked(scenario: SpikeScenario, rng: np.random.Generator) -> SpikedSample:
    """Draw one d x n data matrix from the spiked model, with truth.

    The innovation matrix has standard normal rows except the last
    ceil(sqrt(d)) rows, which form a scaled t block (df 10, identity
    covariance, one mixing draw per column). Rows are then scaled by
    the square roots of the population eigenvalues. The first row is
    always Gaussian, so the true scores sqrt(lambda1) * z_1j are too.
    """
    d, n = scenario.d, scenario.n
    d_star = math.isqrt(d - 1) + 1  # ceil(sqrt(d))
    z = np.empty((d, n))
    gauss = d - d_star
    _polar_normals(rng, gauss * n, out=z.reshape(-1)[: gauss * n])
    z[gauss:] = sample_scaled_t_vector(rng, d_star, _T_DF, n)
    lam = spike_eigenvalues(scenario.model, d)
    lambda1 = float(lam[0])
    true_scores = math.sqrt(lambda1) * z[0]
    z *= np.sqrt(lam)[:, None]
    return SpikedSample(x=DataMatrix(z), lambda1=lambda1, true_scores=true_scores)


def gen_ar1(
    d: int, rho: float, scale: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """`size` AR(1) vectors with covariance scale * rho^|s-t| exactly, as
    the columns of a d x size array, driven by independent innovations.

    x_1 = sqrt(scale) e_1 and x_t = rho x_{t-1} + sqrt(scale (1-rho^2)) e_t,
    solved for all columns at once as one unit-bidiagonal system by BLAS
    `dtbsv`, whose per-step arithmetic (one multiply, one add) matches
    the recursion bit for bit. The array returned is Fortran-ordered.
    """
    d = _check_count("d", d, 1)
    rho = _check_real("rho", rho, lambda r: -1.0 < r < 1.0, "lie in (-1, 1)")
    positive = (lambda v: 0.0 < v < math.inf, "be positive and finite")
    scale = _check_real("scale", scale, *positive)
    e = sample_std_normal(rng, (d, size))
    if e.size == 0:  # dtbsv rejects an empty vector
        return e
    # only the AR(1) tail of the tests study loads scipy.linalg
    from scipy.linalg.blas import dtbsv

    scales = np.full(d, math.sqrt(scale * (1.0 - rho * rho)))
    scales[0] = math.sqrt(scale)
    # the columns, one after another, as one vector; x_t - (-rho) x_{t-1}
    # with the transposed upper band: its dot of length one rounds like
    # rho * x_{t-1}, where the untransposed lower form fuses to an FMA.
    # A zero at each column's first entry stops the recursion there; the
    # band's diagonal row is never read (unit diagonal).
    x = np.multiply(e.T, scales, order="C")
    band = np.full((2, d * size), -rho, order="F")
    band[0, ::d] = 0.0
    y = dtbsv(1, band, x.reshape(-1), lower=0, trans=1, diag=1, overwrite_x=1)
    return y.reshape(size, d).T


def _spike_transforms(
    hypothesis: str, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Loading matrices B so that the 2x2 spiked block is B @ z.

    Under the null both samples use the same diagonal loadings; under
    the alternative the second sample's block covariance becomes the
    rotation of diag(3 d^(3/4), 1.5 d^(1/2)) by the symmetric orthogonal
    matrix with rows (1/3, sqrt(8)/3) and (sqrt(8)/3, -1/3).
    """
    b1 = np.diag([float(d) ** 0.375, float(d) ** 0.25])
    if hypothesis == "H0":
        return b1, b1
    root8 = math.sqrt(8.0)
    rotation = np.array([[1.0 / 3.0, root8 / 3.0], [root8 / 3.0, -1.0 / 3.0]])
    b2 = rotation @ np.diag(
        [
            math.sqrt(3.0) * float(d) ** 0.375,
            math.sqrt(1.5) * float(d) ** 0.25,
        ]
    )
    return b1, b2


def gen_two_sample(
    scenario: TwoSampleScenario, rng: np.random.Generator
) -> TwoSampleDraw:
    """Draw the two Gaussian samples.

    Draw order is fixed: sample 1 spike block, sample 1 tail, sample 2
    spike block, sample 2 tail.
    """
    d, n1, n2 = scenario.d, scenario.n1, scenario.n2
    b1, b2 = _spike_transforms(scenario.hypothesis, d)
    tail_scale = 1.5 if scenario.hypothesis == "Ha" else 1.0

    top1 = b1 @ sample_std_normal(rng, (2, n1))
    tail1 = gen_ar1(d - 2, _TAIL_RHO, 1.0, rng, size=n1)
    top2 = b2 @ sample_std_normal(rng, (2, n2))
    tail2 = gen_ar1(d - 2, _TAIL_RHO, tail_scale, rng, size=n2)
    return TwoSampleDraw(
        x1=DataMatrix(np.vstack((top1, tail1))),
        x2=DataMatrix(np.vstack((top2, tail2))),
    )


_ESTIMATION_METRICS = (
    "lambda_tilde",
    "lambda_hat",
    "h_tilde",
    "h_hat",
    "mse_tilde",
    "mse_hat",
)
_TESTS = ("f1", "f2", "f3")


def _row_class(name: str, doc: str, keys: list, columns: list[str]) -> type:
    """A frozen dataclass of the typed `keys`, then one float per column."""
    fields = [*keys, *((column, float) for column in columns)]
    namespace = {"__doc__": doc, "__module__": __name__}
    return make_dataclass(name, fields, frozen=True, namespace=namespace)


EstimationRow = _row_class(
    "EstimationRow",
    """Per-d summary of the single-sample study. Ratios are relative to
    the true first eigenvalue; inner products use the true direction.""",
    [("model", str), ("d", int), ("n", int), ("reps", int)],
    [f"{m}_{s}" for m in _ESTIMATION_METRICS for s in ("mean", "var", "se")],
)

TestRow = _row_class(
    "TestRow",
    "Per-d empirical size and power of the three tests.",
    [("d", int), ("n1", int), ("n2", int), ("alpha", float), ("reps", int)],
    [f"{s}_{t}" for s in ("size", "size_se", "power", "power_se") for t in _TESTS],
)


@dataclass(frozen=True)
class McSummary:
    """Ordered per-d rows plus, optionally, the raw per-replication
    values keyed by (d, metric name)."""

    study: str
    seed: Seed
    rows: tuple
    samples: dict | None = None

    def as_records(self) -> list[dict]:
        return [asdict(row) for row in self.rows]


def _estimation_rep(scenario: SpikeScenario, rep: int) -> tuple[float, ...]:
    rng = make_stream(scenario.seed, scenario.d, rep, 0)
    draw = gen_spiked(scenario, rng)
    est = nr_estimate(draw.x)
    lam1 = draw.lambda1
    # the true direction is the first axis, so h_tilde_1[0] is the inner
    # product with it; the signs are flipped to make it nonnegative
    h_tilde = float(est.h_tilde_1[0])
    sign = -1.0 if h_tilde < 0.0 else 1.0
    e_tilde = sign * est.scores_tilde - draw.true_scores
    e_hat = sign * est.scores_hat - draw.true_scores
    return (
        float(est.lambda_tilde[0]) / lam1,
        float(est.lambda_hat[0]) / lam1,
        abs(h_tilde),
        abs(h_tilde) / math.sqrt(est.h_tilde_norm_sq),
        float(e_tilde @ e_tilde) / scenario.n / lam1,
        float(e_hat @ e_hat) / scenario.n / lam1,
    )


def _test_rep(
    alpha: float, scenario: TwoSampleScenario, rep: int
) -> tuple[float, ...]:
    """Null arm then alternative arm, each as the F1/F2/F3 statistics
    followed by their rejections."""
    out: list[float] = []
    arms = (scenario, replace(scenario, hypothesis="Ha"))
    for arm, arm_scenario in enumerate(arms):
        rng = make_stream(scenario.seed, scenario.d, rep, arm)
        draw = gen_two_sample(arm_scenario, rng)
        est1 = nr_estimate(draw.x1)
        est2 = nr_estimate(draw.x2)
        lt1, lt2 = float(est1.lambda_tilde[0]), float(est2.lambda_tilde[0])
        o1 = test_f1(lt1, lt2, est1.n, est2.n, alpha)
        o2 = test_f2(est1, est2, alpha)
        o3 = test_f3(est1, est2, alpha)
        out += (o1.statistic, o2.statistic, o3.statistic)
        out += (o1.reject_null, o2.reject_null, o3.reject_null)
    return tuple(out)


def _d_list(d_values) -> list[int]:
    d_list = [_check_count("d_values", d) for d in d_values]
    if not d_list:
        raise ValueError("d_values must be nonempty")
    return d_list


def _run_study(
    study, rep_fn, scenarios, reps, workers, keep_samples, summarize
) -> McSummary:
    """rep_fn(scenario, rep) for every scenario and rep < reps, as one
    (reps, k) array per scenario, which summarize(scenario, by_rep) turns
    into a row and its named per-replication samples, in the scenarios'
    order. The jobs are submitted largest d first, Graham's
    longest-processing-time-first rule, so no pool worker is left alone
    with a chunk of the costliest ones."""
    workers = _check_count("workers", workers, 1)
    order = sorted(range(len(scenarios)), key=lambda i: -scenarios[i].d)
    jobs = [scenarios[i] for i in order for _ in range(reps)]
    keep_freed_memory()
    results = ordered_map(rep_fn, jobs, list(range(reps)) * len(order), workers=workers)
    values = np.array(results, dtype=np.float64).reshape(len(order), reps, -1)
    rows = []
    samples: dict = {}
    for scenario, by_rep in zip(scenarios, values[np.argsort(order)]):
        row, named = summarize(scenario, by_rep)
        rows.append(row)
        if keep_samples:
            samples.update({(scenario.d, k): v.copy() for k, v in named.items()})
    return McSummary(
        study, scenarios[0].seed, tuple(rows), samples if keep_samples else None
    )


def run_estimation_mc(
    model: str,
    d_values: list[int],
    n: int = 10,
    reps: int = 2000,
    seed: Seed = 0,
    workers: int = 1,
    keep_samples: bool = False,
) -> McSummary:
    """Monte Carlo study of both first-eigenvalue estimators.

    Each replication draws a fresh spiked sample from its own substream
    keyed by (seed, d, replication), estimates, aligns signs with the
    true direction, and records eigenvalue ratios, direction inner
    products, and normalized score mean squared errors. Deterministic
    for a fixed seed regardless of `workers`.
    """
    reps = _check_count("reps", reps, 2)
    scenarios = [SpikeScenario(model, d, n, seed) for d in _d_list(d_values)]

    def summarize(scenario, by_rep):
        columns: list[float] = []
        for values in by_rep.T:
            var = float(np.var(values, ddof=1))
            columns += (float(np.mean(values)), var, math.sqrt(var / reps))
        row = EstimationRow(model, scenario.d, scenario.n, reps, *columns)
        return row, dict(zip(_ESTIMATION_METRICS, by_rep.T))

    return _run_study(
        "estimation", _estimation_rep, scenarios, reps, workers, keep_samples,
        summarize,
    )


def run_test_mc(
    d_values: list[int],
    n1: int = 10,
    n2: int = 20,
    reps: int = 4000,
    alpha: float = 0.05,
    seed: Seed = 0,
    workers: int = 1,
    keep_samples: bool = False,
) -> McSummary:
    """Size and power study of the three equality tests.

    Half the replications draw both samples from the same covariance
    (size), half from the alternative pair (power); the two arms use
    independent substreams keyed by (seed, d, replication, arm).
    Deterministic for a fixed seed regardless of `workers`.
    """
    reps = _check_count("reps", reps, 2)
    if reps % 2:
        raise ValueError(f"reps must be even and at least 2, got {reps}")
    alpha = _check_test_alpha(alpha)
    scenarios = [
        TwoSampleScenario("H0", d, n1, n2, seed) for d in _d_list(d_values)
    ]
    half = reps // 2
    # import gen_ar1's BLAS here, once, rather than in every forked worker:
    # it took 0.19-0.21 s and raised the peak RSS by 27 MB right after
    # `import nrpca.simulation`, and 0.04 s and 6.5 MB once `scipy.special`
    # was loaded (2-vCPU Xeon, Python 3.11, scipy 1.17.1; 5 fresh
    # interpreters each)
    import scipy.linalg.blas  # noqa: F401

    def summarize(scenario, by_rep):
        # axes: replication, arm (null, alternative), statistic/rejection, test
        arms = by_rep.reshape(half, 2, 2, len(_TESTS))
        columns: list[float] = []
        for arm in (0, 1):  # size, then power
            rates = [float(np.mean(arms[:, arm, 1, j])) for j in range(len(_TESTS))]
            columns += rates + [math.sqrt(p * (1.0 - p) / half) for p in rates]
        named = {
            f"{name}_{label}": arms[:, arm, 0, j]
            for j, name in enumerate(_TESTS)
            for arm, label in enumerate(("null", "alt"))
        }
        row = TestRow(scenario.d, scenario.n1, scenario.n2, alpha, reps, *columns)
        return row, named

    return _run_study(
        "tests", partial(_test_rep, alpha), scenarios, half, workers,
        keep_samples, summarize,
    )
