"""Noise-reduced first principal component estimation for wide data.

The corrected eigenvalue subtracts the trailing-eigenvalue average from
each dual-covariance eigenvalue, removing the upward bias that dominates
when variables vastly outnumber samples. On top of it sit a confidence
interval for the first contribution ratio, three F-based equality tests
for two covariance spectra, and a deterministic Monte Carlo harness.
"""

from .dataio import load_matrix, save_matrix, standardize_rows
from .estimators import (
    DegenerateSpectrumError,
    NrEstimate,
    contribution_ratio,
    kappa_tilde,
    nr_eigenvalues,
    nr_estimate,
    pc_direction,
    pc_scores,
    score_mse,
)
from .inference import (
    CiResult,
    JarqueBera,
    OrthogonalDirectionsError,
    QuantilePair,
    TestComponents,
    TestOutcome,
    asymptotic_power,
    contribution_ci,
    direction_h,
    jarque_bera,
    optimal_ab,
    test_f1,
    test_f2,
    test_f3,
)
from .linalg import (
    DataMatrix,
    SpectralDecomposition,
    SymMatrix,
    center_columns,
    dual_covariance,
    sym_eigen,
)
from .sampling import derive_key, make_stream, splitmix64
from .simulation import (
    EstimationRow,
    McSummary,
    SpikeScenario,
    TestRow,
    TwoSampleScenario,
    gen_ar1,
    gen_spiked,
    gen_two_sample,
    run_estimation_mc,
    run_test_mc,
    spike_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "load_matrix",
    "save_matrix",
    "standardize_rows",
    "DegenerateSpectrumError",
    "NrEstimate",
    "contribution_ratio",
    "kappa_tilde",
    "nr_eigenvalues",
    "nr_estimate",
    "pc_direction",
    "pc_scores",
    "score_mse",
    "CiResult",
    "JarqueBera",
    "OrthogonalDirectionsError",
    "QuantilePair",
    "TestComponents",
    "TestOutcome",
    "asymptotic_power",
    "contribution_ci",
    "direction_h",
    "jarque_bera",
    "optimal_ab",
    "test_f1",
    "test_f2",
    "test_f3",
    "DataMatrix",
    "SpectralDecomposition",
    "SymMatrix",
    "center_columns",
    "dual_covariance",
    "sym_eigen",
    "derive_key",
    "make_stream",
    "splitmix64",
    "EstimationRow",
    "McSummary",
    "SpikeScenario",
    "TestRow",
    "TwoSampleScenario",
    "gen_ar1",
    "gen_spiked",
    "gen_two_sample",
    "run_estimation_mc",
    "run_test_mc",
    "spike_eigenvalues",
]
