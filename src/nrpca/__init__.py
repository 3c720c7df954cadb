"""Noise-reduced first principal component estimation for wide data.

The corrected eigenvalue subtracts the trailing-eigenvalue average from
each dual-covariance eigenvalue, removing the upward bias that dominates
when variables vastly outnumber samples. On top of it sit a confidence
interval for the first contribution ratio, three F-based equality tests
for two covariance spectra, and a deterministic Monte Carlo harness.

Importing the package loads numpy only. The Monte Carlo harness is the
`nrpca.simulation` module (`run_estimation_mc`, `run_test_mc`, ...): it
loads scipy.signal, so the package does not import it. `inference`
imports scipy.special (its chi-square and F functions) and
scipy.optimize (`optimal_ab`) on first call, so `import nrpca` and the
non-simulating CLI commands start without scipy.
`nrpca estimate` never loads it: the Jarque-Bera p-value of its scores
is the chi-square(2) upper tail, which is exp(-x/2) in closed form.
"""

from .dataio import load_matrix, save_matrix, standardize_rows
from .estimators import DegenerateSpectrumError, NrEstimate, nr_estimate
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
    SymMatrix,
    center_columns,
    dual_covariance,
    sym_eigen,
)
from .sampling import derive_key, make_stream, splitmix64

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "load_matrix",
    "save_matrix",
    "standardize_rows",
    "DegenerateSpectrumError",
    "NrEstimate",
    "nr_estimate",
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
    "SymMatrix",
    "center_columns",
    "dual_covariance",
    "sym_eigen",
    "derive_key",
    "make_stream",
    "splitmix64",
]

