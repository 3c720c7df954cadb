"""Noise-reduced first principal component estimation for wide data.

The corrected eigenvalue subtracts the trailing-eigenvalue average from
each dual-covariance eigenvalue, removing the upward bias that dominates
when variables vastly outnumber samples. On top of it sit a confidence
interval for the first contribution ratio, three F-based equality tests
for two covariance spectra, and a deterministic Monte Carlo harness.

Importing the package loads numpy only. The Monte Carlo harness is the
`nrpca.simulation` module (`run_estimation_mc`, `run_test_mc`, ...),
which the package does not import; only its AR(1) sampler `gen_ar1`,
behind `run_test_mc`, loads scipy.linalg, for its BLAS `dtbsv` filter.
`inference` imports scipy.special (its chi-square and F functions) and
scipy.optimize (`optimal_ab`) on first call, so `import nrpca` and the
non-simulating CLI commands start without scipy.
`nrpca estimate` never loads it: the Jarque-Bera p-value of its scores
is the chi-square(2) upper tail, which is exp(-x/2) in closed form.

The public names are those in the `__all__` of `dataio`, `estimators`,
`inference` and `linalg`, star-imported below (each import also binds
its module), plus the three seed functions of `sampling`, whose
samplers stay off the top level.
"""

from .dataio import *
from .estimators import *
from .inference import *
from .linalg import *
from .sampling import derive_key, make_stream, splitmix64

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *dataio.__all__,
    *estimators.__all__,
    *inference.__all__,
    *linalg.__all__,
    "derive_key",
    "make_stream",
    "splitmix64",
]
