"""The names the benchmark in `bench/` reaches into `nrpca` by.

The traced benchmark run wraps functions in the namespaces that call
them (`tracing.TRACE_SITES`), reports a per-layer metric only when its
span fired, and times the linalg layer through `bench/probe.py`. A
rename or an inlined call in `src/` breaks that run without failing any
other test here, so this test runs the benchmark's own layer probe under
its tracer on a small CSV and requires every traced span, then makes
probe.py's five linalg calls. `bench/test_bench.py` stays the full check.
"""

from pathlib import Path

import numpy as np

from nrpca import inference

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_layer_probe_fires_every_traced_span(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing
    import workloads

    rng = np.random.default_rng(12)
    csv = tmp_path / "probe.csv"
    workloads.write_expression_csv(csv, workloads.make_expression_matrix(rng, 200, 12))
    # F bounds that earlier tests cached would not reach f_upper_point
    inference._two_sided_bounds.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op_id = layers.PROBE_OP
        layers.layer_probe(tmp_path, csv, rng)
    finally:
        tracer.remove()
    fired = {tracer.names[i] for i in set(tracer.arrays()["name"].tolist())}
    missing = sorted(set(tracing.TRACE_SITES) - fired)
    assert missing == [], f"missing spans: {missing}"


def test_probe_linalg_calls_resolve():
    from nrpca import linalg

    rng = np.random.default_rng(13)
    x = linalg.DataMatrix(rng.standard_normal((50, 10)))
    xc = linalg.center_columns(x)
    linalg.dual_covariance(xc)
    z = rng.standard_normal((200, 10))
    values, vectors = linalg.sym_eigen(linalg.SymMatrix(z.T @ z / 9))
    assert values.shape == (10,) and vectors.shape == (10, 10)
