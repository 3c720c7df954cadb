"""Command-line front end.

Five subcommands: `estimate` (corrected first-component estimation from
a CSV matrix), `ci` (contribution-ratio interval from a matrix or from
summary numbers), `test` (two-sample equality tests), `simulate` (the
Monte Carlo harness), and `power` (asymptotic powers). Matrices are
rows-as-variables; `--transpose` covers the other orientation and
`--standardize` rescales each variable to unit sample variance first.

Output goes to stdout (or `--out`) as JSON, except `simulate`, which
defaults to one CSV row per dimension. All randomness flows from
`--seed` (default 1729). `simulate --workers` changes wall time but never
results; NRPCA_WORKERS applies to `simulate` only and sets the worker
count when the flag is absent (`--workers`, then NRPCA_WORKERS, then 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

from .dataio import load_matrix, standardize_rows
from .estimators import NrEstimate, nr_estimate
from .inference import (
    asymptotic_power,
    contribution_ci,
    jarque_bera,
    test_f1,
    test_f2,
    test_f3,
)
from .linalg import DataMatrix

__all__ = ["DEFAULT_SEED", "WORKERS_ENV", "main"]

DEFAULT_SEED = 1729
WORKERS_ENV = "NRPCA_WORKERS"


def _prepared_matrix(path: str, args: argparse.Namespace) -> DataMatrix:
    matrix = load_matrix(path)
    if args.transpose:
        matrix = DataMatrix(matrix.values.T.copy())
    if args.standardize:
        matrix = standardize_rows(matrix)
    return matrix


def _flat_items(record: dict, prefix: str = "") -> list[tuple[str, str]]:
    items: list[tuple[str, str]] = []
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flat_items(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            items.append((name, ";".join(repr(float(v)) for v in value)))
        else:
            items.append((name, "" if value is None else str(value)))
    return items


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    rows = payload["rows"] if isinstance(payload, dict) and "rows" in payload else None
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if rows is not None:
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([str(v) for v in row.values()])
    else:
        flat = _flat_items(payload)
        writer.writerow([k for k, _ in flat])
        writer.writerow([v for _, v in flat])
    return buffer.getvalue()


def _emit(payload, args: argparse.Namespace) -> None:
    text = _render(payload, args.fmt)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _estimate_record(est: NrEstimate) -> dict:
    jb = jarque_bera(est.scores_tilde) if est.n >= 8 else None
    return {
        "d": est.d,
        "n": est.n,
        "lambda_tilde_1": float(est.lambda_tilde[0]),
        "lambda_hat_1": float(est.lambda_hat[0]),
        "kappa_tilde": est.kappa_tilde,
        "trace_dual": est.trace_dual,
        "contribution_ratio": est.contribution_ratio,
        "h_tilde_norm_sq": est.h_tilde_norm_sq,
        "scores_tilde": est.scores_tilde.tolist(),
        "scores_hat": est.scores_hat.tolist(),
        "jb_statistic": None if jb is None else jb.statistic,
        "jb_p_value": None if jb is None else jb.p_value,
    }


def _cmd_estimate(args: argparse.Namespace) -> None:
    est = nr_estimate(_prepared_matrix(args.input, args))
    _emit(_estimate_record(est), args)


def _cmd_ci(args: argparse.Namespace) -> None:
    have_summary = None not in (args.lambda_tilde, args.kappa, args.n_override)
    if args.input is None and not have_summary:
        raise ValueError(
            "ci needs either --input or all of --lambda-tilde, --kappa and --n"
        )
    if args.input is not None and have_summary:
        raise ValueError("ci takes --input or summary numbers, not both")
    if args.input is not None:
        est = nr_estimate(_prepared_matrix(args.input, args))
        lt1 = float(est.lambda_tilde[0])
        kappa = est.kappa_tilde
        n = est.n
    else:
        lt1, kappa, n = args.lambda_tilde, args.kappa, args.n_override
    result = contribution_ci(lt1, kappa, n, args.alpha)
    record = {"lambda_tilde_1": lt1, "kappa_tilde": kappa, "n": n}
    record.update(asdict(result))
    _emit(record, args)


def _cmd_test(args: argparse.Namespace) -> None:
    if args.mode != "f1" and args.alternative != "two-sided":
        raise ValueError(
            f"mode {args.mode} supports only the two-sided alternative"
        )
    est1 = nr_estimate(_prepared_matrix(args.input, args))
    est2 = nr_estimate(_prepared_matrix(args.input2, args))
    if args.mode == "f1":
        outcome = test_f1(
            float(est1.lambda_tilde[0]),
            float(est2.lambda_tilde[0]),
            est1.n,
            est2.n,
            args.alpha,
            args.alternative,
        )
    elif args.mode == "f2":
        outcome = test_f2(est1, est2, args.alpha)
    else:
        outcome = test_f3(est1, est2, args.alpha)
    record = {"mode": args.mode}
    record.update(asdict(outcome))
    record["components"] = {
        k: v for k, v in record["components"].items() if v is not None
    }
    _emit(record, args)


def _cmd_simulate(args: argparse.Namespace) -> None:
    from .simulation import run_estimation_mc, run_test_mc  # loads scipy.signal

    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    reps = {} if args.reps is None else {"reps": args.reps}
    if args.study == "pc":
        summary = run_estimation_mc(
            args.model,
            args.d_values,
            n=args.n,
            seed=args.seed,
            workers=args.workers,
            **reps,
        )
    else:
        summary = run_test_mc(
            args.d_values,
            n1=args.n1,
            n2=args.n2,
            alpha=args.alpha,
            seed=args.seed,
            workers=args.workers,
            **reps,
        )
    payload = {
        "study": summary.study,
        "seed": summary.seed,
        "rows": summary.as_records(),
    }
    _emit(payload, args)


def _cmd_power(args: argparse.Namespace) -> None:
    record = {
        "nu1": args.nu1,
        "nu2": args.nu2,
        "lambda_ratio": args.ratio,
        "h": args.h,
        "gamma": args.gamma,
        "alpha": args.alpha,
    }
    for which in ("f1", "f2", "f3"):
        record[which] = asymptotic_power(
            args.nu1, args.nu2, args.ratio, args.h, args.gamma, args.alpha, which
        )
    _emit(record, args)


def _add_output_flags(parser: argparse.ArgumentParser, default_fmt: str) -> None:
    parser.add_argument(
        "--format", dest="fmt", choices=("json", "csv"), default=default_fmt
    )
    parser.add_argument("--out", default=None, help="write output to this path")


def _add_matrix_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--standardize",
        action="store_true",
        help="scale each variable (row) to unit sample variance",
    )
    parser.add_argument(
        "--transpose",
        action="store_true",
        help="input is samples x variables; transpose after loading",
    )


def _parse_d_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("dimension list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrpca",
        description="Noise-reduced first principal component estimation, "
        "confidence intervals, and covariance equality tests for wide data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the first component")
    p_est.add_argument("--input", required=True, help="CSV matrix path")
    _add_matrix_flags(p_est)
    _add_output_flags(p_est, "json")
    p_est.set_defaults(handler=_cmd_estimate)

    p_ci = sub.add_parser("ci", help="contribution-ratio confidence interval")
    p_ci.add_argument("--input", default=None, help="CSV matrix path")
    p_ci.add_argument("--lambda-tilde", dest="lambda_tilde", type=float)
    p_ci.add_argument("--kappa", type=float)
    p_ci.add_argument("--n", dest="n_override", type=int)
    p_ci.add_argument("--alpha", type=float, default=0.05)
    _add_matrix_flags(p_ci)
    _add_output_flags(p_ci, "json")
    p_ci.set_defaults(handler=_cmd_ci)

    p_test = sub.add_parser("test", help="two-sample covariance equality test")
    p_test.add_argument("--input", "--input1", dest="input", required=True)
    p_test.add_argument("--input2", required=True)
    p_test.add_argument("--mode", choices=("f1", "f2", "f3"), default="f1")
    p_test.add_argument(
        "--alternative", choices=("two-sided", "less"), default="two-sided"
    )
    p_test.add_argument("--alpha", type=float, default=0.05)
    _add_matrix_flags(p_test)
    _add_output_flags(p_test, "json")
    p_test.set_defaults(handler=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo harness")
    p_sim.add_argument("--study", choices=("pc", "tests"), default="pc")
    p_sim.add_argument("--model", choices=("a", "b"), default="a")
    p_sim.add_argument(
        "--d",
        dest="d_values",
        type=_parse_d_list,
        required=True,
        help="comma-separated dimensions, e.g. 8,64,512",
    )
    p_sim.add_argument("--n", type=int, default=10)
    p_sim.add_argument("--n1", type=int, default=10)
    p_sim.add_argument("--n2", type=int, default=20)
    p_sim.add_argument(
        "--R", "--reps", dest="reps", type=int, default=None,
        help="replications (default 2000 for pc, 4000 for tests)",
    )
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument(
        "--workers", type=int, default=os.environ.get(WORKERS_ENV, 1),
        help=f"process count; default ${WORKERS_ENV} or 1",
    )
    _add_output_flags(p_sim, "csv")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_pow = sub.add_parser("power", help="asymptotic power of the three tests")
    p_pow.add_argument("--nu1", type=int, required=True)
    p_pow.add_argument("--nu2", type=int, required=True)
    p_pow.add_argument("--ratio", type=float, required=True,
                       help="true first-eigenvalue ratio")
    p_pow.add_argument("--h", type=float, default=1.0)
    p_pow.add_argument("--gamma", type=float, default=1.0)
    p_pow.add_argument("--alpha", type=float, default=0.05)
    _add_output_flags(p_pow, "json")
    p_pow.set_defaults(handler=_cmd_power)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
