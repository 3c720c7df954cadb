"""Command-line front end.

Five subcommands: `estimate` (corrected first-component estimation from
a CSV matrix), `ci` (contribution-ratio interval from a matrix or from
summary numbers), `test` (two-sample equality tests), `simulate` (the
Monte Carlo harness), and `power` (asymptotic powers). Matrices are
rows-as-variables; `--transpose` covers the other orientation and
`--standardize` rescales each variable to unit sample variance first.

Each handler checks its arguments before it reads a file and returns one
record; `main` renders it as JSON (CSV for `simulate`: one row per
dimension) and writes it to stdout or `--out`. All randomness flows from
`--seed` (default 1729). `simulate --workers` (default 1) changes wall
time but never results; the library checks its value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from .dataio import load_matrix, standardize_rows
from .estimators import nr_estimate
from .inference import (
    _check_ci_alpha,
    _check_test_alpha,
    asymptotic_power,
    contribution_ci,
    jarque_bera,
    test_f1,
    test_f2,
    test_f3,
)
from .linalg import DataMatrix

__all__ = ["DEFAULT_SEED", "main"]

DEFAULT_SEED = 1729


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


def _render(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2, allow_nan=False) + "\n"
    # a table's rows, or one record as a one-row table
    rows = [dict(_flat_items(row)) for row in record.get("rows", [record])]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, rows[0], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _cmd_estimate(args: argparse.Namespace) -> dict:
    est = nr_estimate(_prepared_matrix(args.input, args))
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


def _cmd_ci(args: argparse.Namespace) -> dict:
    summary = (args.lambda_tilde, args.kappa, args.n_override)
    if args.input is None:
        if None in summary:
            raise ValueError(
                "ci needs either --input or all of --lambda-tilde, --kappa and --n"
            )
        for flag in ("standardize", "transpose"):
            if getattr(args, flag):
                raise ValueError(f"--{flag} applies to --input, not to summary numbers")
        lt1, kappa, n = summary
    elif summary != (None, None, None):
        raise ValueError("ci takes --input or summary numbers, not both")
    else:
        _check_ci_alpha(args.alpha)
        est = nr_estimate(_prepared_matrix(args.input, args))
        lt1 = float(est.lambda_tilde[0])
        kappa = est.kappa_tilde
        n = est.n
    result = contribution_ci(lt1, kappa, n, args.alpha)
    return {"lambda_tilde_1": lt1, "kappa_tilde": kappa, "n": n, **asdict(result)}


def _cmd_test(args: argparse.Namespace) -> dict:
    if args.mode != "f1" and args.alternative != "two-sided":
        raise ValueError(
            f"mode {args.mode} supports only the two-sided alternative"
        )
    _check_test_alpha(args.alpha)
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
    record = {"mode": args.mode, **asdict(outcome)}
    record["components"] = {
        k: v for k, v in record["components"].items() if v is not None
    }
    return record


# each study's own flags: the other study refuses them
_STUDY_FLAGS = {"pc": ("model", "n"), "tests": ("n1", "n2", "alpha")}


def _cmd_simulate(args: argparse.Namespace) -> dict:
    other = "tests" if args.study == "pc" else "pc"
    for flag in _STUDY_FLAGS[other]:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} belongs to --study {other}, not {args.study}")
    # a flag not given takes the library's default, and --model is "a"
    flags = (*_STUDY_FLAGS[args.study], "reps", "seed", "workers")
    given = {flag: getattr(args, flag) for flag in flags}
    options = {flag: value for flag, value in given.items() if value is not None}
    # the tests study alone loads scipy.linalg, for its AR(1) filter
    from .simulation import run_estimation_mc, run_test_mc

    if args.study == "pc":
        summary = run_estimation_mc(options.pop("model", "a"), args.d_values, **options)
    else:
        summary = run_test_mc(args.d_values, **options)
    return {"study": summary.study, "seed": summary.seed, "rows": summary.as_records()}


def _cmd_power(args: argparse.Namespace) -> dict:
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
    return record


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
    p_sim.add_argument("--model", choices=("a", "b"), help="pc only (default a)")
    p_sim.add_argument(
        "--d",
        dest="d_values",
        type=_parse_d_list,
        required=True,
        help="comma-separated dimensions, e.g. 8,64,512",
    )
    p_sim.add_argument("--n", type=int, help="pc only (default 10)")
    p_sim.add_argument("--n1", type=int, help="tests only (default 10)")
    p_sim.add_argument("--n2", type=int, help="tests only (default 20)")
    p_sim.add_argument(
        "--R", "--reps", dest="reps", type=int, default=None,
        help="replications (default 2000 for pc, 4000 for tests)",
    )
    p_sim.add_argument("--alpha", type=float, help="tests only (default 0.05)")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--workers", type=int, default=1, help="process count")
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
        text = _render(args.handler(args), args.fmt)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
