"""Command-line front end.

Commands: generate, analyze, intertwine, commutant, stone, suite.
Reports go to standard output as JSON, diagnostics to standard error.
Exit codes: 0 success/consistent, 1 condition-or-consistency failure,
2 input error, 3 internal verification failure.

Complex scalars on the command line are "re,im" pairs (a bare real is
also accepted); lists of scalars are semicolon-separated.  Every --tol,
and the --epsilon of stone, must be finite and positive, and stone's --a
and --b finite; any other value exits 2.
"""

import argparse
import json
import sys

import numpy as np

from .commutation import OperatorPair, classify_pair, solve_lambda_commutant
from .errors import (
    ConditionFailed,
    FactorCommError,
    InvalidParameter,
    VerificationFailed,
)
from .intertwiner import construct_intertwiner
from .linalg import matrix_from_json, matrix_to_json
from .realizations import KINDS, RealizationSpec, build_realization
from .resolvent import (
    GAUSS_LEGENDRE,
    TRAPEZOID,
    StoneQuadratureSpec,
    stone_projection,
)
from .suite import SuiteConfig, outcome_to_json_text, run_suite


def parse_complex(text: str) -> complex:
    """Parse 're,im' (or a bare real) into a complex scalar."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise InvalidParameter(f"cannot parse complex scalar from {text!r}; use 're,im'")


def parse_complex_list(text: str) -> list[complex]:
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise InvalidParameter("empty scalar list")
    return [parse_complex(c) for c in chunks]


def _emit(obj: dict) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:  # an inf or nan in a report, which JSON cannot carry
        raise OverflowError(str(exc)) from exc
    print(text)


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax or UTF-8, or an integer over the digit limit
        raise InvalidParameter(f"{path} is not valid JSON: {exc}") from exc


def _load_pair(path: str) -> OperatorPair:
    return OperatorPair.from_json(_load_json_file(path))


def _load_matrix(path: str):
    return matrix_from_json(_load_json_file(path))


def _cmd_generate(args) -> int:
    params: dict = {}
    for key, attr, parse in (
        ("n", "n", int), ("lambda", "lam", parse_complex), ("x", "x", parse_complex), ("y", "y", parse_complex),
        ("z", "z", parse_complex), ("betas", "betas", parse_complex_list), ("pivot", "pivot", int),
        ("q", "q", parse_complex), ("eps", "eps", int),
    ):
        if getattr(args, attr) is not None:
            params[key] = parse(getattr(args, attr))
    pair = build_realization(RealizationSpec(kind=args.kind, params=params))
    text = json.dumps(pair.to_json(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_analyze(args) -> int:
    pair = _load_pair(args.pair)
    report = classify_pair(pair, tol=args.tol)
    _emit(report.to_json())
    return 0 if report.consistent else 1


def _cmd_intertwine(args) -> int:
    pair = _load_pair(args.pair)
    result = construct_intertwiner(pair, tol=args.tol)
    _emit(result.to_json())
    return 0


def _cmd_commutant(args) -> int:
    M = _load_matrix(args.matrix)
    lam = parse_complex(args.lam)
    basis = solve_lambda_commutant(M, lam, tol=args.tol)
    _emit(
        {
            "lambda": [lam.real, lam.imag],
            "dimension": len(basis),
            "basis": [matrix_to_json(B) for B in basis],
        }
    )
    return 0


def _cmd_stone(args) -> int:
    M = _load_matrix(args.matrix)
    spec = StoneQuadratureSpec(
        interval=(args.a, args.b),
        epsilon=args.epsilon,
        nodes=args.nodes,
        rule=args.rule,
    )
    result = stone_projection(M, spec, tol=args.tol)
    _emit(result.to_json())
    return 0


def _cmd_suite(args) -> int:
    try:
        cfg = SuiteConfig(seed=args.seed, trials=args.trials, tol=args.tol, max_dim=args.max_dim)
    except ValueError as exc:
        raise InvalidParameter(str(exc)) from exc
    outcome = run_suite(cfg)
    print(outcome_to_json_text(outcome))
    return 0 if outcome.failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcomm",
        description="Construct, detect, classify and verify commutation up to a factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a named realization and write the pair JSON")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--n", type=int, help="dimension parameter (clock-shift, cyclic-shift-diag, uq-sl2)")
    gen.add_argument("--lambda", dest="lam", help="factor as 're,im'")
    gen.add_argument("--x", help="jordan parameter x as 're,im'")
    gen.add_argument("--y", help="jordan parameter y as 're,im'")
    gen.add_argument("--z", help="jordan parameter z as 're,im'")
    gen.add_argument("--betas", help="diagonal entries, semicolon-separated 're,im' values")
    gen.add_argument("--pivot", type=int, help="pivot index for nilpotent-diag")
    gen.add_argument("--q", help="deformation parameter as 're,im'")
    gen.add_argument("--eps", type=int, choices=(1, -1), help="sign for uq-sl2")
    gen.add_argument("--out", help="output path (default: standard output)")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="classify a pair file against the factor rules")
    ana.add_argument("pair", help="pair JSON path")
    ana.add_argument("--tol", type=float, default=1e-9)
    ana.set_defaults(func=_cmd_analyze)

    intw = sub.add_parser("intertwine", help="construct the unitary U with AB = U BA")
    intw.add_argument("pair", help="pair JSON path (Hermitian A, B)")
    intw.add_argument("--tol", type=float, default=1e-9)
    intw.set_defaults(func=_cmd_intertwine)

    comm = sub.add_parser("commutant", help="basis of solutions B of AB = lambda BA for normal A")
    comm.add_argument("matrix", help="matrix JSON path")
    comm.add_argument("--lambda", dest="lam", required=True, help="factor as 're,im'")
    comm.add_argument("--tol", type=float, default=1e-9)
    comm.set_defaults(func=_cmd_commutant)

    stone = sub.add_parser("stone", help="smoothed-resolvent spectral projection onto [a, b]")
    stone.add_argument("matrix", help="Hermitian matrix JSON path")
    stone.add_argument("--a", type=float, required=True)
    stone.add_argument("--b", type=float, required=True)
    stone.add_argument("--epsilon", type=float, default=1e-3)
    stone.add_argument("--nodes", type=int, default=2000)
    stone.add_argument("--rule", choices=(TRAPEZOID, GAUSS_LEGENDRE), default=TRAPEZOID)
    stone.add_argument("--tol", type=float, default=1e-9)
    stone.set_defaults(func=_cmd_stone)

    suite = sub.add_parser("suite", help="run the full property suite with seeded trials")
    suite.add_argument("--seed", type=int, default=42)
    suite.add_argument("--trials", type=int, default=100)
    suite.add_argument("--tol", type=float, default=1e-9)
    suite.add_argument("--max-dim", dest="max_dim", type=int, default=8)
    suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 < getattr(args, "tol", 1.0) < np.inf:  # also refuses nan
            raise InvalidParameter(f"--tol must be finite and positive, got {args.tol}")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (FloatingPointError, OverflowError) as exc:  # numpy under the errstate, or Python float arithmetic
        print(f"error: out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except ConditionFailed as exc:
        print(f"condition failed: {exc}", file=sys.stderr)
        return 1
    except VerificationFailed as exc:
        print(f"internal verification failed: {exc}", file=sys.stderr)
        return 3
    except FactorCommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
