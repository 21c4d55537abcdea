"""Command-line interface.

Every command prints a JSON run report to stdout (curve commands can emit CSV
with --csv).  Exit codes: 0 ok, 1 usage, 2 parse failure, 3 invalid input
object, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import closed_forms
from .adaptive import evaluate_strategy, optimal_adaptive
from .core import DensityMatrix, Povm, eig_hermitian, validate_povm
from .errors import DomainError, ParseError, ResourceError, StructuralError
from .finite import (
    ProductInput,
    best_product_pair,
    brute_force_grouping,
    ml_error_probability,
    sequence_distribution,
    sweep_x,
)
from .io import (
    candidates_from_json,
    load_json_file,
    matrix_to_json,
    povm_from_json,
    strategy_from_json,
)
from .channel import chernoff_exponent, induced_distribution
from .optimize import SearchOptions, zeta_chernoff, zeta_hoeffding, zeta_stein

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_RESOURCE = 4

LN2 = math.log(2.0)


def _digest(path: str | None) -> str:
    if path is None:
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _scalar(value: float, units: str, bits: bool):
    if units == "nats" and bits and value is not None and math.isfinite(value):
        return {"value": value / LN2, "units": "bits"}
    if value is not None and math.isinf(value):
        return {"value": "inf", "units": "bits" if (bits and units == "nats") else units}
    return {"value": value, "units": units}


def _report(command: str, digest: str, results: dict, diagnostics: dict) -> dict:
    return {
        "command": command,
        "inputs_digest": digest,
        "results": results,
        "diagnostics": diagnostics,
    }


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_valid_povm(path: str) -> Povm:
    povm = _povm_from_path(path)
    rep = validate_povm(povm)
    if not rep.valid:
        raise DomainError("; ".join(rep.problems))
    return povm


def _povm_from_path(path: str) -> Povm:
    return povm_from_json(load_json_file(path))


def _search_options(args) -> SearchOptions:
    return SearchOptions(restarts=args.restarts, seed=args.seed, mixed=args.mixed)


def _basis_candidates(povm: Povm) -> list:
    """Eigenbasis of the first element, as the default candidate state set."""
    _, evecs = eig_hermitian(povm.elements[0])
    return [DensityMatrix.pure(evecs[:, i]) for i in range(povm.dim)]


def cmd_validate(args) -> int:
    povm = _povm_from_path(args.file)
    rep = validate_povm(povm)
    report = _report(
        "validate",
        _digest(args.file),
        {
            "valid": {"value": rep.valid, "units": "bool"},
            "completeness_residual": {"value": rep.completeness_residual, "units": "abs"},
            "max_herm_deviation": {"value": max(rep.herm_deviations), "units": "abs"},
            "min_eigenvalue": {"value": min(rep.min_eigenvalues), "units": "abs"},
        },
        {"problems": rep.problems, "warnings": rep.warnings},
    )
    _emit(report)
    return EXIT_OK if rep.valid else EXIT_INVALID


def cmd_exponent(args) -> int:
    if args.kind == "hoeffding" and args.rate is None:
        print("error: --rate is required for the hoeffding exponent", file=sys.stderr)
        return EXIT_USAGE
    povm = _load_valid_povm(args.file)
    opts = _search_options(args)
    if args.kind == "chernoff":
        rep = zeta_chernoff(povm, opts)
    elif args.kind == "stein":
        rep = zeta_stein(povm, opts)
    else:
        rep = zeta_hoeffding(povm, args.rate, opts)
    results = {f"zeta_{args.kind}": _scalar(rep.value, "nats", args.bits)}
    diagnostics = {
        "restarts_used": rep.restarts_used,
        "seed": args.seed,
        "s_star": rep.s_star,
        "value_kind": "achievable lower bound",
    }
    if rep.optimizer is not None:
        diagnostics["optimal_rho"] = matrix_to_json(rep.optimizer.rho.mat)
        diagnostics["optimal_sigma"] = matrix_to_json(rep.optimizer.sigma.mat)
    _emit(_report("exponent", _digest(args.file), results, diagnostics))
    return EXIT_OK


def cmd_finite(args) -> int:
    povm = _load_valid_povm(args.file)
    n = args.n
    diagnostics: dict = {}
    results: dict = {}
    basis = _basis_candidates(povm)
    if args.mode in ("ml", "brute"):
        dist0 = sequence_distribution(povm, ProductInput.iid(basis[0], n))
        dist1 = sequence_distribution(povm, ProductInput.iid(basis[-1], n))
        if args.mode == "ml":
            p_err, mask = ml_error_probability(dist0, dist1)
        else:
            p_err, mask = brute_force_grouping(dist0, dist1)
        results["p_err"] = {"value": p_err, "units": "probability"}
        diagnostics["grouping_size"] = int(mask.accept.sum())
    elif args.mode == "pattern":
        p_err, (pat0, pat1) = best_product_pair(povm, n, basis[:2])
        results["p_err"] = {"value": p_err, "units": "probability"}
        results["pattern"] = {
            "value": ["".join(map(str, pat0)), "".join(map(str, pat1))],
            "units": "candidate indices",
        }
    else:  # sweep
        rows = sweep_x(povm, n, points=args.points)
        if args.csv:
            sys.stdout.write("x,p_err,rate\n")
            for x, p_err, rate in rows:
                sys.stdout.write(f"{x:.12g},{p_err:.12g},{rate:.12g}\n")
            return EXIT_OK
        results["curve"] = {
            "value": [[x, p_err, rate if math.isfinite(rate) else "inf"] for x, p_err, rate in rows],
            "units": "x, probability, nats",
        }
    _emit(_report("finite", _digest(args.file), results, diagnostics))
    return EXIT_OK


def cmd_adaptive(args) -> int:
    povm = _load_valid_povm(args.file)
    diagnostics: dict = {}
    if args.strategy is not None:
        strat = strategy_from_json(load_json_file(args.strategy))
        p_err = evaluate_strategy(povm, strat)
        diagnostics["mode"] = "evaluate"
        diagnostics["decision"] = "explicit-grouping" if strat.grouping is not None else "ml"
    else:
        if args.candidates is not None:
            cands = candidates_from_json(load_json_file(args.candidates))
        else:
            cands = _basis_candidates(povm)
        p_err, strat = optimal_adaptive(povm, cands, args.n)
        diagnostics["mode"] = "search"
        diagnostics["tree_nodes"] = len(strat.choices)
    results = {"p_err": {"value": p_err, "units": "probability"}}
    _emit(_report("adaptive", _digest(args.file), results, diagnostics))
    return EXIT_OK


def cmd_benchmarks(args) -> int:
    bits = args.bits
    results = {
        "covariant_zeta": _scalar(math.log(4.0 / math.pi), "nats", bits),
        "covariant_overlap": {"value": math.pi / 4.0, "units": "overlap"},
        "equivalent_sg_purity": {
            "value": closed_forms.equivalent_sg_purity(math.log(4.0 / math.pi)),
            "units": "purity",
        },
        "commuting_gamma_04_02": {
            "value": closed_forms.commuting_gamma(0.4, 0.2),
            "units": "type",
        },
        "commuting_zeta_04_02": _scalar(closed_forms.commuting_zeta(0.4, 0.2), "nats", bits),
    }
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        results[f"sg_zeta_r_{r:.1f}"] = _scalar(closed_forms.noisy_sg_zeta(r), "nats", bits)
    results["sg_zeta_r_0.62"] = _scalar(closed_forms.noisy_sg_zeta(0.62), "nats", bits)
    # mixing spot check on two diagonal detectors
    e = Povm((np.diag([0.4, 0.2]).astype(complex), np.diag([0.6, 0.8]).astype(complex)))
    g = Povm((np.diag([0.3, 0.1]).astype(complex), np.diag([0.7, 0.9]).astype(complex)))
    z_e = closed_forms.commuting_zeta(0.4, 0.2)
    z_g = closed_forms.commuting_zeta(0.3, 0.1)
    bounds = closed_forms.mixing_bounds(
        math.exp(-z_e), math.exp(-z_g), z_e, z_g, 0.5
    )
    results["mixing_lower_p05"] = _scalar(bounds.lower, "nats", bits)
    results["mixing_upper_p05"] = _scalar(bounds.upper, "nats", bits)
    mixed = closed_forms.mixed_povm(e, g, 0.5)
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    rho1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    mixed_zeta = chernoff_exponent(
        induced_distribution(mixed, rho0), induced_distribution(mixed, rho1)
    ).value
    results["mixing_mixed_zeta_p05"] = _scalar(mixed_zeta, "nats", bits)
    _emit(_report("benchmarks", "-", results, {}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detpower",
        description="Discrimination power of a quantum detector (POVM).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(sp):
        sp.add_argument("--restarts", type=int, default=64)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--mixed", action="store_true")

    sp = sub.add_parser("validate", help="validate a POVM file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("exponent", help="asymptotic error exponents")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=("chernoff", "stein", "hoeffding"), default="chernoff")
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--bits", action="store_true")
    add_search_flags(sp)
    sp.set_defaults(func=cmd_exponent)

    sp = sub.add_parser("finite", help="exact finite-n error probabilities")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=("ml", "brute", "sweep", "pattern"), default="ml")
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--points", type=int, default=None, help="subsample the sweep curve")
    sp.set_defaults(func=cmd_finite)

    sp = sub.add_parser("adaptive", help="adaptive feedback protocols")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--candidates", default=None)
    sp.add_argument("--strategy", default=None)
    sp.set_defaults(func=cmd_adaptive)

    sp = sub.add_parser("benchmarks", help="closed-form benchmark table")
    sp.add_argument("--bits", action="store_true")
    sp.set_defaults(func=cmd_benchmarks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
