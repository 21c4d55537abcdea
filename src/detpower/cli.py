"""Command-line interface.

Every command prints a JSON run report to stdout (curve commands can emit CSV
with --csv).  Exit codes: 0 ok, 1 usage, 2 parse failure, 3 invalid input
object, 4 resource cap exceeded.  A command returns (results, diagnostics);
``main`` alone parses, writes the report and picks the exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import closed_forms
from .adaptive import evaluate_strategy, optimal_adaptive
from .core import DensityMatrix, Povm, eig_hermitian, joint_eigenbasis, validate_povm
from .errors import DomainError, ParseError, ResourceError, StructuralError
from .finite import (
    ProductInput,
    _check_partitions,
    best_product_pair,
    brute_force_grouping,
    extreme_pair,
    iid_ml_log_error,
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
from .channel import candidate_probs, chernoff_exponent, induced_distribution
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


def _number(value: float) -> float | str:
    """value, or "inf" / "-inf": strict JSON has no infinities."""
    return str(value) if math.isinf(value) else value


def _scalar(value: float, units: str, bits: bool) -> dict:
    if bits and units == "nats":
        value, units = value / LN2, "bits"
    return {"value": _number(value), "units": units}


def _load_valid_povm(path: str) -> Povm:
    povm = povm_from_json(load_json_file(path))
    rep = validate_povm(povm)
    if not rep.valid:
        raise DomainError("; ".join(rep.problems))
    return povm


def _basis_candidates(povm: Povm) -> list:
    """The default candidate state set: the joint eigenbasis of a commuting
    detector (E_0's eigenbasis when that one diagonalizes every element),
    otherwise the eigenbasis of E_0."""
    joint = joint_eigenbasis(povm)
    evecs = joint[0] if joint is not None else eig_hermitian(povm.elements[0])[1]
    return [DensityMatrix.pure(evecs[:, i]) for i in range(povm.dim)]


def cmd_validate(args) -> tuple:
    rep = validate_povm(povm_from_json(load_json_file(args.file)))
    results = {
        "valid": {"value": rep.valid, "units": "bool"},
        "completeness_residual": {"value": rep.completeness_residual, "units": "abs"},
        "max_herm_deviation": {"value": max(rep.herm_deviations), "units": "abs"},
        "min_eigenvalue": {"value": min(rep.min_eigenvalues), "units": "abs"},
    }
    diagnostics = {"problems": rep.problems, "warnings": rep.warnings}
    return results, diagnostics, EXIT_OK if rep.valid else EXIT_INVALID


def cmd_exponent(args) -> tuple | int:
    if args.kind == "hoeffding" and args.rate is None:
        print("error: --rate is required for the hoeffding exponent", file=sys.stderr)
        return EXIT_USAGE
    povm = _load_valid_povm(args.file)
    opts = SearchOptions(restarts=args.restarts, seed=args.seed, mixed=args.mixed)
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
        "value_kind": "exact" if rep.exact else "achievable lower bound",
    }
    if rep.optimizer is not None:
        diagnostics["optimal_rho"] = matrix_to_json(rep.optimizer.rho.mat)
        diagnostics["optimal_sigma"] = matrix_to_json(rep.optimizer.sigma.mat)
    return results, diagnostics


def _error_results(log_err: float, n: int) -> dict:
    """p_err and rate = -(1/n) ln p_err, from the log as in the sweep, so that
    the rate survives p_err underflowing ("inf" for disjoint supports)."""
    rate = _scalar(-log_err / n, "nats", False)
    return {"p_err": {"value": math.exp(log_err), "units": "probability"}, "rate": rate}


def cmd_finite(args) -> tuple | int:
    povm = _load_valid_povm(args.file)
    n = args.n
    if args.mode == "sweep":  # sweep_x builds its own pair
        rows = sweep_x(povm, n, points=args.points)
        if args.csv:
            sys.stdout.write("x,p_err,rate\n")
            for x, p_err, rate in rows:
                sys.stdout.write(f"{x:.12g},{p_err:.12g},{rate:.12g}\n")
            return EXIT_OK
        curve = [[x, p_err, _number(rate)] for x, p_err, rate in rows]
        return {"curve": {"value": curve, "units": "x, probability, nats"}}, {}
    pair = extreme_pair(povm)
    if args.mode == "pattern":
        log_err, (pat0, pat1) = best_product_pair(povm, n, pair)
        results = _error_results(log_err, n)
        patterns = ["".join(map(str, pat0)), "".join(map(str, pat1))]
        results["pattern"] = {"value": patterns, "units": "candidate indices"}
        return results, {}
    if args.mode == "ml":
        log_err, log_size = iid_ml_log_error(*candidate_probs(povm, pair), n)
    else:  # brute
        _check_partitions(povm.n_outcomes, n)  # brute_force_grouping's cap, before any sequence is built
        dist0, dist1 = (sequence_distribution(povm, ProductInput.iid(rho, n)) for rho in pair)
        p_err, mask = brute_force_grouping(dist0, dist1)
        log_err = math.log(p_err) if p_err > 0.0 else -math.inf
        size = int(mask.accept.sum())
        log_size = math.log(size) if size else -math.inf
    # log of the number of sequences that go to H0 ("-inf" for none)
    return _error_results(log_err, n), {"log_grouping_size": _number(log_size)}


def cmd_adaptive(args) -> tuple:
    povm = _load_valid_povm(args.file)
    if args.strategy is not None:
        strat = strategy_from_json(load_json_file(args.strategy))
        p_err = evaluate_strategy(povm, strat)
        decision = "explicit-grouping" if strat.grouping is not None else "ml"
        diagnostics = {"mode": "evaluate", "decision": decision}
    else:
        if args.candidates is not None:
            cands = candidates_from_json(load_json_file(args.candidates))
        else:
            cands = _basis_candidates(povm)
        search = optimal_adaptive(povm, cands, args.n)
        p_err = search.p_err
        diagnostics = {"mode": "search", "hull_vertices": search.hull_vertices}
    return {"p_err": {"value": p_err, "units": "probability"}}, diagnostics


def cmd_benchmarks(args) -> tuple:
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
    return results, {}


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a usage error; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="detpower",
        description="Discrimination power of a quantum detector (POVM).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a POVM file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("exponent", help="asymptotic error exponents")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=("chernoff", "stein", "hoeffding"), default="chernoff")
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--bits", action="store_true")
    sp.add_argument("--restarts", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mixed", action="store_true")
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


_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    DomainError: EXIT_INVALID,
    StructuralError: EXIT_INVALID,
    ResourceError: EXIT_RESOURCE,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    if isinstance(out, int):  # the command wrote its own output
        return out
    results, diagnostics, *code = out
    report = {
        "command": args.command,
        "inputs_digest": _digest(getattr(args, "file", None)),
        "results": results,
        "diagnostics": diagnostics,
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return code[0] if code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
