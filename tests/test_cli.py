import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from detpower.channel import candidate_probs, chernoff_exponent
import detpower.cli
from detpower.cli import _basis_candidates, _load_valid_povm, build_parser, main
from detpower.finite import TYPES_CAP, extreme_pair, iid_ml_log_error
from detpower.io import loads_strict, matrix_to_json, povm_to_json
from detpower import Povm, empirical_rate
from conftest import assert_log_count, random_povm, random_unitary
import oracles

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "data")
POVM_FILE = os.path.join(DATA, "povm_commuting.json")
SG_FILE = os.path.join(DATA, "povm_noisy_sg_062.json")
STRATEGY_FILE = os.path.join(DATA, "strategy_feedback.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    """(exit code, report) with the report parsed as strict JSON: a bare NaN
    or Infinity fails the test."""
    code, out = run(capsys, *argv)
    return code, loads_strict(out)


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["finite", POVM_FILE, "--n", "abc"], ["finite", POVM_FILE], ["frobnicate"]],
        ids=["bad-int", "missing-n", "unknown-command"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2 is kept for input files that fail to parse
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: detpower" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: detpower" in capsys.readouterr().out

    def test_parser_built_once(self):
        assert build_parser() is build_parser()


class TestValidate:
    def test_valid_file(self, capsys):
        code, rep = run_json(capsys, "validate", POVM_FILE)
        assert code == 0
        assert rep["command"] == "validate"
        assert rep["results"]["valid"]["value"] is True
        assert len(rep["inputs_digest"]) == 64

    def test_incomplete_povm_exit_3(self, capsys, tmp_path):
        bad = Povm((np.diag([0.4, 0.2]).astype(complex), np.diag([0.5, 0.8]).astype(complex)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(povm_to_json(bad)))
        code, rep = run_json(capsys, "validate", str(path))
        assert code == 3
        assert rep["results"]["valid"]["value"] is False

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_nan_rejected_exit_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dim": 2, "elements": [[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]]}'
        )
        code, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _ = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2


class TestExponent:
    def test_chernoff(self, capsys):
        code, rep = run_json(
            capsys, "exponent", POVM_FILE, "--kind", "chernoff", "--restarts", "4"
        )
        assert code == 0
        assert abs(rep["results"]["zeta_chernoff"]["value"] - 0.024666131263401) < 1e-9
        assert rep["results"]["zeta_chernoff"]["units"] == "nats"
        assert "optimal_rho" in rep["diagnostics"]
        assert 0.0 < rep["diagnostics"]["s_star"] < 1.0

    def test_stein(self, capsys):
        code, rep = run_json(
            capsys, "exponent", POVM_FILE, "--kind", "stein", "--restarts", "4"
        )
        assert code == 0
        assert abs(rep["results"]["zeta_stein"]["value"] - 0.10464962875290948) < 1e-9

    def test_bits_conversion(self, capsys):
        _, nats = run_json(capsys, "exponent", SG_FILE, "--restarts", "2")
        _, bits = run_json(capsys, "exponent", SG_FILE, "--restarts", "2", "--bits")
        assert bits["results"]["zeta_chernoff"]["units"] == "bits"
        assert abs(
            bits["results"]["zeta_chernoff"]["value"] * math.log(2.0)
            - nats["results"]["zeta_chernoff"]["value"]
        ) < 1e-12

    def test_hoeffding_requires_rate(self, capsys):
        code, _ = run(capsys, "exponent", POVM_FILE, "--kind", "hoeffding")
        assert code == 1

    def test_hoeffding_with_rate(self, capsys):
        code, rep = run_json(
            capsys,
            "exponent",
            POVM_FILE,
            "--kind",
            "hoeffding",
            "--rate",
            "0.0",
            "--restarts",
            "4",
        )
        assert code == 0
        assert abs(rep["results"]["zeta_hoeffding"]["value"] - 0.10464962875290948) < 1e-6

    def test_infinite_exponent_serialized(self, capsys, tmp_path):
        proj = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        path = tmp_path / "proj.json"
        path.write_text(json.dumps(povm_to_json(proj)))
        code, rep = run_json(capsys, "exponent", str(path), "--restarts", "2")
        assert code == 0
        assert rep["results"]["zeta_chernoff"]["value"] == "inf"

    def test_value_kind_is_lower_bound(self, capsys, tmp_path):
        # a qubit detector with three outcomes whose elements do not commute
        path = tmp_path / "random.json"
        path.write_text(json.dumps(povm_to_json(random_povm(np.random.default_rng(5), 2, 3))))
        code, rep = run_json(capsys, "exponent", str(path), "--kind", "stein", "--restarts", "0")
        assert code == 0
        assert rep["diagnostics"]["value_kind"] == "achievable lower bound"
        assert list(rep["results"]) == ["zeta_stein"]

    @pytest.mark.parametrize("kind", [["chernoff"], ["stein"], ["hoeffding", "--rate", "0.05"]])
    def test_value_kind_is_exact_on_a_commuting_detector(self, capsys, kind):
        # the joint eigenbasis gives the optimum itself; restarts and --mixed are not run
        code, rep = run_json(capsys, "exponent", POVM_FILE, "--kind", *kind, "--restarts", "4", "--mixed")
        assert code == 0
        assert rep["diagnostics"]["value_kind"] == "exact"
        assert rep["diagnostics"]["restarts_used"] == 0

    def test_negative_restarts_exit_3(self, capsys):
        code, out = run(capsys, "exponent", POVM_FILE, "--restarts", "-3")
        assert code == 3
        assert out == ""

    def test_negative_seed_exit_3(self, capsys):
        code, out = run(capsys, "exponent", POVM_FILE, "--seed", "-1", "--restarts", "1")
        assert code == 3
        assert out == ""

    def test_nan_rate_exit_3(self, capsys):
        code, out = run(
            capsys, "exponent", POVM_FILE, "--kind", "hoeffding", "--rate", "nan", "--restarts", "0"
        )
        assert code == 3
        assert out == ""

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "exponent", POVM_FILE, "--restarts", "4", "--seed", "7")
        _, b = run(capsys, "exponent", POVM_FILE, "--restarts", "4", "--seed", "7")
        assert a == b


class TestFinite:
    def test_ml(self, capsys):
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "ml")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.352) < 1e-12
        assert_log_count(rep["diagnostics"]["log_grouping_size"], 7)

    def test_brute_matches_ml(self, capsys):
        # ml sums types and brute the dense sequences: 0.352 and 0.35200000000000004
        _, ml = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "ml")
        _, bf = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "brute")
        ml_err, bf_err = ml["results"]["p_err"]["value"], bf["results"]["p_err"]["value"]
        assert abs(bf_err - ml_err) <= 1e-12 * max(bf_err, ml_err)
        for rep in (ml, bf):
            assert_log_count(rep["diagnostics"]["log_grouping_size"], 7)

    @pytest.mark.parametrize("n", [1, 3])
    def test_edge_detector_brute_and_ml(self, capsys, tmp_path, n):
        # completeness residual just under TOL_COMPLETE: each row sums to
        # 1 + 9.9e-10 and three uses to 1 + 3.0e-9, past the plain SUM_TOL
        edge = Povm((np.diag([0.4, 0.2]).astype(complex), np.diag([0.6 + 9.9e-10, 0.8 + 9.9e-10]).astype(complex)))
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(povm_to_json(edge)))
        reps = []
        for mode in ("brute", "ml"):
            code, rep = run_json(capsys, "finite", str(path), "--n", str(n), "--mode", mode)
            assert code == 0
            reps.append(rep["results"]["p_err"]["value"])
        assert math.isclose(*reps, rel_tol=1e-12)
        assert abs(reps[0] - {1: 0.4, 3: 0.352}[n]) < 1e-8

    def test_ml_ties_go_to_h0(self, capsys):
        # the 924 sequences with six clicks of twelve tie; dense kron products gave 2154
        code, rep = run_json(capsys, "finite", SG_FILE, "--n", "12", "--mode", "ml")
        assert code == 0
        p_err, size = oracles.iid_ml_error([0.81, 0.19], [0.19, 0.81], 12)
        assert size == 2510
        assert_log_count(rep["diagnostics"]["log_grouping_size"], size)
        assert abs(rep["results"]["p_err"]["value"] - float(p_err)) <= 1e-12 * float(p_err)

    def test_useless_detector_log_count(self, capsys, tmp_path):
        # P = Q: dense brute force accepts no sequence, ML sends all 4 ties to H0
        useless = Povm((np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2))
        path = tmp_path / "useless.json"
        path.write_text(json.dumps(povm_to_json(useless)))
        _, bf = run_json(capsys, "finite", str(path), "--n", "2", "--mode", "brute")
        _, ml = run_json(capsys, "finite", str(path), "--n", "2", "--mode", "ml")
        assert bf["diagnostics"]["log_grouping_size"] == "-inf"
        assert_log_count(ml["diagnostics"]["log_grouping_size"], 4)
        assert bf["results"]["p_err"]["value"] == ml["results"]["p_err"]["value"] == 0.5

    def test_ml_rate(self, capsys):
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "ml")
        assert code == 0
        assert rep["results"]["rate"]["units"] == "nats"
        assert abs(rep["results"]["rate"]["value"] + math.log(0.352) / 3) < 1e-14

    def test_ml_rate_survives_underflow(self, capsys):
        # p_err is about 1e-1900 at n = 9000; the rate is computed from the log
        code, rep = run_json(capsys, "finite", SG_FILE, "--n", "9000", "--mode", "ml")
        assert code == 0
        assert rep["results"]["p_err"]["value"] == 0.0
        assert 0.24 < rep["results"]["rate"]["value"] < 0.25

    def test_ml_disjoint_supports_rate_inf(self, capsys, tmp_path):
        perfect = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        path = tmp_path / "perfect.json"
        path.write_text(json.dumps(povm_to_json(perfect)))
        code, rep = run_json(capsys, "finite", str(path), "--n", "3", "--mode", "ml")
        assert code == 0
        results = rep["results"]
        assert results["p_err"]["value"] == 0.0
        assert results["rate"]["value"] == "inf"

    @pytest.mark.parametrize("path", [SG_FILE, "random_d3"])
    def test_ml_chernoff_bound_and_rate(self, capsys, tmp_path, path):
        if path == "random_d3":
            # m = 2 keeps n = 1600 within the types cap
            path = tmp_path / "random_d3.json"
            path.write_text(json.dumps(povm_to_json(random_povm(np.random.default_rng(7), 3, 2))))
            path = str(path)
        povm = _load_valid_povm(path)
        basis = _basis_candidates(povm)
        p, q = candidate_probs(povm, (basis[0], basis[-1]))
        xi = chernoff_exponent(p, q).value
        # p_err <= exp(n phi(s)) / 2 = exp(-n xi) / 2 for every n, compared in logs
        for n in list(range(1, 61)) + [100, 400, 1600]:
            log_err, _ = iid_ml_log_error(p, q, n)
            assert log_err <= -math.log(2.0) - n * xi + 1e-12
        gaps = []
        for n in (100, 400, 1600):
            code, rep = run_json(capsys, "finite", path, "--n", str(n), "--mode", "ml")
            assert code == 0
            gaps.append(rep["results"]["rate"]["value"] - xi)
        assert 0.0 < gaps[2] < gaps[1] < gaps[0]

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_ml_nonpositive_n_exit_3(self, capsys, n):
        code, out = run(capsys, "finite", POVM_FILE, "--n", n, "--mode", "ml")
        assert code == 3
        assert out == ""

    def test_ml_past_dense_cap(self, capsys):
        # 2^21 sequences exceeded the dense cap; 22 types do not
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "21", "--mode", "ml")
        assert code == 0
        assert 0.0 < rep["results"]["p_err"]["value"] < 0.5

    def test_ml_largest_n(self, capsys):
        # TYPES_CAP types at m = 2; about 2 ms on a 2-vCPU Xeon, budget 10 s
        t0 = time.perf_counter()
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", str(TYPES_CAP - 1), "--mode", "ml")
        assert code == 0
        assert time.perf_counter() - t0 < 10.0
        assert 0 < rep["diagnostics"]["log_grouping_size"] < (TYPES_CAP - 1) * math.log(2.0)
        assert 0.0 < rep["results"]["rate"]["value"] < 1.0

    def test_ml_one_use_on_many_outcomes(self, capsys, tmp_path):
        # 2000 types of one use: p_err = 1/2 sum_k min(P_k, Q_k), without a types table
        povm = random_povm(np.random.default_rng(13), 2, 2000)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(povm_to_json(povm)))
        tracemalloc.start()
        try:
            code, rep = run_json(capsys, "finite", str(path), "--n", "1", "--mode", "ml")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8e6
        p, q = candidate_probs(povm, extreme_pair(povm)).probs
        want = 0.5 * np.minimum(p, q).sum()
        assert math.isclose(rep["results"]["p_err"]["value"], want, rel_tol=1e-13)

    def test_ml_above_types_cap_exit_4(self, capsys):
        # refused before any type is built
        t0 = time.perf_counter()
        code, out = run(capsys, "finite", POVM_FILE, "--n", str(TYPES_CAP), "--mode", "ml")
        assert code == 4
        assert out == ""
        assert time.perf_counter() - t0 < 2.0

    def test_brute_cap_exit_4(self, capsys):
        code, _ = run(capsys, "finite", POVM_FILE, "--n", "8", "--mode", "brute")
        assert code == 4

    def test_brute_cap_refused_before_any_sequence_is_built(self, capsys, monkeypatch):
        # 2^20 sequences fit the dense cap, but their 2^(2^20) partitions do not
        def unreachable(*args):
            raise AssertionError("sequence_distribution called")

        monkeypatch.setattr(detpower.cli, "sequence_distribution", unreachable)
        code, out = run(capsys, "finite", POVM_FILE, "--n", "20", "--mode", "brute")
        assert code == 4
        assert out == ""

    @pytest.mark.parametrize("mode", ["ml", "brute", "sweep", "pattern"])
    def test_zero_n_exit_3(self, capsys, mode):
        code = main(["finite", POVM_FILE, "--n", "0", "--mode", mode])
        out, err = capsys.readouterr()
        assert (code, out, err) == (3, "", "error: n must be positive\n")

    def test_pattern(self, capsys):
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "pattern")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.344) < 1e-12
        assert sorted(rep["results"]["pattern"]["value"]) == ["001", "110"]

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_pattern_nonpositive_n_exit_3(self, capsys, n):
        code, out = run(capsys, "finite", POVM_FILE, "--n", n, "--mode", "pattern")
        assert code == 3
        assert out == ""

    def test_pattern_largest_n(self, capsys):
        # one full sweep of 2236 O(n) blocks; about 1.1 s on a 2-vCPU Xeon, budget 10 s
        t0 = time.perf_counter()
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "4471", "--mode", "pattern")
        assert code == 0
        assert time.perf_counter() - t0 < 10.0
        pat0, pat1 = rep["results"]["pattern"]["value"]
        assert len(pat0) == len(pat1) == 4471 and all(a != b for a, b in zip(pat0, pat1))
        _, ml = run_json(capsys, "finite", POVM_FILE, "--n", "4471", "--mode", "ml")
        assert 0.0 < rep["results"]["p_err"]["value"] < ml["results"]["p_err"]["value"]
        # 2237 blocks of 4473 entries exceed the work cap
        code, out = run(capsys, "finite", POVM_FILE, "--n", "4472", "--mode", "pattern")
        assert code == 4
        assert out == ""

    @pytest.mark.parametrize("mode", ["ml", "brute", "pattern"])
    def test_error_modes_report_rate(self, capsys, mode):
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "4", "--mode", mode)
        assert code == 0
        p_err, rate = rep["results"]["p_err"]["value"], rep["results"]["rate"]["value"]
        assert math.isclose(rate, -math.log(p_err) / 4, rel_tol=1e-12)

    def test_pattern_rate_survives_underflow(self, capsys):
        # p_err underflows to 0 at n = 4000; the rate comes from the log.  The
        # symmetric detector gains nothing from swapped patterns, so the two
        # rates agree to rounding.
        _, ml = run_json(capsys, "finite", SG_FILE, "--n", "4000", "--mode", "ml")
        code, rep = run_json(capsys, "finite", SG_FILE, "--n", "4000", "--mode", "pattern")
        assert code == 0
        assert rep["results"]["p_err"]["value"] == 0.0
        rate = rep["results"]["rate"]["value"]
        assert abs(rate - 0.243726) < 1e-6
        assert rate >= ml["results"]["rate"]["value"] * (1 - 1e-12)

    def test_pattern_on_three_outcomes(self, capsys, tmp_path):
        # three outcomes go through the joint-types sum: C(n + 5, 5) types
        path = tmp_path / "three.json"
        path.write_text(json.dumps(povm_to_json(random_povm(np.random.default_rng(5), 2, 3))))
        code, rep = run_json(capsys, "finite", str(path), "--n", "5", "--mode", "pattern")
        assert code == 0
        _, ml = run_json(capsys, "finite", str(path), "--n", "5", "--mode", "ml")
        assert rep["results"]["p_err"]["value"] <= ml["results"]["p_err"]["value"] * (1 + 1e-12)
        code, out = run(capsys, "finite", str(path), "--n", "14", "--mode", "pattern")
        assert code == 4
        assert out == ""

    def test_readme_finite_n_table(self, capsys):
        # the README's best-pattern vs i.i.d. table, to the digits it prints
        with open(os.path.join(DATA, "..", "README.md")) as fh:
            lines = [line for line in fh if line.strip().startswith("| ") and line.count("|") == 6]
        table = {cells[0]: cells[1:] for cells in ([c.strip() for c in line.split("|")[1:-1]] for line in lines)}
        for n in ("10", "100", "1000"):
            printed = table[n]
            got = []
            for mode in ("pattern", "ml"):
                _, rep = run_json(capsys, "finite", POVM_FILE, "--n", n, "--mode", mode)
                got += [rep["results"]["p_err"]["value"], rep["results"]["rate"]["value"]]
            for text, value in zip(printed, got):
                digits = len(text.split("e")[0].replace(".", "").lstrip("0"))
                assert f"{value:.{digits}g}" == f"{float(text):.{digits}g}", (n, text, value)

    def test_modes_share_one_pair_at_d3(self, capsys, tmp_path):
        # a two-outcome qutrit detector whose first element has three distinct
        # eigenvalues in a rotated basis; every mode uses the extreme pair
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        e0 = u @ np.diag([0.7, 0.45, 0.2]) @ u.conj().T
        povm = Povm((e0, np.eye(3) - e0))
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(povm_to_json(povm)))

        def p_err(n, mode):
            code, rep = run_json(capsys, "finite", str(path), "--n", str(n), "--mode", mode)
            assert code == 0
            return rep["results"]

        curve = p_err(6, "sweep")["curve"]["value"]
        ml = p_err(6, "ml")
        assert math.isclose(p_err(6, "pattern")["p_err"]["value"], min(row[1] for row in curve), rel_tol=1e-12)
        assert math.isclose(ml["p_err"]["value"], curve[0][1], rel_tol=1e-12)
        assert math.isclose(ml["rate"]["value"], empirical_rate(povm, 6), rel_tol=1e-12)
        assert math.isclose(p_err(4, "brute")["p_err"]["value"], p_err(4, "ml")["p_err"]["value"], rel_tol=1e-12)

    @pytest.mark.parametrize("mode, calls", [("sweep", 0), ("ml", 1), ("brute", 1), ("pattern", 1)])
    def test_extreme_pair_built_only_where_used(self, capsys, monkeypatch, mode, calls):
        # sweep_x builds its own pair, so the command builds none in sweep mode
        seen = []
        extreme_pair = detpower.cli.extreme_pair

        def counted(p):
            seen.append(p)
            return extreme_pair(p)

        monkeypatch.setattr(detpower.cli, "extreme_pair", counted)
        code, _ = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", mode)
        assert code == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("n", ["100000000", "1000000000"])
    @pytest.mark.parametrize(
        "command",
        [("finite", "--mode", mode) for mode in ("ml", "brute", "sweep", "pattern")] + [("adaptive",)],
        ids=["ml", "brute", "sweep", "pattern", "adaptive"],
    )
    def test_huge_n_exit_4_at_once(self, capsys, command, n):
        # every cap is checked before anything of size n is built
        t0 = time.perf_counter()
        code, out = run(capsys, command[0], POVM_FILE, "--n", n, *command[1:])
        assert code == 4
        assert out == ""
        assert time.perf_counter() - t0 < 1.0

    def test_sweep_json(self, capsys):
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "sweep")
        assert code == 0
        curve = rep["results"]["curve"]["value"]
        assert len(curve) == 4
        assert abs(curve[-1][1] - 0.352) < 1e-12
        assert abs(curve[2][1] - 0.344) < 1e-12

    def test_sweep_csv(self, capsys):
        code, out = run(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "sweep", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,p_err,rate"
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert abs(float(last[1]) - 0.352) < 1e-12

    def test_sweep_points_subsample(self, capsys):
        code, rep = run_json(
            capsys, "finite", POVM_FILE, "--n", "100", "--mode", "sweep", "--points", "11"
        )
        assert code == 0
        curve = rep["results"]["curve"]["value"]
        assert len(curve) == 11
        assert curve[0][0] == 0.0 and curve[-1][0] == 1.0

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_sweep_nonpositive_points_exit_3(self, capsys, points):
        code, out = run(capsys, "finite", POVM_FILE, "--n", "10", "--mode", "sweep", "--points", points)
        assert code == 3
        assert out == ""

    def test_sweep_largest_n_with_points(self, capsys):
        # 31 distinct O(n) blocks; about 1 s on a 2-vCPU Xeon, budget 10 s
        t0 = time.perf_counter()
        code, rep = run_json(
            capsys, "finite", POVM_FILE, "--n", "100000", "--mode", "sweep", "--points", "61"
        )
        assert code == 0
        assert time.perf_counter() - t0 < 10.0
        curve = rep["results"]["curve"]["value"]
        assert len(curve) == 61
        # p_err underflows to 0 at this n; the rate is computed from the log
        assert all(isinstance(row[2], float) and 0.0 < row[2] < 1.0 for row in curve)

    def test_sweep_largest_n_without_points_exit_4(self, capsys):
        # 50001 blocks of 10^5 entries exceed the work cap: refused before any block
        t0 = time.perf_counter()
        code, _ = run(capsys, "finite", POVM_FILE, "--n", "100000", "--mode", "sweep")
        assert code == 4
        assert time.perf_counter() - t0 < 2.0

    def test_sweep_infinite_rate_is_strict_json(self, capsys, tmp_path):
        perfect = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        path = tmp_path / "perfect.json"
        path.write_text(json.dumps(povm_to_json(perfect)))
        code, rep = run_json(capsys, "finite", str(path), "--n", "3", "--mode", "sweep")
        assert code == 0
        curve = rep["results"]["curve"]["value"]
        assert [row[1:] for row in curve] == [[0.0, "inf"]] * 4


class TestAdaptive:
    def test_evaluate_strategy_file(self, capsys):
        code, rep = run_json(
            capsys, "adaptive", POVM_FILE, "--strategy", STRATEGY_FILE
        )
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.336) < 1e-12
        assert rep["diagnostics"]["decision"] == "explicit-grouping"

    def test_search_depth_three(self, capsys):
        code, rep = run_json(capsys, "adaptive", POVM_FILE, "--n", "3")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.336) < 1e-12

    def test_search_diagnostics(self, capsys):
        # the tree always has a choice at every history shorter than n, so its
        # size is not reported; the final error-tradeoff hull's is
        code, rep = run_json(capsys, "adaptive", POVM_FILE, "--n", "2")
        assert code == 0
        assert rep["diagnostics"] == {"mode": "search", "hull_vertices": 8}

    def test_search_depth_one(self, capsys):
        code, rep = run_json(capsys, "adaptive", POVM_FILE, "--n", "1")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.4) < 1e-12

    def test_depth_cap_exit_4(self, capsys):
        # the basis pair on two outcomes: the old leaf budget stopped at n = 6;
        # the hull search reaches n = 30 at once and stops at its cap below n = 60
        code, rep = run_json(capsys, "adaptive", POVM_FILE, "--n", "6")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.27872) < 1e-12
        start = time.perf_counter()
        code, rep = run_json(capsys, "adaptive", POVM_FILE, "--n", "30")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.104074) < 1e-6
        code, out = run(capsys, "adaptive", POVM_FILE, "--n", "60")
        assert code == 4
        assert out == ""

    def test_default_candidates_from_joint_basis(self, capsys, tmp_path):
        # a commuting qutrit detector whose E_0 has a repeated eigenvalue, in
        # a random frame: E_0's eigenbasis mixes the two rows of A that share
        # 0.5, the joint eigenbasis does not (0.28061 with E_0's basis)
        a = np.array([[0.5, 0.3, 0.2], [0.5, 0.1, 0.4], [0.2, 0.4, 0.4]])
        u = random_unitary(np.random.default_rng(3), 3)
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(povm_to_json(Povm(tuple(u @ np.diag(col) @ u.conj().T for col in a.T)))))
        code, rep = run_json(capsys, "adaptive", str(path), "--n", "2")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.275) < 1e-12

    def test_huge_depth_exit_4_at_once(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "adaptive", POVM_FILE, "--n", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""

    def test_deep_strategy_file(self, capsys, tmp_path):
        # a projective detector and a depth-30 tree whose only live path
        # clicks 0 under both hypotheses: ML errs half the time
        proj = tmp_path / "proj.json"
        proj.write_text(json.dumps(povm_to_json(Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))))))
        strat = tmp_path / "deep.json"
        strat.write_text(json.dumps({
            "depth": 30,
            "dim": 2,
            "candidates": [matrix_to_json(np.diag([1.0, 0.0]))],
            "choices": {"1" * k: [0, 0] for k in range(30)},
        }))
        start = time.perf_counter()
        code, rep = run_json(capsys, "adaptive", str(proj), "--strategy", str(strat))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert rep["results"]["p_err"]["value"] == 0.5

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_depth_below_one_exit_3(self, capsys, tmp_path, n):
        # depth 0 is no instance, whatever the detector
        three = [np.diag(e) for e in ([0.5, 0.2], [0.3, 0.3], [0.2, 0.5])]
        path = tmp_path / "three.json"
        path.write_text(json.dumps(povm_to_json(Povm(tuple(e.astype(complex) for e in three)))))
        code = main(["adaptive", str(path), "--n", n])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "depth must be positive" in captured.err

    def test_single_state_candidates_file_exit_2(self, capsys, tmp_path):
        # {"dim": d, "state": matrix} is not a candidates file
        path = tmp_path / "candidates.json"
        path.write_text(json.dumps({"dim": 2, "state": matrix_to_json(np.eye(2) / 2)}))
        code = main(["adaptive", POVM_FILE, "--candidates", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert 'candidates file must be an object with "dim" and a list of "states"' in captured.err

    def test_candidates_not_a_list_exit_2(self, capsys, tmp_path):
        path = tmp_path / "candidates.json"
        path.write_text('{"dim": 2, "states": 5}')
        code, out = run(capsys, "adaptive", POVM_FILE, "--candidates", str(path))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "field,value,code",
        [
            ("depth", "three", 2),
            ("depth", 3.0, 2),
            ("choices", {"": ["a", 1]}, 2),
            ("choices", [1, 2], 2),
            ("grouping", "12", 2),
            ("grouping", ["1", "2"], 3),
            ("grouping", ["333"], 3),
        ],
    )
    def test_malformed_strategy_file(self, capsys, tmp_path, field, value, code):
        with open(STRATEGY_FILE, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj[field] = value
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(obj))
        got, out = run(capsys, "adaptive", POVM_FILE, "--strategy", str(path))
        assert got == code
        assert out == ""


    @pytest.mark.parametrize("dim", [True, 2.0, 1.0, "2", 0])
    @pytest.mark.parametrize("kind", ["povm", "--candidates", "--strategy"])
    def test_dim_must_be_a_json_integer(self, capsys, tmp_path, kind, dim):
        # true and 2.0 once read as 1 and 2
        qubit = matrix_to_json(np.eye(2) / 2)
        if kind == "povm":
            with open(POVM_FILE, encoding="utf-8") as fh:
                obj = json.load(fh)
        elif kind == "--candidates":
            obj = {"states": [qubit]}
        else:
            obj = {"depth": 1, "candidates": [qubit], "choices": {"": [0, 0]}}
        obj["dim"] = dim
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        argv = ["validate", str(path)] if kind == "povm" else ["adaptive", POVM_FILE, kind, str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert '"dim" must be a positive integer' in captured.err

    @pytest.mark.parametrize("leaf", ["0.5", True, False])
    @pytest.mark.parametrize("kind", ["povm", "--candidates", "--strategy"])
    def test_matrix_entries_must_be_json_numbers(self, capsys, tmp_path, kind, leaf):
        # numpy reads "0.5" as 0.5 and true as 1.0
        qubit = matrix_to_json(np.eye(2) / 2)
        if kind == "povm":
            with open(POVM_FILE, encoding="utf-8") as fh:
                obj = json.load(fh)
            matrix = obj["elements"][0]
        elif kind == "--candidates":
            obj = {"dim": 2, "states": [qubit]}
        else:
            obj = {"depth": 1, "dim": 2, "candidates": [qubit], "choices": {"": [0, 0]}}
        if kind != "povm":
            matrix = qubit
        matrix[1][1][1] = leaf
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        argv = ["validate", str(path)] if kind == "povm" else ["adaptive", POVM_FILE, kind, str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "entries must be JSON numbers" in captured.err

    @pytest.mark.parametrize("flag", ["--candidates", "--strategy"])
    def test_state_dimension_mismatch_exit_3(self, capsys, tmp_path, flag):
        # qutrit states against the qubit detector of POVM_FILE
        qutrit = matrix_to_json(np.eye(3) / 3)
        if flag == "--candidates":
            obj = {"dim": 3, "states": [qutrit]}
        else:
            obj = {"depth": 1, "dim": 3, "candidates": [qutrit], "choices": {"": [0, 0]}}
        path = tmp_path / "states.json"
        path.write_text(json.dumps(obj))
        code = main(["adaptive", POVM_FILE, flag, str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "candidate state 0 has dimension 3, the POVM 2" in captured.err


class TestBenchmarks:
    def test_table(self, capsys):
        code, rep = run_json(capsys, "benchmarks")
        assert code == 0
        res = rep["results"]
        assert abs(res["covariant_zeta"]["value"] - math.log(4 / math.pi)) < 1e-15
        assert abs(res["covariant_overlap"]["value"] - math.pi / 4) < 1e-15
        assert 0.615 <= res["equivalent_sg_purity"]["value"] <= 0.625
        assert abs(res["commuting_zeta_04_02"]["value"] - 0.024666131263401) < 1e-12
        assert abs(res["sg_zeta_r_0.62"]["value"] - 0.24257893850870652) < 1e-12
        assert res["sg_zeta_r_0.9"]["value"] > res["sg_zeta_r_0.1"]["value"]
        # mixed-detector exponent sits inside its bounds
        assert (
            res["mixing_lower_p05"]["value"] - 1e-9
            <= res["mixing_mixed_zeta_p05"]["value"]
            <= res["mixing_upper_p05"]["value"] + 1e-9
        )

    def test_no_diagnostics(self, capsys):
        _, rep = run_json(capsys, "benchmarks")
        assert rep["diagnostics"] == {}

    def test_bits(self, capsys):
        _, rep = run_json(capsys, "benchmarks", "--bits")
        assert rep["results"]["covariant_zeta"]["units"] == "bits"
        assert abs(
            rep["results"]["covariant_zeta"]["value"] - math.log2(4 / math.pi)
        ) < 1e-12


class TestStrategyRoundTrip:
    def test_json_roundtrip(self, tmp_path):
        from detpower.io import load_json_file, strategy_from_json, strategy_to_json

        strat = strategy_from_json(load_json_file(STRATEGY_FILE))
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(strategy_to_json(strat, 2)))
        again = strategy_from_json(load_json_file(str(path)))
        assert again.depth == strat.depth
        assert again.choices == strat.choices
        assert again.grouping == strat.grouping
        for a, b in zip(again.candidates, strat.candidates):
            assert np.array_equal(a.mat, b.mat)

    @staticmethod
    def _strategy(outcome):
        from detpower import AdaptiveStrategy, DensityMatrix

        cands = (DensityMatrix(np.diag([1.0, 0.0]).astype(complex)), DensityMatrix(np.diag([0.0, 1.0]).astype(complex)))
        return AdaptiveStrategy(
            depth=2, candidates=cands, choices={(): (0, 1), (outcome,): (1, 0)}, grouping={(outcome, 0)}
        )

    def test_outcome_8_roundtrips(self):
        from detpower.io import strategy_from_json, strategy_to_json

        strat = self._strategy(8)
        obj = strategy_to_json(strat, 2)
        assert obj["choices"]["9"] == [1, 0]
        again = strategy_from_json(json.loads(json.dumps(obj)))
        assert again.choices == strat.choices
        assert again.grouping == strat.grouping

    def test_outcome_9_refused_when_written(self):
        from detpower import StructuralError
        from detpower.io import strategy_to_json

        with pytest.raises(StructuralError):
            strategy_to_json(self._strategy(9), 2)


def _readme_cli_commands():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split(">")[0])[1:] for line in block.splitlines() if line.startswith("detpower ")]


def test_readme_cli_block(capsys, monkeypatch):
    """Every command of the README's CLI block runs from the repository root
    and prints its report (or the CSV curve), with any `> file` dropped."""
    commands = _readme_cli_commands()
    assert len(commands) == 12
    monkeypatch.chdir(ROOT)
    for argv in commands:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if "--csv" in argv:
            assert out.splitlines()[0] == "x,p_err,rate", argv
        else:
            assert loads_strict(out)["command"] == argv[0], argv


def test_import_loads_no_scipy():
    import detpower

    src = os.path.dirname(os.path.dirname(detpower.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, detpower, detpower.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
