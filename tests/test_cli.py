import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from detpower.cli import main
from detpower.io import povm_to_json
from detpower import Povm

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
POVM_FILE = os.path.join(DATA, "povm_commuting.json")
SG_FILE = os.path.join(DATA, "povm_noisy_sg_062.json")
STRATEGY_FILE = os.path.join(DATA, "strategy_feedback.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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

    def test_value_kind_is_lower_bound(self, capsys):
        code, rep = run_json(capsys, "exponent", POVM_FILE, "--kind", "stein", "--restarts", "0")
        assert code == 0
        assert rep["diagnostics"]["value_kind"] == "achievable lower bound"
        assert list(rep["results"]) == ["zeta_stein"]

    def test_negative_restarts_exit_3(self, capsys):
        code, out = run(capsys, "exponent", POVM_FILE, "--restarts", "-3")
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
        assert rep["diagnostics"]["grouping_size"] == 7

    def test_brute_matches_ml(self, capsys):
        _, ml = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "ml")
        _, bf = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "brute")
        assert bf["results"]["p_err"]["value"] == ml["results"]["p_err"]["value"]
        assert bf["diagnostics"]["grouping_size"] == ml["diagnostics"]["grouping_size"] == 7

    def test_brute_cap_exit_4(self, capsys):
        code, _ = run(capsys, "finite", POVM_FILE, "--n", "8", "--mode", "brute")
        assert code == 4

    def test_pattern(self, capsys):
        code, rep = run_json(capsys, "finite", POVM_FILE, "--n", "3", "--mode", "pattern")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.344) < 1e-12
        assert sorted(rep["results"]["pattern"]["value"]) == ["001", "110"]

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
        code, out = run(capsys, "finite", str(path), "--n", "3", "--mode", "sweep")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        curve = json.loads(out, parse_constant=reject)["results"]["curve"]["value"]
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

    def test_search_depth_one(self, capsys):
        code, rep = run_json(capsys, "adaptive", POVM_FILE, "--n", "1")
        assert code == 0
        assert abs(rep["results"]["p_err"]["value"] - 0.4) < 1e-12

    def test_depth_cap_exit_4(self, capsys):
        code, _ = run(capsys, "adaptive", POVM_FILE, "--n", "6")
        assert code == 4

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


def test_import_loads_no_scipy():
    import detpower

    src = os.path.dirname(os.path.dirname(detpower.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, detpower, detpower.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
