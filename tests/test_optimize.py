import json
import os

import numpy as np
import pytest

from detpower import (
    ClassicalDistribution,
    DomainError,
    ExponentValue,
    Povm,
    ResourceError,
    SearchOptions,
    noisy_sg_povm,
    noisy_sg_zeta,
    relative_entropy,
    single_shot_power,
    zeta_chernoff,
    zeta_hoeffding,
    zeta_stein,
)
from detpower import optimize
from detpower.channel import induced_distribution, induced_probs
from conftest import random_povm, random_pure

FAST = SearchOptions(restarts=8, seed=0)


class TestSingleShot:
    def test_diag(self, diag_povm):
        rep = single_shot_power(diag_povm)
        assert abs(rep.value - 0.4) < 1e-12
        assert rep.grouping.accept.tolist() == [True, False]
        assert np.allclose(rep.optimizer.rho.mat, np.diag([1.0, 0.0]))
        assert np.allclose(rep.optimizer.sigma.mat, np.diag([0.0, 1.0]))

    def test_projective_perfect(self):
        p = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        assert single_shot_power(p).value == 0.0

    def test_useless_detector(self):
        p = Povm((np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2))
        assert single_shot_power(p).value == 0.5

    def test_three_outcome_grouping(self):
        # grouping two of three outcomes can beat any single outcome
        e0 = np.diag([0.5, 0.1]).astype(complex)
        e1 = np.diag([0.3, 0.2]).astype(complex)
        e2 = np.eye(2) - e0 - e1
        p = Povm((e0, e1, e2))
        rep = single_shot_power(p)
        # exact spread answer: max over {0},{0,1},{0,2} groupings
        spreads = [0.4, 0.5, 0.1]
        assert abs(rep.value - (0.5 - max(spreads) / 2)) < 1e-12
        assert rep.grouping.accept.tolist() == [True, True, False]

    def test_never_beaten_by_sampled_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            p = random_povm(rng, d, int(rng.integers(2, 5)))
            rep = single_shot_power(p)
            for _ in range(200):
                v0, v1 = random_pure(rng, d), random_pure(rng, d)
                q0 = induced_probs(p, np.outer(v0, v0.conj()))
                q1 = induced_probs(p, np.outer(v1, v1.conj()))
                sampled = 0.5 * float(np.sum(np.minimum(q0, q1)))
                assert rep.value <= sampled + 1e-10

    def test_outcome_cap(self):
        eye = np.eye(2, dtype=complex)
        p = Povm(tuple([eye / 30] * 30))
        with pytest.raises(ResourceError):
            single_shot_power(p)


class TestChernoffSearch:
    def test_commuting_detector(self, diag_povm):
        rep = zeta_chernoff(diag_povm, FAST)
        assert abs(rep.value - 0.024666131263401) < 1e-9
        # optimal inputs are the shared eigenbasis states
        assert abs(abs(rep.optimizer.rho.mat[0, 0]) - 1.0) < 1e-6 or abs(
            abs(rep.optimizer.rho.mat[1, 1]) - 1.0
        ) < 1e-6

    def test_noisy_sg_closed_form(self):
        for r in (0.3, 0.62, 0.9):
            rep = zeta_chernoff(noisy_sg_povm(r), FAST)
            assert abs(rep.value - noisy_sg_zeta(r)) < 1e-9

    def test_projective_infinite(self):
        p = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        rep = zeta_chernoff(p, FAST)
        assert np.isinf(rep.value)

    def test_useless_detector_zero(self):
        p = Povm((np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2))
        assert zeta_chernoff(p, FAST).value < 1e-12

    def test_deterministic(self, diag_povm):
        opts = SearchOptions(restarts=6, seed=42)
        a = zeta_chernoff(diag_povm, opts)
        b = zeta_chernoff(diag_povm, opts)
        assert a.value == b.value
        assert np.array_equal(a.optimizer.rho.mat, b.optimizer.rho.mat)
        assert np.array_equal(a.optimizer.sigma.mat, b.optimizer.sigma.mat)

    def test_reported_value_is_attained(self):
        # the returned states must reproduce the reported exponent
        rng = np.random.default_rng(32)
        from detpower.channel import chernoff_exponent

        for _ in range(5):
            p = random_povm(rng, 2, 3)
            rep = zeta_chernoff(p, FAST)
            q0 = induced_probs(p, rep.optimizer.rho.mat)
            q1 = induced_probs(p, rep.optimizer.sigma.mat)
            from detpower import ClassicalDistribution

            attained = chernoff_exponent(
                ClassicalDistribution(q0), ClassicalDistribution(q1)
            ).value
            assert abs(attained - rep.value) < 1e-9

    def test_covariant_optimum_is_antipodal(self):
        from detpower import fibonacci_covariant_discretization

        disc = fibonacci_covariant_discretization(500)
        rep = zeta_chernoff(disc.to_povm(), SearchOptions(restarts=0))
        b0 = _bloch(rep.optimizer.rho.mat)
        b1 = _bloch(rep.optimizer.sigma.mat)
        assert float(b0 @ b1) < -1.0 + 1e-6


def _bloch(mat):
    from detpower import PAULI_X, PAULI_Y, PAULI_Z

    return np.array([np.trace(mat @ s).real for s in (PAULI_X, PAULI_Y, PAULI_Z)])


class TestSteinSearch:
    def test_commuting_detector(self, diag_povm):
        rep = zeta_stein(diag_povm, FAST)
        assert abs(rep.value - 0.10464962875290948) < 1e-9

    def test_dominates_chernoff(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            p = random_povm(rng, 2, 3)
            cb = zeta_chernoff(p, FAST).value
            sl = zeta_stein(p, FAST).value
            assert cb <= sl + 1e-9

    def test_useless_detector_zero(self):
        p = Povm((np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2))
        assert zeta_stein(p, FAST).value < 1e-12


class TestHoeffdingSearch:
    def test_rate_zero_matches_stein(self, diag_povm):
        hb = zeta_hoeffding(diag_povm, 0.0, FAST)
        sl = zeta_stein(diag_povm, FAST)
        assert abs(hb.value - sl.value) < 1e-6

    def test_monotone_in_rate(self, diag_povm):
        rates = [0.0, 0.02, 0.05, 0.08, 0.1]
        vals = [zeta_hoeffding(diag_povm, r, FAST).value for r in rates]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-7

    def test_between_chernoff_and_stein_at_crossover(self, diag_povm):
        # at r = zeta_CB the optimal Hoeffding exponent equals zeta_CB
        cb = zeta_chernoff(diag_povm, FAST).value
        hb = zeta_hoeffding(diag_povm, cb, FAST).value
        assert abs(hb - cb) < 1e-6


class TestSearchOverDistributions:
    """The search scores induced distributions and converts each state once."""

    def test_negative_restarts_refused(self):
        with pytest.raises(DomainError):
            SearchOptions(restarts=-3)
        assert SearchOptions(restarts=0).restarts == 0

    def test_objective_sees_checked_distributions(self, diag_povm):
        seen = []

        def objective(P, Q):
            seen.append((P, Q))
            return ExponentValue(float(P.probs[0] - Q.probs[0]))

        rep = optimize.optimize_state_pair(objective, diag_povm, SearchOptions(restarts=0))
        n_bases = sum(1 for _ in optimize._candidate_bases(diag_povm))
        assert len(seen) == n_bases * 2  # d(d-1) ordered pairs per basis
        assert all(isinstance(x, ClassicalDistribution) for pair in seen for x in pair)
        assert rep.value == pytest.approx(0.2)
        assert rep.s_star is None

    @pytest.mark.parametrize("kind", ["chernoff", "stein", "hoeffding"])
    def test_one_conversion_per_basis_state(self, monkeypatch, kind):
        p = random_povm(np.random.default_rng(7), 3, 4)
        calls = []

        def counted(povm, mat):
            calls.append(1)
            return induced_probs(povm, mat)

        monkeypatch.setattr(optimize, "induced_probs", counted)
        opts = SearchOptions(restarts=0)
        if kind == "hoeffding":
            zeta_hoeffding(p, 0.05, opts)
        else:
            {"chernoff": zeta_chernoff, "stein": zeta_stein}[kind](p, opts)
        n_bases = sum(1 for _ in optimize._candidate_bases(p))
        assert n_bases == 7  # the 2^(m-1) - 1 proper groupings of 4 outcomes
        assert len(calls) == p.dim * n_bases

    @pytest.mark.parametrize(
        "case",
        [f"{det}/{kind}" for det in ("commuting", "random_d3_m4") for kind in ("chernoff", "stein", "hoeffding")],
    )
    def test_bit_identical_to_recorded_search(self, diag_povm, case):
        # recorded from the search that scored state matrices, before the objective
        # took induced distributions; the floating-point path must not move
        with open(os.path.join(os.path.dirname(__file__), "search_reference.json")) as fh:
            ref = json.load(fh)["cases"][case]
        det, kind = case.split("/")
        p = diag_povm if det == "commuting" else random_povm(np.random.default_rng(7), 3, 4)
        opts = SearchOptions(restarts=2, seed=0)
        if kind == "hoeffding":
            rep = zeta_hoeffding(p, 0.05, opts)
        else:
            rep = {"chernoff": zeta_chernoff, "stein": zeta_stein}[kind](p, opts)

        def unhex(rows):
            return np.array([[complex(float.fromhex(re), float.fromhex(im)) for re, im in row] for row in rows])

        assert rep.value == float.fromhex(ref["value"])
        assert rep.s_star == (None if ref["s_star"] is None else float.fromhex(ref["s_star"]))
        assert np.array_equal(rep.optimizer.rho.mat, unhex(ref["rho"]))
        assert np.array_equal(rep.optimizer.sigma.mat, unhex(ref["sigma"]))
