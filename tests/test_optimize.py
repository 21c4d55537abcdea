import contextlib
import gc
import json
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detpower import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ClassicalDistribution,
    DensityMatrix,
    DomainError,
    ExponentValue,
    Povm,
    ResourceError,
    SearchOptions,
    commuting_zeta,
    joint_eigenbasis,
    noisy_sg_povm,
    noisy_sg_zeta,
    relative_entropy,
    single_shot_power,
    validate_povm,
    zeta_chernoff,
    zeta_hoeffding,
    zeta_stein,
)
from detpower import eig_hermitian, optimize
from detpower.channel import (
    chernoff_exponent,
    chernoff_rows,
    golden_section_min,
    hoeffding_exponent,
    induced_distribution,
    induced_probs,
)
from detpower.io import load_json_file, povm_from_json
from conftest import commuting_detectors, random_povm, random_pure, random_unitary
import oracles

FAST = SearchOptions(restarts=8, seed=0)
SG_FILE = os.path.join(os.path.dirname(__file__), "..", "data", "povm_noisy_sg_062.json")
ONE_OUTCOME = Povm((np.eye(2, dtype=complex),))


@contextlib.contextmanager
def scan_only():
    """Send every detector down the grouping scan, commuting ones too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "joint_eigenbasis", lambda p: None)
        yield


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
        p = random_povm(np.random.default_rng(30), 3, 30)  # its elements do not commute
        with pytest.raises(ResourceError):
            single_shot_power(p)

    def test_qubit_outcome_cap_refused_up_front(self, monkeypatch):
        def never(b):
            raise AssertionError("the candidates were built")

        monkeypatch.setattr(optimize, "_zonotope_groupings", never)
        p = random_povm(np.random.default_rng(30), 2, optimize.MAX_OUTCOMES_QUBIT_SINGLE_SHOT + 1)
        with pytest.raises(ResourceError, match="qubit single-shot cap"):
            single_shot_power(p)

    def test_commuting_detector_has_no_outcome_cap(self):
        eye = np.eye(2, dtype=complex)
        rep = single_shot_power(Povm(tuple([eye / 30] * 30)))
        assert rep.value == 0.5 and rep.exact

    def test_one_outcome_refused(self):
        with pytest.raises(DomainError, match="at least 2 outcomes"):
            single_shot_power(ONE_OUTCOME)

    @given(d=st.integers(2, 3), m=st.integers(3, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_coarse_graining_never_helps(self, d, m, seed, data):
        # merging outcomes k < l into one element only removes groupings
        k = data.draw(st.integers(0, m - 2))
        l = data.draw(st.integers(k + 1, m - 1))
        p = random_povm(np.random.default_rng(seed), d, m)
        e = p.elements
        merged = Povm(e[:k] + (e[k] + e[l],) + e[k + 1 : l] + e[l + 1 :])
        assert single_shot_power(merged).value >= single_shot_power(p).value - 1e-12


class TestQubitSingleShot:
    """A qubit single shot diagonalizes only the zonotope's vertex groupings."""

    def test_bloch_vectors_rebuild_the_hermitian_parts(self):
        p = random_povm(np.random.default_rng(44), 2, 5)
        b = optimize._bloch_vectors(p)
        a = np.trace(p.stacked(), axis1=1, axis2=2).real / 2
        rebuilt = a[:, None, None] * np.eye(2) + np.einsum("ki,ixy->kxy", b, np.stack([PAULI_X, PAULI_Y, PAULI_Z]))
        assert np.allclose(rebuilt, p.stacked(), rtol=0.0, atol=1e-15)

    @given(which=st.sampled_from(["random", "real", "rank_one", "repeated", "identity"]), m=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_candidates_are_distinct_proper_groupings_in_scan_order(self, which, m, seed):
        rng = np.random.default_rng(seed)
        p = {
            "random": lambda: random_povm(rng, 2, m),
            "real": lambda: _real_povm(rng, m),
            "rank_one": lambda: _rank_one_povm(rng, m),
            "repeated": lambda: _with_repeated_element(rng),
            "identity": lambda: _with_identity_element(rng),
        }[which]()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "SPREAD_SCREEN", math.inf)  # every candidate
            rows = optimize._zonotope_groupings(optimize._bloch_vectors(p))
        groupings = [tuple(np.flatnonzero(r)) for r in rows]
        order = {g: n for n, g in enumerate(oracles.proper_groupings(p.n_outcomes))}
        assert all(g in order for g in groupings)
        assert [order[g] for g in groupings] == sorted(order[g] for g in set(groupings))
        # one per antipodal pair of the n(n - 1) + 2 cells of the n live vectors,
        # with and without the others, and {0}
        live = np.linalg.norm(optimize._bloch_vectors(p), axis=1) > optimize.BLOCH_TIE_TOL
        n = int(live.sum())
        assert len(groupings) <= (n * (n - 1) // 2 + 1) * (1 if live.all() else 2) + 1

    @given(which=st.sampled_from(["random", "real", "rank_one", "repeated"]), m=st.integers(2, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_every_cell_is_a_candidate(self, which, m, seed):
        # the grouping {k : b_k . u > 0} of a random direction u, or its
        # complement if that holds outcome 0, is always among the candidates
        rng = np.random.default_rng(seed)
        p = {
            "random": lambda: random_povm(rng, 2, m),
            "real": lambda: _real_povm(rng, m),
            "rank_one": lambda: _rank_one_povm(rng, m),
            "repeated": lambda: _with_repeated_element(rng),
        }[which]()
        b = optimize._bloch_vectors(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "SPREAD_SCREEN", math.inf)
            candidates = {tuple(r) for r in optimize._zonotope_groupings(b)}
        cells = b @ rng.normal(size=(3, 2000)) > 0
        cells[:, ~cells[0]] ^= True
        assert {tuple(c) for c in cells.T if not c.all()} <= candidates

    def test_block_size_does_not_change_reports(self, monkeypatch):
        reports = []
        for block in (1, 7, optimize.ZONOTOPE_BLOCK):
            monkeypatch.setattr(optimize, "ZONOTOPE_BLOCK", block)
            detectors = (_covariant(14), random_povm(np.random.default_rng(45), 2, 12),
                         _real_povm(np.random.default_rng(46), 10))
            reports.append([_report_bits(single_shot_power(p)) for p in detectors])
        assert reports[0] == reports[1] == reports[2]

    def test_one_stacked_diagonalization(self, monkeypatch):
        calls = []

        def counted(mat):
            calls.append(len(mat))
            return eig_hermitian(mat)

        monkeypatch.setattr(optimize, "eig_hermitian", counted)
        p = _covariant(12)
        single_shot_power(p)
        assert calls == [len(optimize._zonotope_groupings(optimize._bloch_vectors(p)))]

    def test_keeps_no_scan(self, monkeypatch):
        monkeypatch.setattr(optimize, "_SCANS", weakref.WeakKeyDictionary())
        p = random_povm(np.random.default_rng(47), 2, 8)
        single_shot_power(p)
        assert len(optimize._SCANS) == 0
        zeta_stein(p, SearchOptions(restarts=0))  # the basis scan diagonalizes the groupings on first use
        assert list(optimize._SCANS.keys()) == [p]

    def test_coplanar_tie_set_is_solved_in_the_plane(self, monkeypatch):
        # every vector ties at the plane's normal: its sectors are solved one
        # dimension lower, not by the 2^40 subsets of the tie set
        p = _real_povm(np.random.default_rng(48), 40)
        monkeypatch.setattr(optimize, "SPREAD_SCREEN", math.inf)
        # one per antipodal pair of the 2m sectors, and {0}
        assert len(optimize._zonotope_groupings(optimize._bloch_vectors(p))) <= 41
        monkeypatch.undo()
        b = optimize._bloch_vectors(p)
        assert single_shot_power(p).value <= 0.5 - np.linalg.norm(b, axis=1).sum() / 4 + 1e-12

    def test_no_vector_above_the_tie_tolerance(self):
        # no cell exists; {0}, the scan's first grouping, is the one candidate
        eye = np.eye(2, dtype=complex)
        p = Povm(tuple(eye / 3 + np.array([[0.0, x], [x, 0.0]]) for x in (1e-14, -2e-14, 1e-14)))
        with scan_only():
            rep = single_shot_power(p)
        assert rep.grouping.accept.tolist() == [True, False, False]
        assert rep.value == 0.5 - float(np.subtract(*eig_hermitian(p.elements[0])[0])) / 2

    def test_runs_at_the_cap(self):
        p = random_povm(np.random.default_rng(49), 2, optimize.MAX_OUTCOMES_QUBIT_SINGLE_SHOT)
        assert 0.0 < single_shot_power(p).value < 0.5

    @settings(max_examples=40)
    @given(m=st.integers(2, 64), seed=st.integers(0, 2**32 - 1), rank_one=st.booleans())
    def test_closed_form_bound(self, m, seed, rank_one):
        # the mean of sum_k (b_k . u)_+ over directions u is sum_k |b_k| / 4, so the
        # widest spread 2 max_u sum_k (b_k . u)_+ is at least sum_k |b_k| / 2; a
        # rank-one element w_k (I + n_k . sigma) has |b_k| = w_k, and sum_k w_k = 1
        rng = np.random.default_rng(seed)
        p = _rank_one_povm(rng, m) if rank_one else random_povm(rng, 2, m)
        value = single_shot_power(p).value
        assert value <= 0.5 - np.linalg.norm(optimize._bloch_vectors(p), axis=1).sum() / 4 + 1e-12
        if rank_one:
            assert value <= 0.25 + 1e-12

    def test_covariant_discretizations_approach_a_quarter(self):
        values = [single_shot_power(_covariant(m)).value for m in (50, 100)]
        assert 0.24 < values[0] < values[1] <= 0.25
        assert values == pytest.approx([0.24283734391257017, 0.24624479963742546], rel=1e-12, abs=0.0)


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

    def test_nan_rate_refused(self, diag_povm):
        with pytest.raises(DomainError):
            zeta_hoeffding(diag_povm, float("nan"), FAST)

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

    def test_negative_seed_refused(self):
        with pytest.raises(DomainError):
            SearchOptions(seed=-1)
        assert SearchOptions(seed=0).seed == 0

    def test_objective_sees_checked_distributions(self, diag_povm):
        seen = []

        def objective(P, Q):
            seen.append((P, Q))
            return ExponentValue(float(P.probs[0] - Q.probs[0]))

        rep = optimize.optimize_state_pair(objective, diag_povm, SearchOptions(restarts=0))
        n_bases = sum(len(chunk) for chunk in optimize._candidate_bases(diag_povm))
        assert len(seen) == n_bases * 2  # d(d-1) ordered pairs per basis
        assert all(isinstance(x, ClassicalDistribution) for pair in seen for x in pair)
        assert rep.value == pytest.approx(0.2)
        assert rep.s_star is None

    @pytest.mark.parametrize("kind", ["chernoff", "stein", "hoeffding"])
    def test_one_conversion_per_basis_state(self, monkeypatch, kind):
        p = random_povm(np.random.default_rng(7), 3, 4)
        calls = []

        def counted(povm, mat):
            calls.append(_states(mat))
            return induced_probs(povm, mat)

        monkeypatch.setattr(optimize, "induced_probs", counted)
        opts = SearchOptions(restarts=0)
        if kind == "hoeffding":
            zeta_hoeffding(p, 0.05, opts)
        else:
            {"chernoff": zeta_chernoff, "stein": zeta_stein}[kind](p, opts)
        n_bases = sum(len(chunk) for chunk in optimize._candidate_bases(p))
        assert n_bases == 7  # the 2^(m-1) - 1 proper groupings of 4 outcomes
        assert sum(calls) == p.dim * n_bases

    @pytest.mark.parametrize("kind", ["chernoff", "stein", "hoeffding"])
    def test_one_check_per_scan_chunk(self, monkeypatch, kind):
        # d = 4, m = 8: 127 bases of 12 ordered pairs, scored 32 bases a chunk
        monkeypatch.setattr(optimize, "SCAN_CHUNK", 128)
        p = random_povm(np.random.default_rng(11), 4, 8)
        checks = []
        check = ClassicalDistribution.__post_init__
        monkeypatch.setattr(ClassicalDistribution, "__post_init__", lambda self: checks.append(check(self)))
        opts = SearchOptions(restarts=0)
        if kind == "hoeffding":
            zeta_hoeffding(p, 0.05, opts)
        else:
            {"chernoff": zeta_chernoff, "stein": zeta_stein}[kind](p, opts)
        assert len(checks) == sum(1 for _ in optimize._candidate_bases(p)) == 4

    def test_refinement_converts_only_the_moved_state(self, monkeypatch):
        p = random_povm(np.random.default_rng(7), 3, 4)
        conversions, objective_calls, line_searches = [], [], []

        def counted_probs(povm, mat):
            conversions.append(_states(mat))
            return induced_probs(povm, mat)

        def counted_search(*args, **kwargs):
            line_searches.append(1)
            return golden_section_min(*args, **kwargs)

        def objective(P, Q):
            objective_calls.append(1)
            return chernoff_exponent(P, Q)

        monkeypatch.setattr(optimize, "induced_probs", counted_probs)
        monkeypatch.setattr(optimize, "golden_section_min", counted_search)
        optimize.optimize_state_pair(objective, p, SearchOptions(restarts=1, seed=0))
        n_bases = sum(len(chunk) for chunk in optimize._candidate_bases(p))
        scan_calls = n_bases * p.dim * (p.dim - 1)
        restart_calls = len(objective_calls) - scan_calls
        restart_conversions = sum(conversions) - n_bases * p.dim
        assert line_searches and restart_calls > len(line_searches)
        # one moved state per line-search evaluation, one fixed state per line
        # search, and both states of the start and the final pair
        assert restart_conversions == (restart_calls - 2) + len(line_searches) + 2 * 2

    @pytest.mark.parametrize(
        "search, opts",
        [(zeta_chernoff, SearchOptions(restarts=1)), (zeta_stein, SearchOptions(restarts=0))],
    )
    def test_one_outcome_refused(self, search, opts):
        # with one outcome every state pair induces (1), (1): nothing to search
        with pytest.raises(DomainError, match="at least 2 outcomes"):
            search(ONE_OUTCOME, opts)

    def test_mixed_scores_the_other_three_corners(self, monkeypatch):
        p = povm_from_json(load_json_file(SG_FILE))
        conversions, solves, line_searches = [], [], []

        def counted_probs(povm, mat):
            conversions.append(_states(mat))
            return induced_probs(povm, mat)

        def counted_solve(P, Q):
            solves.append(1)
            return chernoff_exponent(P, Q)

        def counted_search(*args, **kwargs):
            line_searches.append(1)
            return golden_section_min(*args, **kwargs)

        monkeypatch.setattr(optimize, "induced_probs", counted_probs)
        monkeypatch.setattr(optimize, "chernoff_exponent", counted_solve)
        monkeypatch.setattr(optimize, "golden_section_min", counted_search)
        with scan_only():  # the detector commutes: zeta_chernoff alone would score no corner
            plain = zeta_chernoff(p, SearchOptions(restarts=0))
            scan = sum(conversions), len(solves)
            mixed = zeta_chernoff(p, SearchOptions(restarts=0, mixed=True))
        # both states of each of the three corners are converted and scored once
        assert (sum(conversions) - 2 * scan[0], len(solves) - 2 * scan[1]) == (6, 3)
        assert not line_searches
        assert mixed.value.hex() == plain.value.hex() == "0x1.f0cd39fcbf0e3p-3"

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


def _states(mat) -> int:
    """States converted by one induced_probs call: a 3-D stack holds len(mat)."""
    return len(mat) if np.ndim(mat) == 3 else 1


def _projective(d):
    return Povm(tuple(np.diag(np.eye(d)[k]).astype(complex) for k in range(d)))


def _partly_zero():
    # diagonal elements with zeros: basis pairs have zero entries, some with
    # a common support (finite Chernoff) and some without (infinite Stein)
    return Povm(tuple(np.diag(e).astype(complex) for e in ([0.5, 0.0, 0.2], [0.5, 0.6, 0.0], [0.0, 0.4, 0.8])))


class TestRowScoredScan:
    """zeta_chernoff and zeta_stein score each basis's ordered pairs in one
    row-wise call; the result must be the per-pair scan's, to the bit."""

    SIZES = [(2, 2), (2, 6), (3, 4), (3, 8), (4, 3), (4, 7), (5, 2), (5, 5), (5, 8)]

    @pytest.mark.parametrize("kind", ["chernoff", "stein"])
    def test_same_result_as_per_pair_scan(self, kind):
        rng = np.random.default_rng(12)
        detectors = [random_povm(rng, d, m) for d, m in self.SIZES] + [_projective(3), _partly_zero()]
        search, pair = {
            "chernoff": (zeta_chernoff, chernoff_exponent),
            "stein": (zeta_stein, lambda P, Q: ExponentValue(relative_entropy(P, Q))),
        }[kind]
        opts = SearchOptions(restarts=0)
        for p in detectors:
            rows = search(p, opts)
            plain = optimize.optimize_state_pair(lambda P, Q: pair(P, Q), p, opts)  # no rows: one call per pair
            assert rows.value == plain.value
            assert rows.s_star == plain.s_star
            assert np.array_equal(rows.optimizer.rho.mat, plain.optimizer.rho.mat)
            assert np.array_equal(rows.optimizer.sigma.mat, plain.optimizer.sigma.mat)
        # zero rows: the projective detector ends the scan on an infinite pair,
        # the partly-zero one (checked last) only for Stein
        assert math.isinf(search(_projective(3), opts).value)
        assert math.isinf(rows.value) == (kind == "stein")

    @pytest.mark.parametrize("kind", ["chernoff", "stein"])
    def test_scan_does_not_call_the_per_pair_function(self, monkeypatch, kind):
        calls = []
        name = {"chernoff": "chernoff_exponent", "stein": "relative_entropy"}[kind]
        original = getattr(optimize, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(optimize, name, counted)
        p = random_povm(np.random.default_rng(7), 3, 4)
        {"chernoff": zeta_chernoff, "stein": zeta_stein}[kind](p, SearchOptions(restarts=0))
        assert calls == []
        {"chernoff": zeta_chernoff, "stein": zeta_stein}[kind](p, SearchOptions(restarts=1))
        assert calls  # the restarts still score one pair at a time


def _near_tie(eps=2e-16):
    e0 = np.diag([0.5, 0.1]).astype(complex)
    e1 = np.diag([eps, 0.0]).astype(complex)
    return Povm((e0, e1, np.eye(2) - e0 - e1))


def _qubit_povm(weights, directions):
    """The qubit detector E_k = w_k (I + n_k . sigma)."""
    eye = np.eye(2, dtype=complex)
    return Povm(tuple(w * (eye + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) for w, (x, y, z) in zip(weights, directions)))


def _real_povm(rng, m):
    """A random real qubit detector: its Bloch vectors lie in the xz plane."""
    mats = [g @ g.T for g in rng.normal(size=(m, 2, 2))]
    evals, evecs = np.linalg.eigh(sum(mats))
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
    return Povm(tuple((inv_sqrt @ a @ inv_sqrt).astype(complex) for a in mats))


def _rank_one_povm(rng, m):
    """A random rank-one qubit detector: E_k = w_k (I + n_k . sigma) with |n_k| = 1."""
    v = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    mats = v[:, :, None] * v.conj()[:, None, :]
    evals, evecs = np.linalg.eigh(mats.sum(axis=0))
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    return Povm(tuple(inv_sqrt @ a @ inv_sqrt for a in mats))


def _with_identity_element(rng):
    e = random_povm(rng, 2, 5).elements
    return Povm(tuple(0.8 * x for x in e) + (0.2 * np.eye(2, dtype=complex),))


def _with_identity_elements_around(rng):
    # E_0 and E_5 are multiples of I: outcome 0 has no Bloch vector
    e = random_povm(rng, 2, 4).elements
    eye = np.eye(2, dtype=complex)
    return Povm((0.1 * eye,) + tuple(0.8 * x for x in e) + (0.1 * eye,))


def _with_repeated_element(rng):
    e = random_povm(rng, 2, 5).elements
    return Povm(e[:1] + (e[1] / 2, e[1] / 2) + e[2:])


def _off_complement(rng):
    e0 = random_povm(rng, 2, 2).elements[0]
    return Povm((e0, np.eye(2) - e0 + np.array([[0.0, 1e-11], [1e-11, 0.0]])))


def _covariant(m):
    from detpower import fibonacci_covariant_discretization

    return fibonacci_covariant_discretization(m).to_povm()


TETRAHEDRON = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / math.sqrt(3)
SINGLE_SHOT_CASES = {
    "random_d3_m9": lambda: random_povm(np.random.default_rng(22), 3, 9),
    "covariant_6": lambda: _covariant(6),  # planar
    "covariant_8": lambda: _covariant(8),
    "covariant_12": lambda: _covariant(12),
    "covariant_14": lambda: _covariant(14),
    "trine": lambda: _qubit_povm([1 / 3] * 3, [(math.sin(t), 0.0, math.cos(t)) for t in 2 * math.pi * np.arange(3) / 3]),
    "sic": lambda: _qubit_povm([1 / 4] * 4, TETRAHEDRON),
    "real_m9": lambda: _real_povm(np.random.default_rng(40), 9),
    "near_tie": _near_tie,
    "near_tie_wider": lambda: _near_tie(2e-14),  # |b_1| = 1e-14 counts as 0, and {0, 1} is wider by 2e-14
    "identity_element": lambda: _with_identity_element(np.random.default_rng(41)),
    "identity_elements_around": lambda: _with_identity_elements_around(np.random.default_rng(44)),
    "repeated_element": lambda: _with_repeated_element(np.random.default_rng(42)),
    "two_outcome_off_complement": lambda: _off_complement(np.random.default_rng(43)),
}


def _assert_single_shot_is_the_scan(p):
    """single_shot_power gives the value, grouping and states of the per-grouping scan, to the bit."""
    spread, group, evecs = oracles.single_shot_scan(p, oracles.proper_groupings(p.n_outcomes))
    with scan_only():  # near_tie commutes
        rep = single_shot_power(p)
    assert rep.value == min(max(0.5 - spread / 2.0, 0.0), 0.5)
    assert np.flatnonzero(rep.grouping.accept).tolist() == list(group)
    assert rep.optimizer.rho.mat.tobytes() == DensityMatrix.pure(evecs[:, 0]).mat.tobytes()
    assert rep.optimizer.sigma.mat.tobytes() == DensityMatrix.pure(evecs[:, -1]).mat.tobytes()
    return rep


def _report_bits(rep):
    """A report's value, s_star, optimizer and grouping, compared to the bit."""
    states = None if rep.optimizer is None else (rep.optimizer.rho.mat.tobytes(), rep.optimizer.sigma.mat.tobytes())
    grouping = None if rep.grouping is None else rep.grouping.accept.tolist()
    return rep.value.hex(), None if rep.s_star is None else rep.s_star.hex(), states, grouping


class TestChunkedScan:
    """The grouping scans build, diagonalize, convert and score SCAN_CHUNK
    matrices per stacked call; the chunk size does not change a float."""

    @pytest.mark.parametrize("which", ["random_d4_m11", "covariant_12"])
    def test_chunk_size_does_not_change_reports(self, monkeypatch, which):
        from detpower import fibonacci_covariant_discretization

        opts = SearchOptions(restarts=0)
        reports = []
        for chunk in (1, 10**6, optimize.SCAN_CHUNK):
            monkeypatch.setattr(optimize, "SCAN_CHUNK", chunk)
            # a fresh Povm per size: a reused one would read the first size's kept scan
            if which == "covariant_12":  # grouped elements with repeated eigenvalues: the tie order counts
                p = fibonacci_covariant_discretization(12).to_povm()
            else:
                p = random_povm(np.random.default_rng(21), 4, 11)
            reports.append([_report_bits(f(p)) for f in (single_shot_power, lambda p: zeta_chernoff(p, opts),
                                                           lambda p: zeta_stein(p, opts))])
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("kind", ["chernoff", "stein"])
    @pytest.mark.parametrize("d, m", [(3, 11), (2, 14), (3, 17)])
    def test_same_result_as_per_pair_scan(self, kind, d, m):
        # m = 17 takes the element-basis path: one basis per element
        p = random_povm(np.random.default_rng(100 * d + m), d, m)
        search, pair = {
            "chernoff": (zeta_chernoff, chernoff_exponent),
            "stein": (zeta_stein, lambda P, Q: ExponentValue(relative_entropy(P, Q))),
        }[kind]
        opts = SearchOptions(restarts=0)
        plain = optimize.optimize_state_pair(lambda P, Q: pair(P, Q), p, opts)  # no rows: one call per pair
        assert _report_bits(search(p, opts)) == _report_bits(plain)

    @pytest.mark.parametrize("which", list(SINGLE_SHOT_CASES))
    def test_single_shot_matches_per_grouping_scan(self, which):
        p = SINGLE_SHOT_CASES[which]()
        rep = _assert_single_shot_is_the_scan(p)
        if which == "near_tie":  # {0, 1} spreads a few ulps wider than {0}, within 1e-15
            assert rep.grouping.accept.tolist() == [True, False, False]
        if which == "near_tie_wider":
            assert rep.grouping.accept.tolist() == [True, True, False]
        if which == "two_outcome_off_complement":  # takes the qubit path without scan_only
            assert joint_eigenbasis(p) is None

    @settings(max_examples=30)
    @given(m=st.integers(2, 14), seed=st.integers(0, 2**32 - 1))
    def test_qubit_single_shot_matches_per_grouping_scan(self, m, seed):
        _assert_single_shot_is_the_scan(random_povm(np.random.default_rng(seed), 2, m))

    @pytest.mark.parametrize("kind", ["chernoff", "stein", "hoeffding"])
    @pytest.mark.parametrize("which", ["covariant_12", "noisy_sg", "commuting"])
    def test_scan_matches_per_basis_oracle(self, kind, which, diag_povm):
        # symmetric detectors give equal values at different pairs: the first one must win
        from detpower import fibonacci_covariant_discretization

        p = {
            "covariant_12": lambda: fibonacci_covariant_discretization(12).to_povm(),
            "noisy_sg": lambda: noisy_sg_povm(0.62),
            "commuting": lambda: diag_povm,
        }[which]()
        pair, search = {
            "chernoff": (chernoff_exponent, zeta_chernoff),
            "stein": (lambda P, Q: ExponentValue(relative_entropy(P, Q)), zeta_stein),
            "hoeffding": (lambda P, Q: hoeffding_exponent(P, Q, 0.05), lambda p, o: zeta_hoeffding(p, 0.05, o)),
        }[kind]
        bases = [p.grouped_element(g) for g in oracles.proper_groupings(p.n_outcomes)]
        best, (rho, sigma) = oracles.basis_scan(pair, p, (eig_hermitian(op)[1] for op in bases))
        rep = search(p, SearchOptions(restarts=0))
        assert rep.value == max(best.value, 0.0) and rep.s_star == best.optimizer_s
        assert np.array_equal(rep.optimizer.rho.mat, (rho + rho.conj().T) / 2)
        assert np.array_equal(rep.optimizer.sigma.mat, (sigma + sigma.conj().T) / 2)

    def test_grouped_elements_match_grouped_element(self):
        p = random_povm(np.random.default_rng(23), 3, 6)
        for chunk in (1, 7, 10**6):
            scanned = [(row, op) for rows, ops, *_ in optimize._grouping_scan(p, chunk) for row, op in zip(rows, ops)]
            assert [tuple(np.flatnonzero(row)) for row, _ in scanned] == list(oracles.proper_groupings(6))
            assert all(op.tobytes() == p.grouped_element(np.flatnonzero(row)).tobytes() for row, op in scanned)

    @pytest.mark.parametrize("chunk", [1, 4, 9, optimize.SCAN_CHUNK])
    def test_element_bases_above_the_grouping_cap(self, monkeypatch, chunk):
        # above MAX_OUTCOMES_GROUPING_SCAN outcomes the scan takes the eigenbases
        # of the first MAX_BASIS_ELEMENTS elements, in order
        monkeypatch.setattr(optimize, "MAX_OUTCOMES_GROUPING_SCAN", 3)
        monkeypatch.setattr(optimize, "MAX_BASIS_ELEMENTS", 5)
        monkeypatch.setattr(optimize, "SCAN_CHUNK", chunk)
        p = random_povm(np.random.default_rng(26), 3, 7)
        chunks = list(optimize._candidate_bases(p))
        assert all(len(c) <= max(1, chunk // 3) for c in chunks)
        assert [b.tobytes() for c in chunks for b in c] == [eig_hermitian(e)[1].tobytes() for e in p.elements[:5]]

    def test_generator_ends_after_the_last_chunk_is_scored(self, monkeypatch):
        # a profiler stamps the end of the scan when _candidate_bases is exhausted
        events = []
        original = optimize._candidate_bases

        def watched(p):
            yield from original(p)
            events.append("exhausted")

        def rows(P, Q, floor):
            events.append("scored")
            return chernoff_rows(P, Q, floor)

        monkeypatch.setattr(optimize, "SCAN_CHUNK", 8)
        monkeypatch.setattr(optimize, "_candidate_bases", watched)
        p = random_povm(np.random.default_rng(24), 3, 6)  # 31 bases, 2 per chunk: the last chunk is short
        optimize.optimize_state_pair(optimize._row_scored(chernoff_exponent, rows), p, SearchOptions(restarts=0))
        assert events == ["scored"] * 16 + ["exhausted"]

    def test_scan_stops_at_the_first_infinite_value(self, monkeypatch):
        calls = []

        def rows(P, Q, floor):
            calls.append(len(P))
            return chernoff_rows(P, Q, floor)

        monkeypatch.setattr(optimize, "SCAN_CHUNK", 3)  # one basis per chunk
        objective = optimize._row_scored(chernoff_exponent, rows)
        rep = optimize.optimize_state_pair(objective, _projective(3), SearchOptions(restarts=2))
        assert math.isinf(rep.value) and rep.restarts_used == 0
        assert calls == [6]  # the first basis already separates two states

    @pytest.mark.parametrize("search", [zeta_chernoff, zeta_stein])
    def test_one_dimensional_detector_has_no_pairs(self, search):
        # d = 1: a basis holds one state and no ordered pair, and every state induces one distribution
        p = Povm((np.array([[0.3]], dtype=complex), np.array([[0.7]], dtype=complex)))
        rep = search(p, SearchOptions(restarts=0))
        assert rep.value == 0.0 and rep.optimizer is None

    def test_bad_state_raises_after_the_bases_before_it(self):
        # an incomplete detector: the first state whose outcome sum is off raises
        # its own error when its chunk of bases is converted, before that chunk
        # is scored, for a row-scored and a per-pair objective alike
        p = Povm(tuple(e * w for e, w in zip(random_povm(np.random.default_rng(25), 3, 4).elements, (1, 1, 1, 0.9))))
        messages = []
        for objective in (zeta_stein, lambda p, o: optimize.optimize_state_pair(
                lambda P, Q: ExponentValue(relative_entropy(P, Q)), p, o)):
            with pytest.raises(DomainError, match="probabilities sum to") as err:
                objective(p, SearchOptions(restarts=0))
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def _session_call(kind, restarts, p):
    """One call of a library session on detector p: the single shot or a search."""
    opts = SearchOptions(restarts=restarts)
    return {
        "single_shot": lambda: single_shot_power(p),
        "chernoff": lambda: zeta_chernoff(p, opts),
        "stein": lambda: zeta_stein(p, opts),
        "hoeffding": lambda: zeta_hoeffding(p, 0.05, opts),
    }[kind]()


class TestSharedGroupingScan:
    """Up to MAX_OUTCOMES_GROUPING_SCAN outcomes, single_shot_power and the
    basis scans of one Povm share one diagonalization of its groupings."""

    @settings(max_examples=6)
    @given(
        d=st.integers(2, 4),
        m=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(
            st.tuples(st.sampled_from(["single_shot", "chernoff", "stein", "hoeffding"]), st.sampled_from([0, 2])),
            min_size=2,
            max_size=4,
        ),
    )
    def test_any_call_order_gives_the_fresh_reports(self, d, m, seed, calls):
        elements = random_povm(np.random.default_rng(seed), d, m).elements
        p = Povm(elements)
        for kind, restarts in calls:
            fresh = _session_call(kind, restarts, Povm(elements))
            assert _report_bits(_session_call(kind, restarts, p)) == _report_bits(fresh)

    def test_a_session_diagonalizes_each_grouping_once(self, monkeypatch):
        calls = []

        def counted(mat):
            calls.append(len(mat))
            return eig_hermitian(mat)

        monkeypatch.setattr(optimize, "eig_hermitian", counted)
        monkeypatch.setattr(optimize, "SCAN_CHUNK", 128)
        p = random_povm(np.random.default_rng(27), 4, 9)  # 255 groupings: two chunks of SCAN_CHUNK
        for kind in ("single_shot", "chernoff", "stein", "hoeffding"):
            _session_call(kind, 0, p)
        assert calls == [optimize.SCAN_CHUNK, 255 - optimize.SCAN_CHUNK]

    def test_searches_above_the_grouping_cap_diagonalize_the_elements_once(self, monkeypatch):
        calls = []

        def counted(mat):
            calls.append(len(mat))
            return eig_hermitian(mat)

        monkeypatch.setattr(optimize, "eig_hermitian", counted)
        p = random_povm(np.random.default_rng(31), 4, 20)
        assert p.n_outcomes > optimize.MAX_OUTCOMES_GROUPING_SCAN
        reports = [_report_bits(_session_call(kind, 0, p)) for kind in ("chernoff", "stein", "hoeffding")]
        assert calls == [20]  # one stacked call for the 20 elements, kept for the later searches
        assert reports == [_report_bits(_session_call(kind, 0, Povm(p.elements))) for kind in ("chernoff", "stein", "hoeffding")]
        bases = optimize._SCANS[p]
        assert bases.shape == (20, 4, 4) and not bases.flags.writeable

    def test_kept_arrays_are_read_only(self):
        p = random_povm(np.random.default_rng(28), 3, 6)
        single_shot_power(p)
        rows, evals, evecs = optimize._scanned_groupings(p)
        assert rows.shape == (31, 6) and evals.shape == (31, 3) and evecs.shape == (31, 3, 3)
        assert not any(a.flags.writeable for a in (rows, evals, evecs))
        with pytest.raises(ValueError, match="read-only"):
            evecs[0, 0, 0] = 0.0

    def test_kept_scan_dies_with_the_detector(self, monkeypatch):
        monkeypatch.setattr(optimize, "_SCANS", weakref.WeakKeyDictionary())
        p = random_povm(np.random.default_rng(29), 3, 5)
        zeta_stein(p, SearchOptions(restarts=0))
        assert list(optimize._SCANS.keys()) == [p]
        alive = weakref.ref(p)
        del p
        gc.collect()
        assert alive() is None and len(optimize._SCANS) == 0

    def test_single_shot_above_the_grouping_cap_keeps_nothing(self, monkeypatch):
        monkeypatch.setattr(optimize, "_SCANS", weakref.WeakKeyDictionary())
        p = random_povm(np.random.default_rng(30), 3, 15)  # a qubit would take the zonotope path
        assert p.n_outcomes > optimize.MAX_OUTCOMES_GROUPING_SCAN
        single_shot_power(p)
        assert len(optimize._SCANS) == 0


@st.composite
def scan_detectors(draw):
    """A detector with d in 2-4 and m in 2-6: random full-rank, projective in a
    random basis (outcomes may own no vector), or diagonal with exact zeros."""
    d, m = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "projective", "zeros"]))
    if kind == "random":
        return random_povm(rng, d, m)
    if kind == "projective":
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        owner = draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d))
        return Povm(tuple(u @ np.diag([float(o == k) for o in owner]) @ u.conj().T for k in range(m)))
    # column i holds the outcome distribution of basis state i
    w = np.array([draw(st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=m, max_size=m)) for _ in range(d)]).T
    w[0, w.sum(axis=0) == 0.0] = 1.0
    return Povm(tuple(np.diag(row).astype(complex) for row in w / w.sum(axis=0)))


def _oracle_scan(pair, p):
    """oracles.basis_scan over the grouped-element eigenbases, one basis at a time."""
    bases = (eig_hermitian(p.grouped_element(g))[1] for g in oracles.proper_groupings(p.n_outcomes))
    return oracles.basis_scan(pair, p, bases)


def _oracle_bits(best, best_pair):
    """_report_bits of the report the scan's incumbent gives, as _finish builds it."""
    states = None
    if best_pair is not None:
        states = tuple(((m + m.conj().T) / 2).tobytes() for m in best_pair)
    return max(best.value, 0.0).hex(), None if best.optimizer_s is None else best.optimizer_s.hex(), states, None


class TestScanMatchesOracle:
    """The chunked, row-scored scan gives the incumbent of a scan of one pair at a time."""

    @given(p=scan_detectors(), kind=st.sampled_from(["chernoff", "stein", "hoeffding"]),
           r=st.sampled_from([0.0, 0.05, 0.4]))
    def test_zeta_equals_per_basis_scan(self, p, kind, r):
        pair, search = {
            "chernoff": (chernoff_exponent, zeta_chernoff),
            "stein": (lambda P, Q: ExponentValue(relative_entropy(P, Q)), zeta_stein),
            "hoeffding": (lambda P, Q: hoeffding_exponent(P, Q, r), lambda p, o: zeta_hoeffding(p, r, o)),
        }[kind]
        with scan_only():  # the projective and diagonal detectors commute
            rep = search(p, SearchOptions(restarts=0))
        assert _report_bits(rep) == _oracle_bits(*_oracle_scan(pair, p))

    @given(p=scan_detectors())
    def test_nan_scores_never_win(self, p):
        # NaN where P_0 > Q_0: the sequential `>` scan skips those pairs
        def objective(P, Q):
            return ExponentValue(math.nan) if P.probs[0] > Q.probs[0] else chernoff_exponent(P, Q)

        rep = optimize.optimize_state_pair(objective, p, SearchOptions(restarts=0))
        assert _report_bits(rep) == _oracle_bits(*_oracle_scan(objective, p))

    def test_nan_before_the_maximum_does_not_hide_it(self):
        # all 7 bases of a d = 3, m = 4 detector form one chunk, and NaN scores
        # come before the chunk's largest finite score
        p = random_povm(np.random.default_rng(7), 3, 4)
        scores = []

        def objective(P, Q):
            ev = ExponentValue(math.nan) if P.probs[0] > Q.probs[0] else chernoff_exponent(P, Q)
            scores.append(ev.value)
            return ev

        rep = optimize.optimize_state_pair(objective, p, SearchOptions(restarts=0))
        assert len(scores) == 7 * 6
        first_max = int(np.nanargmax(scores))
        assert any(math.isnan(v) for v in scores[:first_max])
        assert rep.value == scores[first_max] > 0.0
        assert _report_bits(rep) == _oracle_bits(*_oracle_scan(objective, p))


class TestMixedCorners:
    """--mixed scores the corners of the square of mixtures with I/d."""

    @pytest.mark.parametrize("kind", ["chernoff", "stein", "hoeffding"])
    def test_never_below_the_line_searches(self, kind):
        # the exponents are jointly convex, so the best corner bounds every
        # mixture the golden-section line searches could reach
        pair, search = {
            "chernoff": (chernoff_exponent, zeta_chernoff),
            "stein": (lambda P, Q: ExponentValue(relative_entropy(P, Q)), zeta_stein),
            "hoeffding": (lambda P, Q: hoeffding_exponent(P, Q, 0.05), lambda p, o: zeta_hoeffding(p, 0.05, o)),
        }[kind]
        rng = np.random.default_rng(21)
        for _ in range(6):
            p = random_povm(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
            plain = search(p, SearchOptions(restarts=0))
            mixed = search(p, SearchOptions(restarts=0, mixed=True))
            searched = oracles.mixed_line_search(pair, p, plain.optimizer.rho.mat, plain.optimizer.sigma.mat)
            assert mixed.value >= plain.value and mixed.value >= searched.value

    def test_a_corner_can_win(self):
        # the entropy of P: the scan's eigenstates of a projective qubit
        # detector give log 1, the maximally mixed rho gives log 2
        def entropy(P, Q):
            return ExponentValue(float(-np.sum(P.probs * np.log(np.where(P.probs > 0, P.probs, 1.0)))))

        p = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        plain = optimize.optimize_state_pair(entropy, p, SearchOptions(restarts=0))
        rep = optimize.optimize_state_pair(entropy, p, SearchOptions(restarts=0, mixed=True))
        assert plain.value == 0.0
        assert rep.value == math.log(2)
        assert np.array_equal(rep.optimizer.rho.mat, np.eye(2) / 2)
        assert np.array_equal(rep.optimizer.sigma.mat, plain.optimizer.sigma.mat)


def _objective(kind, r=0.05):
    """(per-pair objective, zeta search) of one exponent; the objective is the one the search scores."""
    return {
        "chernoff": (optimize._row_scored(chernoff_exponent, chernoff_rows), zeta_chernoff),
        "stein": (lambda P, Q: ExponentValue(relative_entropy(P, Q)), zeta_stein),
        "hoeffding": (lambda P, Q: hoeffding_exponent(P, Q, r), lambda p, o: zeta_hoeffding(p, r, o)),
    }[kind]


class TestCommutingExact:
    """On a commuting detector the exponents peak at a pair of joint
    eigenvectors, and the single shot is the vertex formula."""

    @settings(max_examples=25)
    @given(case=commuting_detectors(), kind=st.sampled_from(["chernoff", "stein", "hoeffding"]),
           r=st.sampled_from([0.0, 0.05, 0.4]))
    def test_never_below_the_search(self, case, kind, r):
        p, a = case
        objective, search = _objective(kind, r)
        rep = search(p, SearchOptions(restarts=4))
        assert rep.exact and rep.restarts_used == 0
        searched = optimize.optimize_state_pair(objective, p, SearchOptions(restarts=4))
        assert not searched.exact
        # 1e-12 relative, and 1e-15 absolute for the round-off of a zero exponent (equal rows)
        assert rep.value >= searched.value - 1e-12 * searched.value - 1e-15
        # the value is the best vertex pair's, and the reported pair attains it
        rows = ClassicalDistribution(a)
        vertex = max(objective(rows[i], rows[j]).value for i in range(p.dim) for j in range(p.dim) if i != j)
        assert rep.value == pytest.approx(vertex, rel=1e-12, abs=1e-15)
        P, Q = (ClassicalDistribution(induced_probs(p, x.mat)) for x in (rep.optimizer.rho, rep.optimizer.sigma))
        assert objective(P, Q).value == pytest.approx(rep.value, rel=1e-12, abs=1e-15)

    @given(case=commuting_detectors())
    def test_single_shot_equals_the_grouping_scan(self, case):
        p, _ = case
        spread, _, _ = oracles.single_shot_scan(p, oracles.proper_groupings(p.n_outcomes))
        rep = single_shot_power(p)
        assert rep.exact and abs(rep.value - min(max(0.5 - spread / 2.0, 0.0), 0.5)) <= 1e-12
        # the reported states and grouping attain the value
        P, Q = (induced_probs(p, x.mat) for x in (rep.optimizer.rho, rep.optimizer.sigma))
        a = rep.grouping.accept
        assert abs(0.5 * (P[~a].sum() + Q[a].sum()) - rep.value) <= 1e-12

    @given(pq=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)).filter(lambda x: abs(x[0] - x[1]) > 1e-3),
           seed=st.integers(0, 2**32 - 1))
    def test_commuting_zeta(self, pq, seed):
        pp, qq = max(pq), min(pq)
        u = random_unitary(np.random.default_rng(seed), 2)
        p = Povm(tuple(u @ np.diag(c) @ u.conj().T for c in ([pp, qq], [1 - pp, 1 - qq])))
        rep = zeta_chernoff(p, SearchOptions(restarts=0))
        assert rep.exact and abs(rep.value - commuting_zeta(pp, qq)) <= 1e-12

    @given(d=st.integers(2, 4), kind=st.sampled_from(["distinct"] * 3 + ["degenerate"]),
           seed=st.integers(0, 2**32 - 1))
    def test_two_outcome_complement_is_exact(self, d, kind, seed):
        # E_1 = I - E_0 commutes with E_0 up to round-off, degenerate E_0 too
        rng = np.random.default_rng(seed)
        evals = rng.uniform(0.0, 1.0, size=d)
        if kind == "degenerate":
            evals[1] = evals[0]
        u = random_unitary(rng, d)
        e0 = u @ np.diag(evals) @ u.conj().T
        p = Povm((e0, np.eye(d) - e0))
        assert joint_eigenbasis(p) is not None
        assert single_shot_power(p).exact
        for search in (zeta_chernoff, zeta_stein, lambda p, o: zeta_hoeffding(p, 0.05, o)):
            assert search(p, SearchOptions(restarts=0)).exact

    def test_two_outcome_within_completeness_takes_the_search(self):
        # E_1 = I - E_0 + 1e-11 H: a valid POVM (completeness residual up to
        # 1e-9), yet its commutator lies above TOL_COMMUTE, so no joint basis
        rng = np.random.default_rng(11)
        u = random_unitary(rng, 2)
        e0 = u @ np.diag([0.7, 0.2]) @ u.conj().T
        h = 1e-11 * np.array([[0.0, 1.0], [1.0, 0.0]])
        p = Povm((e0, np.eye(2) - e0 + h))
        assert validate_povm(p).valid
        assert joint_eigenbasis(p) is None
        assert not zeta_chernoff(p, SearchOptions(restarts=0)).exact

    @given(case=commuting_detectors(min_outcomes=3), seed=st.integers(0, 2**32 - 1))
    def test_off_commuting_takes_the_search(self, case, seed):
        # move 1e-6 of an off-diagonal Hermitian direction from E_1 to E_0: still a POVM
        p, _ = case
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(p.dim, p.dim)) + 1j * rng.normal(size=(p.dim, p.dim))
        h = g + g.conj().T
        h *= 1e-6 / np.abs(h).max()
        e = p.elements
        moved = Povm((e[0] + h, e[1] - h, *e[2:]))
        s = moved.stacked()
        assume(max(np.abs(x @ y - y @ x).max() for x in s for y in s) > 1e-8)
        assert joint_eigenbasis(moved) is None
        for search in (zeta_chernoff, zeta_stein, lambda p, o: zeta_hoeffding(p, 0.05, o)):
            assert not search(moved, SearchOptions(restarts=0)).exact

    def test_bundled_detectors_keep_the_scan_pair(self, diag_povm):
        # the joint basis is E_0's eigenbasis, the scan's first, so the pair is the scan's
        for p in (diag_povm, povm_from_json(load_json_file(SG_FILE))):
            for kind in ("chernoff", "stein", "hoeffding"):
                search = _objective(kind)[1]
                with scan_only():
                    scan = search(p, SearchOptions(restarts=0))
                assert _report_bits(search(p, SearchOptions(restarts=2, mixed=True))) == _report_bits(scan)
