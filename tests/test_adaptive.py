import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detpower import (
    AdaptiveStrategy,
    DensityMatrix,
    JointState,
    Povm,
    ProductInput,
    DomainError,
    ResourceError,
    StructuralError,
    best_product_pair,
    conditional_state,
    evaluate_strategy,
    iid_ml_log_error,
    ml_error_probability,
    optimal_adaptive,
    sequence_distribution,
)
from detpower import adaptive
from detpower.channel import candidate_probs, induced_probs
from detpower.finite import DENSE_CAP
from conftest import candidate_pool, diag_detector, random_density, random_distribution, random_povm, rate_pairs
import oracles

# most leaves, (|C|^2 m)^n, that the recursive oracle visits in one example
MAX_ORACLE_LEAVES = 6000

PROJECTIVE = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))


def max_depth(nc, m):
    """Deepest tree that the oracle enumerates and the search admits."""
    n = 1
    while (nc * nc * m) ** (n + 1) <= MAX_ORACLE_LEAVES and (max(nc, 2) ** 2 * m) ** (n + 1) <= DENSE_CAP:
        n += 1
    return n


def diag_elements(a, b):
    """Qubit detector whose outcome k is diag(a[k], b[k])."""
    return Povm(tuple(np.diag([x, y]).astype(complex) for x, y in zip(a, b)))


@st.composite
def adaptive_cases(draw):
    """A qubit detector with 2-4 outcomes (projective ones give zero-weight
    branches) and 1-4 candidates drawn with repeats from the computational
    basis and two random pure states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["projective", "diag", "random"]))
    if kind == "random":
        povm = random_povm(rng, 2, m)
    elif m == 2:
        povm = diag_detector(*((1.0, 0.0) if kind == "projective" else draw(rate_pairs())))
    elif kind == "projective":
        # |0><0| always clicks 0, |1><1| never does
        povm = diag_elements(np.eye(m)[0], np.r_[0.0, random_distribution(rng, m - 1)])
    else:
        povm = diag_elements(random_distribution(rng, m), random_distribution(rng, m))
    pool = candidate_pool(rng)
    cands = [pool[k] for k in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))]
    n = draw(st.integers(1, max_depth(len(cands), m)))
    return povm, cands, n


@st.composite
def feedback_cases(draw):
    """adaptive_cases' detectors with 2-3 distinct candidates from the pool,
    at a depth of 1-8, beyond the dense cap too."""
    povm, _, _ = draw(adaptive_cases())
    pool = candidate_pool(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    picks = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True))
    return povm, [pool[k] for k in picks], draw(st.integers(1, 8))


def swap_on_mixed_strategy(basis_states, grouping=True):
    """Depth-3 feedback protocol over the shared eigenbasis of a commuting
    detector: swap the pair after one outcome of each kind."""
    swap_hists = {(0, 1), (1, 0)}
    choices = {}
    for hist in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]:
        choices[hist] = (1, 0) if hist in swap_hists else (0, 1)
    grp = (
        frozenset({(0, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)})
        if grouping
        else None
    )
    return AdaptiveStrategy(
        depth=3, candidates=tuple(basis_states), choices=choices, grouping=grp
    )


class TestConditionalState:
    def test_product_of_basis_states(self, diag_povm, basis_states):
        rho0, rho1 = basis_states
        joint = JointState(
            np.kron(np.kron(rho0.mat, rho0.mat), rho1.mat), local_dim=2, n=3
        )
        state, weight = conditional_state(joint, diag_povm, (0, 0))
        assert abs(weight - 0.4 * 0.4) < 1e-12
        assert np.allclose(state.mat, rho1.mat)

    def test_empty_history(self, diag_povm, basis_states):
        rho0, rho1 = basis_states
        joint = JointState(np.kron(rho0.mat, rho1.mat), local_dim=2, n=2)
        state, weight = conditional_state(joint, diag_povm, ())
        assert abs(weight - 1.0) < 1e-12
        assert np.allclose(state.mat, rho0.mat)

    def test_weights_sum_to_history_marginal(self, diag_povm, basis_states):
        rho0, rho1 = basis_states
        joint = JointState(np.kron(rho0.mat, rho1.mat), local_dim=2, n=2)
        total = 0.0
        for k in range(2):
            _, w = conditional_state(joint, diag_povm, (k,))
            total += w
        assert abs(total - 1.0) < 1e-12

    def test_zero_weight_history(self, diag_povm):
        proj = Povm(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        )
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        joint = JointState(np.kron(rho0, rho0), local_dim=2, n=2)
        state, weight = conditional_state(joint, proj, (1,))
        assert state is None and weight == 0.0

    def test_complete_history_rejected(self, diag_povm, basis_states):
        rho0, _ = basis_states
        joint = JointState(np.kron(rho0.mat, rho0.mat), local_dim=2, n=2)
        with pytest.raises(StructuralError):
            conditional_state(joint, diag_povm, (0, 0))

    def test_outcome_out_of_range_rejected(self, diag_povm, basis_states):
        rho0, _ = basis_states
        joint = JointState(np.kron(rho0.mat, rho0.mat), local_dim=2, n=2)
        with pytest.raises(StructuralError, match="outcome 2 out of range"):
            conditional_state(joint, diag_povm, (2,))

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), n=st.integers(1, 4), m=st.integers(2, 3), data=st.data())
    def test_matches_full_operator(self, seed, d, n, m, data):
        rng = np.random.default_rng(seed)
        joint = JointState(random_density(rng, d**n).mat, local_dim=d, n=n)
        p = random_povm(rng, d, m)
        history = data.draw(st.lists(st.integers(0, m - 1), max_size=n - 1))
        state, weight = conditional_state(joint, p, history)
        want_state, want_weight = oracles.conditional_state(joint, p, history)
        assert abs(weight - want_weight) <= 1e-14
        assert np.max(np.abs(state.mat - want_state.mat)) <= 1e-14


class TestEvaluate:
    def test_feedback_beats_fixed_inputs(self, diag_povm, basis_states):
        strat = swap_on_mixed_strategy(basis_states, grouping=True)
        assert abs(evaluate_strategy(diag_povm, strat) - 0.336) < 1e-12

    def test_ml_decision_matches_explicit_grouping(self, diag_povm, basis_states):
        explicit = swap_on_mixed_strategy(basis_states, grouping=True)
        ml = swap_on_mixed_strategy(basis_states, grouping=False)
        assert abs(
            evaluate_strategy(diag_povm, explicit) - evaluate_strategy(diag_povm, ml)
        ) < 1e-15

    def test_constant_strategy_is_iid(self, diag_povm, basis_states):
        choices = {
            hist: (0, 1)
            for hist in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        }
        strat = AdaptiveStrategy(depth=3, candidates=tuple(basis_states), choices=choices)
        assert abs(evaluate_strategy(diag_povm, strat) - 0.352) < 1e-12

    def test_pattern_strategy_matches_product_search(self, diag_povm, basis_states):
        # send rho0,rho0,rho1 vs rho1,rho1,rho0 regardless of outcomes
        choices = {(): (0, 1), (0,): (0, 1), (1,): (0, 1)}
        for h in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            choices[h] = (1, 0)
        strat = AdaptiveStrategy(depth=3, candidates=tuple(basis_states), choices=choices)
        log_err, _ = best_product_pair(diag_povm, 3, basis_states)
        assert abs(evaluate_strategy(diag_povm, strat) - math.exp(log_err)) < 1e-12

    def test_missing_choice_rejected(self, diag_povm, basis_states):
        strat = AdaptiveStrategy(
            depth=2, candidates=tuple(basis_states), choices={(): (0, 1)}
        )
        with pytest.raises(StructuralError):
            evaluate_strategy(diag_povm, strat)

    @pytest.mark.parametrize("grouping", ["12", {(0,), (1,)}, {(0, 0, 0), (0, 1)}, {(0, 0, 0), 7}])
    def test_grouping_of_partial_histories_rejected(self, basis_states, grouping):
        choices = swap_on_mixed_strategy(basis_states).choices
        with pytest.raises(StructuralError, match="grouping entry"):
            AdaptiveStrategy(depth=3, candidates=tuple(basis_states), choices=choices, grouping=grouping)

    def test_grouping_outcome_out_of_range_rejected(self, diag_povm, basis_states):
        strat = swap_on_mixed_strategy(basis_states)
        bad = AdaptiveStrategy(
            depth=3, candidates=strat.candidates, choices=strat.choices, grouping={(0, 0, 0), (2, 2, 2)}
        )
        with pytest.raises(StructuralError, match=r"\(2, 2, 2\)"):
            evaluate_strategy(diag_povm, bad)

    def test_grouping_on_dead_branch(self, basis_states):
        # |0><0| never clicks 1 on the projective detector, so branch (1,) is
        # dead: an in-range entry there adds nothing, an out-of-range one raises
        choices = {(): (0, 0), (0,): (0, 0)}
        ok = AdaptiveStrategy(depth=2, candidates=tuple(basis_states), choices=choices, grouping={(1, 1)})
        assert evaluate_strategy(PROJECTIVE, ok) == 0.5
        bad = AdaptiveStrategy(depth=2, candidates=tuple(basis_states), choices=choices, grouping={(1, 2)})
        with pytest.raises(StructuralError, match=r"grouping history \(1, 2\) is not an outcome sequence"):
            evaluate_strategy(PROJECTIVE, bad)


def assert_rel(got, want, tol=1e-15):
    """got within tol of want, relative to want (exactly equal when want is 0)."""
    assert abs(got - want) <= tol * abs(want)


class TestOptimal:
    @given(case=adaptive_cases())
    def test_matches_recursive_search(self, case):
        # a different summation order can break an exact-arithmetic tie the
        # other way, so the tree is checked by its own error
        povm, cands, n = case
        p_err, strat = optimal_adaptive(povm, cands, n)
        want_err, _ = oracles.optimal_adaptive(povm, cands, n)
        assert_rel(p_err, want_err)
        assert_rel(evaluate_strategy(povm, strat), p_err)

    def test_zero_weight_branches_choose_first_pair(self, basis_states):
        p_err, strat = optimal_adaptive(PROJECTIVE, basis_states, 2)
        assert p_err == 0.0
        # the root pair (0, 0) ties at zero error with (0, 1) and comes first;
        # it never yields outcome 1, so that branch has zero weight
        assert strat.choices == {(): (0, 0), (0,): (0, 1), (1,): (0, 0)}
        assert strat.choices == oracles.optimal_adaptive(PROJECTIVE, basis_states, 2)[1]

    def test_depth_three(self, diag_povm, basis_states):
        p_err, strat = optimal_adaptive(diag_povm, basis_states, 3)
        assert abs(p_err - 0.336) < 1e-12
        assert abs(evaluate_strategy(diag_povm, strat) - p_err) < 1e-15

    def test_depth_one(self, diag_povm, basis_states):
        p_err, _ = optimal_adaptive(diag_povm, basis_states, 1)
        assert abs(p_err - 0.4) < 1e-14

    def test_beats_best_product(self, diag_povm, basis_states):
        for n in (2, 3):
            adaptive_err, _ = optimal_adaptive(diag_povm, basis_states, n)
            log_err, _ = best_product_pair(diag_povm, n, basis_states)
            assert adaptive_err <= math.exp(log_err) + 1e-15

    def test_single_candidate_useless(self, diag_povm, basis_states):
        p_err, _ = optimal_adaptive(diag_povm, [basis_states[0]], 3)
        assert p_err == 0.5

    @pytest.mark.parametrize("n, want", [(4, 0.3152), (5, 0.29472)])
    def test_deeper_trees_match_recursive_search(self, diag_povm, basis_states, n, want):
        p_err, strat = optimal_adaptive(diag_povm, basis_states, n)
        want_err, _ = oracles.optimal_adaptive(diag_povm, basis_states, n)
        assert_rel(p_err, want_err)
        assert_rel(evaluate_strategy(diag_povm, strat), p_err)
        assert abs(p_err - want) < 1e-12

    def test_depth_cap(self, diag_povm, basis_states):
        # two candidates on two outcomes: the tree of 8^6 = 2^18 leaves is
        # built, the one of 8^7 = 2^21 is not, and the error is exact either
        # way; 10^9 levels are refused
        p_err, strat = optimal_adaptive(diag_povm, basis_states, 6)
        assert abs(p_err - 0.27872) < 1e-12 and strat.depth == 6
        p_err, strat = optimal_adaptive(diag_povm, basis_states, 7)
        assert strat is None
        assert_rel(p_err, oracles.dense_adaptive(diag_povm, basis_states, 7)[0])
        with pytest.raises(ResourceError, match="hull cap"):
            optimal_adaptive(diag_povm, basis_states, 10**9)

    def test_candidate_cap(self, diag_povm, basis_states):
        # 4 candidates at n = 4 make exactly 2^20 leaves, 5 candidates 50^4:
        # the tree goes, the error stays
        p_err, strat = optimal_adaptive(diag_povm, list(basis_states) * 2, 4)
        assert abs(p_err - 0.3152) < 1e-12 and strat is not None
        p_err, strat = optimal_adaptive(diag_povm, (list(basis_states) * 3)[:5], 4)
        assert abs(p_err - 0.3152) < 1e-12 and strat is None

    @pytest.mark.parametrize("count, m, n", [(1, 3, 2), (2, 2, 3), (3, 4, 2), (4, 2, 1), (2, 3, 3)])
    def test_budget_edge(self, monkeypatch, basis_states, count, m, n):
        # the tree is built exactly while (max(|C|, 2)^2 m)^n leaves fit the
        # dense cap; the error does not depend on it
        p = diag_elements(random_distribution(np.random.default_rng(m), m), np.full(m, 1.0 / m))
        cands = (list(basis_states) * 2)[:count]
        leaves = (max(count, 2) ** 2 * m) ** n
        monkeypatch.setattr(adaptive, "DENSE_CAP", leaves)
        p_err, strat = optimal_adaptive(p, cands, n)
        assert strat is not None
        monkeypatch.setattr(adaptive, "DENSE_CAP", leaves - 1)
        assert optimal_adaptive(p, cands, n) == (p_err, None)

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_hull_cap_edge(self, monkeypatch, basis_states, n):
        # the projective detector tells the basis pair apart in one use, so
        # L_0 has two vertices and every later level one: with two off-diagonal
        # pairs on two outcomes and two candidates, a level forms 6 points per
        # vertex and the pruning never runs (three points or fewer)
        visits = n * adaptive.LEVEL_VISITS + 6 * (n + 1)
        monkeypatch.setattr(adaptive, "HULL_CAP", visits)
        assert optimal_adaptive(PROJECTIVE, basis_states, n).hull_vertices == 1
        monkeypatch.setattr(adaptive, "HULL_CAP", visits - 1)
        with pytest.raises(ResourceError, match="hull cap"):
            optimal_adaptive(PROJECTIVE, basis_states, n)

    @given(case=feedback_cases())
    def test_chunked_levels_keep_the_hull(self, case):
        # pairs taken a few points at a time, each batch pruned as it comes,
        # leave the same hull as one batch of every point
        povm, cands, n = case
        whole = optimal_adaptive(povm, cands, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adaptive, "CHUNK_POINTS", 16)
            chunked = optimal_adaptive(povm, cands, n)
        assert_rel(chunked.p_err, whole.p_err)
        assert chunked.hull_vertices == whole.hull_vertices

    def test_deep_refusal_builds_no_level(self, monkeypatch, diag_povm, basis_states):
        def no_level(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(adaptive, "_hull_level", no_level)
        for n in (10**5, 10**9):
            with pytest.raises(ResourceError, match=f"depth {n} needs over"):
                optimal_adaptive(diag_povm, basis_states, n)

    @pytest.mark.parametrize("n", [3, 8])
    def test_result_survives_copy_and_pickle(self, diag_povm, basis_states, n):
        # n = 8 is past the tree's budget, so its strategy is None
        search = optimal_adaptive(diag_povm, basis_states, n)
        for got in (copy.copy(search), copy.deepcopy(search), pickle.loads(pickle.dumps(search))):
            assert type(got) is adaptive.AdaptiveSearch
            assert (got.p_err, got.hull_vertices) == (search.p_err, search.hull_vertices)
            if search.strategy is None:
                assert got.strategy is None
            else:
                assert got.strategy.choices == search.strategy.choices
                assert evaluate_strategy(diag_povm, got.strategy) == evaluate_strategy(diag_povm, search.strategy)

    def test_one_outcome_detector_refused(self, basis_states):
        with pytest.raises(DomainError, match="POVM must have at least 2 outcomes"):
            optimal_adaptive(Povm((np.eye(2, dtype=complex),)), basis_states, 2)

    @pytest.mark.parametrize("n, count", [(0, 2), (-1, 2), (3, 0), (5, 0), (0, 9), (10**9, 0)])
    def test_domain_refused_before_caps(self, basis_states, n, count):
        # depth 10^9 is beyond the hull cap, but a depth below 1 or no
        # candidate is no instance
        three = Povm(tuple(np.diag(e).astype(complex) for e in ([0.5, 0.2], [0.3, 0.3], [0.2, 0.5])))
        with pytest.raises(DomainError):
            optimal_adaptive(three, (list(basis_states) * 5)[:count], n)

    def test_matches_iid_ml_when_feedback_useless(self, basis_states):
        # symmetric detector: feedback cannot help, optimum equals i.i.d. ML
        p = Povm((np.diag([0.8, 0.2]).astype(complex), np.diag([0.2, 0.8]).astype(complex)))
        adaptive_err, _ = optimal_adaptive(p, basis_states, 3)
        d0 = sequence_distribution(p, ProductInput.iid(basis_states[0], 3))
        d1 = sequence_distribution(p, ProductInput.iid(basis_states[1], 3))
        iid_err, _ = ml_error_probability(d0, d1)
        assert abs(adaptive_err - iid_err) < 1e-12


class TestPaperInvariants:
    """Feedback can only help at finite n, and never beats the exact optimum:
    checked against the i.i.d. and product-pattern errors of the finite module."""

    @given(case=feedback_cases())
    def test_more_uses_never_hurt(self, case):
        povm, cands, n = case
        assert optimal_adaptive(povm, cands, n + 1).p_err <= optimal_adaptive(povm, cands, n).p_err * (1 + 1e-13)

    @given(case=feedback_cases())
    def test_beats_every_iid_pair(self, case):
        povm, cands, n = case
        p_err = optimal_adaptive(povm, cands, n).p_err
        rows = candidate_probs(povm, cands).probs
        for i, j in itertools.product(range(len(cands)), repeat=2):
            assert p_err <= math.exp(iid_ml_log_error(rows[i], rows[j], n)[0]) * (1 + 1e-13)

    @given(case=feedback_cases())
    def test_beats_best_product_pattern(self, case):
        # two candidates, so that every pattern's joint types fit the types cap
        povm, cands, n = case
        log_err, _ = best_product_pair(povm, n, cands[:2])
        assert optimal_adaptive(povm, cands[:2], n).p_err <= math.exp(log_err) * (1 + 1e-13)

    @given(
        log_eps=st.floats(5.0, 9.0),
        spread=st.floats(0.1, 0.9),
        m=st.integers(2, 3),
        n=st.integers(3, 5),
    )
    def test_near_deterministic_rows_match_dense_search(self, log_eps, spread, m, n):
        # the basis pair clicks its own outcome but for eps, shared by the rest
        eps = 10.0**-log_eps
        rest = np.r_[spread, 1 - spread][: m - 1] if m == 3 else np.ones(1)
        p = diag_elements(np.r_[1 - eps, eps * rest], np.r_[eps, (1 - eps) * rest])
        basis = [DensityMatrix(np.diag(e).astype(complex)) for e in ([1.0, 0.0], [0.0, 1.0])]
        p_err, strat = optimal_adaptive(p, basis, n)
        assert p_err < 1e-9
        assert_rel(p_err, oracles.dense_adaptive(p, basis, n)[0])
        assert_rel(evaluate_strategy(p, strat), p_err)


class TestCandidateDimension:
    """Every candidate-state consumer refuses states of another dimension than the POVM's."""

    QUTRIT = DensityMatrix(np.eye(3, dtype=complex) / 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, c: optimal_adaptive(p, [c], 2),
            lambda p, c: evaluate_strategy(p, AdaptiveStrategy(depth=1, candidates=(c,), choices={(): (0, 0)})),
            lambda p, c: best_product_pair(p, 2, [c, c]),
            lambda p, c: sequence_distribution(p, ProductInput.iid(c, 2)),
        ],
        ids=["optimal_adaptive", "evaluate_strategy", "best_product_pair", "sequence_distribution"],
    )
    def test_dimension_mismatch_refused(self, diag_povm, call):
        with pytest.raises(StructuralError, match="candidate state 0 has dimension 3, the POVM 2"):
            call(diag_povm, self.QUTRIT)

    def test_rows_are_the_induced_distributions(self):
        rng = np.random.default_rng(3)
        p, pool = random_povm(rng, 2, 3), candidate_pool(rng)
        rows = candidate_probs(p, pool).probs
        assert rows.shape == (len(pool), 3)
        assert all(row.tobytes() == induced_probs(p, c.mat).tobytes() for row, c in zip(rows, pool))
