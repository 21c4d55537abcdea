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
    ml_error_probability,
    optimal_adaptive,
    sequence_distribution,
)
from detpower.channel import candidate_probs, induced_probs
from conftest import candidate_pool, diag_detector, random_povm, rate_pairs
import oracles

# deepest tree per candidate count that keeps the recursive oracle under 6k leaves
MAX_ORACLE_DEPTH = {1: 4, 2: 4, 3: 3, 4: 2}


@st.composite
def two_outcome_cases(draw):
    """A two-outcome qubit detector (projective ones give zero-weight
    branches) and 1-4 candidates drawn with repeats from the computational
    basis and two random pure states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["projective", "diag", "random"]))
    if kind == "random":
        povm = random_povm(rng, 2, 2)
    else:
        povm = diag_detector(*((1.0, 0.0) if kind == "projective" else draw(rate_pairs())))
    pool = candidate_pool(rng)
    cands = [pool[k] for k in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))]
    n = draw(st.integers(1, MAX_ORACLE_DEPTH[len(cands)]))
    return povm, cands, n


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
        p_err, _ = best_product_pair(diag_povm, 3, basis_states)
        assert abs(evaluate_strategy(diag_povm, strat) - p_err) < 1e-12

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


class TestOptimal:
    @given(case=two_outcome_cases())
    def test_matches_recursive_search(self, case):
        povm, cands, n = case
        p_err, strat = optimal_adaptive(povm, cands, n)
        want_err, want_choices = oracles.optimal_adaptive(povm, cands, n)
        assert p_err == want_err
        assert list(strat.choices.items()) == list(want_choices.items())

    def test_zero_weight_branches_choose_first_pair(self, basis_states):
        proj = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        p_err, strat = optimal_adaptive(proj, basis_states, 2)
        assert p_err == 0.0
        # the root pair (0, 0) ties at zero error with (0, 1) and comes first;
        # it never yields outcome 1, so that branch has zero weight
        assert strat.choices == {(): (0, 0), (0,): (0, 1), (1,): (0, 0)}
        assert strat.choices == oracles.optimal_adaptive(proj, basis_states, 2)[1]

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
            product_err, _ = best_product_pair(diag_povm, n, basis_states)
            assert adaptive_err <= product_err + 1e-15

    def test_single_candidate_useless(self, diag_povm, basis_states):
        p_err, _ = optimal_adaptive(diag_povm, [basis_states[0]], 3)
        assert p_err == 0.5

    def test_depth_cap(self, diag_povm, basis_states):
        with pytest.raises(ResourceError):
            optimal_adaptive(diag_povm, basis_states, 5)

    def test_candidate_cap(self, diag_povm, basis_states):
        cands = list(basis_states) * 3
        with pytest.raises(ResourceError):
            optimal_adaptive(diag_povm, cands, 3)

    @pytest.mark.parametrize("n, count", [(0, 2), (-1, 2), (3, 0), (5, 0), (0, 9)])
    def test_domain_refused_before_caps(self, basis_states, n, count):
        # a three-outcome detector and, for count 9, too many candidates are
        # beyond the caps, but a depth below 1 or no candidate is no instance
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
