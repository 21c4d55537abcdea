import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detpower import (
    ClassicalDistribution,
    DensityMatrix,
    DomainError,
    Povm,
    StructuralError,
    chernoff_exponent,
    golden_section_min,
    hoeffding_exponent,
    induced_distribution,
    induced_probs,
    phi,
    relative_entropy,
    validate_povm,
)
from detpower import channel, core, evaluate_strategy, optimal_adaptive
from detpower import ProductInput, SequenceDistribution, iid_ml_log_error, ml_error_probability, sequence_distribution
from detpower.channel import (
    _INVPHI,
    NEG_CLAMP,
    SCREEN_MARGIN,
    SUM_TOL,
    candidate_probs,
    induced_sum_tol,
    _exponent_bounds,
    _pair_rows,
    _phi_evaluator,
    _support_blocks,
    chernoff_rows,
    relative_entropy_rows,
)
from conftest import random_density, random_distribution, random_povm, random_pure
import oracles


def dist(*vals):
    return ClassicalDistribution(np.array(vals, dtype=float))


@st.composite
def full_support_pairs(draw):
    """(P, Q) with 2-6 outcomes, weights drawn like conftest.random_distribution."""
    m = draw(st.integers(2, 6))
    weights = st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)
    p, q = np.array(draw(weights)), np.array(draw(weights))
    return p / p.sum(), q / q.sum()


@st.composite
def pairs_with_zeros(draw):
    """(P, Q) with 1-8 outcomes, exact zeros allowed, and a common support."""
    m = draw(st.integers(1, 8))
    weights = st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=m, max_size=m)
    p, q = np.array(draw(weights)), np.array(draw(weights))
    if not np.any((p > 0) & (q > 0)):
        p[0] = q[0] = 1.0
    return p / p.sum(), q / q.sum()


@st.composite
def row_pair(draw, m):
    """One row pair with m outcomes: full supports, exact zeros, or disjoint supports."""
    kind = draw(st.sampled_from(["full", "zeros", "disjoint"] if m > 1 else ["full", "zeros"]))
    if kind == "full":
        weights = st.lists(st.floats(1e-12, 1.0), min_size=m, max_size=m)
        p, q = np.array(draw(weights)), np.array(draw(weights))
    elif kind == "zeros":
        weights = st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=m, max_size=m)
        p, q = np.array(draw(weights)), np.array(draw(weights))
        p[0] += p.sum() == 0.0
        q[-1] += q.sum() == 0.0
    else:
        split = draw(st.integers(1, m - 1))
        p = np.array([1.0] * split + [0.0] * (m - split))
        q = 1.0 - p
    return p / p.sum(), q / q.sum()


@st.composite
def row_stacks(draw):
    """Two (L, m) stacks of distributions, m in 1-14 and L in 1-30."""
    m = draw(st.integers(1, 14))
    rows = draw(st.lists(row_pair(m), min_size=1, max_size=30))
    return np.array([p for p, _ in rows]), np.array([q for _, q in rows])


@st.composite
def solver_pairs(draw):
    """(P, Q) with 1-29 outcomes and a common support: independent weights with
    exact zeros, Q within 1e-9 relative of P, Q equal to P, or supports that
    share exactly one outcome."""
    m = draw(st.integers(1, 29))
    weights = st.lists(st.just(0.0) | st.floats(1e-9, 1.0), min_size=m, max_size=m)
    p = np.array(draw(weights))
    kind = draw(st.sampled_from(["independent", "near", "equal", "one shared"]))
    if kind == "independent":
        q = np.array(draw(weights))
    elif kind == "near":
        q = p * (1.0 + np.array(draw(st.lists(st.floats(-1e-9, 1e-9), min_size=m, max_size=m))))
    elif kind == "equal":
        q = p.copy()
    else:
        shared = draw(st.integers(0, m - 1))
        q = np.where(p > 0, 0.0, np.array(draw(weights)))
        p[shared] = q[shared] = 0.5
    if not np.any((p > 0) & (q > 0)):
        p[0] = q[0] = 1.0
    return p / p.sum(), q / q.sum()


def _hex(x):
    return None if x is None else float(x).hex()


# s at both ends, at golden_section_min's first two points on [0, 1], or anywhere
s_values = st.sampled_from([0.0, 1.0, 1.0 - _INVPHI, _INVPHI]) | st.floats(0.0, 1.0)



class TestInduced:
    def test_diag_basis_states(self, diag_povm, basis_states):
        rho0, rho1 = basis_states
        assert np.allclose(induced_probs(diag_povm, rho0.mat), [0.4, 0.6])
        assert np.allclose(induced_probs(diag_povm, rho1.mat), [0.2, 0.8])

    def test_maximally_mixed(self, diag_povm):
        p = induced_probs(diag_povm, np.eye(2) / 2)
        assert np.allclose(p, [0.3, 0.7])

    def test_random_normalized(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            povm = random_povm(rng, d, int(rng.integers(2, 6)))
            rho = random_density(rng, d)
            q = induced_distribution(povm, rho)
            assert abs(q.probs.sum() - 1.0) < 1e-9
            assert np.all(q.probs >= 0.0)


@st.composite
def edge_of_tolerances(draw):
    """(detector, states, deviation): a random detector (d in 1-4, m in 2-4)
    whose completeness residual R = sum_k E_k - I has every entry of size just
    under TOL_COMPLETE, aligned with a phase vector u so that its operator
    norm is d times that, and two states (1 + t)|v><v| with |t| just under
    TOL_TRACE, v = u first; deviation is the sum of the first state's row
    minus 1, up to round-off."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, m = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    c = draw(st.sampled_from([1.0, -1.0])) * core.TOL_COMPLETE * (1 - 1e-4)
    t = draw(st.sampled_from([1.0, -1.0])) * core.TOL_TRACE * (1 - 1e-4)
    u = np.exp(2j * np.pi * rng.uniform(size=d)) / np.sqrt(d)
    resid = c * d * np.outer(u, u.conj())
    p = Povm(tuple(e + resid / m for e in random_povm(rng, d, m).elements))
    v = random_pure(rng, d)
    states = [DensityMatrix((1 + t) * np.outer(x, x.conj())) for x in (u, v)]
    return p, states, (1 + t) * (1 + c * d) - 1


class TestSumTolerance:
    """Rows induced by a detector and states that pass validation, at the
    edge of TOL_COMPLETE and TOL_TRACE, are accepted everywhere."""

    @given(case=edge_of_tolerances())
    def test_edge_inputs_accepted(self, case):
        p, states, deviation = case
        assert validate_povm(p).valid
        row = induced_distribution(p, states[0]).probs
        assert abs(row.sum() - 1 - deviation) < 1e-14
        assert abs(deviation) <= induced_sum_tol(p.dim)
        assert candidate_probs(p, states).probs.shape == (2, p.n_outcomes)
        p_err, strat = optimal_adaptive(p, states, 2)
        assert 0.0 <= p_err <= 0.5 * (1 + induced_sum_tol(p.dim)) ** 2
        assert abs(evaluate_strategy(p, strat) - p_err) <= 1e-15
        # the dense n-fold products and the types agree on the same rows
        d0, d1 = (sequence_distribution(p, ProductInput.iid(s, 3)) for s in states)
        dense, _ = ml_error_probability(d0, d1)
        log_err, _ = iid_ml_log_error(*candidate_probs(p, states), 3)
        assert math.isclose(dense, math.exp(log_err), rel_tol=1e-12, abs_tol=1e-300)

    def test_the_bound_only_widens_and_still_refuses(self):
        assert all(induced_sum_tol(d) > SUM_TOL for d in range(1, 9))
        # a detector twice the residual bound off complete is still refused
        p = Povm((np.diag([0.4, 0.2]).astype(complex), np.diag([0.6, 0.8]).astype(complex) * (1 + 4 * induced_sum_tol(2))))
        with pytest.raises(DomainError, match="probabilities sum to"):
            induced_distribution(p, DensityMatrix(np.eye(2, dtype=complex) / 2))

    def test_rows_off_by_both_tolerances(self):
        # a valid detector and state whose row sums to 1 + 1.8e-9, which the
        # shared SUM_TOL of 1e-9 refused
        p = Povm((np.diag([0.4, 0.2]).astype(complex), np.diag([0.6 + 9e-10, 0.8 + 9e-10]).astype(complex)))
        cands = [DensityMatrix(np.diag(e).astype(complex)) for e in ([1 + 9e-10, 0], [0, 1 + 9e-10])]
        assert validate_povm(p).valid
        p_err, _ = optimal_adaptive(p, cands, 2)
        assert abs(p_err - 0.36000000136800003) < 1e-15
        # three uses sum to 1 + 5.4e-9, within 3 t (1 + 3 t) for t = induced_sum_tol(2)
        dist = sequence_distribution(p, ProductInput.iid(cands[0], 3))
        assert abs(dist.probs.sum() - (1 + 1.8e-9) ** 3) < 1e-15
        assert dist.sum_tol == 3 * induced_sum_tol(2) * (1 + 3 * induced_sum_tol(2))

    def test_given_sequences_keep_sum_tol(self):
        with pytest.raises(DomainError, match="probabilities sum to"):
            SequenceDistribution(2, 2, [0.25, 0.25, 0.25, 0.25 + 2 * SUM_TOL])


RAW_CHECKERS = {
    "ClassicalDistribution": lambda p: ClassicalDistribution(p),
    "chernoff_exponent": lambda p: chernoff_exponent(p, [0.2, 0.3, 0.5]),
    "relative_entropy": lambda p: relative_entropy([0.2, 0.3, 0.5], p),
    "hoeffding_exponent": lambda p: hoeffding_exponent(p, [0.2, 0.3, 0.5], 0.05),
}


@st.composite
def povm_and_states(draw):
    """A random POVM (d in 1-6, m in 1-14) and a (n, d, d) stack of C-ordered
    states, n in 1-8: pure, eigenvector projectors, diagonal or mixed."""
    d, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 14)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["pure", "eigenvectors", "diagonal", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_povm(rng, d, m)
    if kind == "diagonal":
        return p, np.array([np.diag(rng.dirichlet(np.ones(d))) for _ in range(n)], dtype=complex)
    if kind == "mixed":
        return p, np.array([random_density(rng, d).mat for _ in range(n)])
    if kind == "pure":
        v = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    else:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        v = np.linalg.eigh(g + g.conj().T)[1].T[np.arange(n) % d]
    return p, np.array([np.outer(x, x.conj()) for x in v])


class TestInducedStack:
    """A stack of states is converted in one call, row for row to the bit."""

    @given(case=povm_and_states())
    def test_rows_match_single_state_calls(self, case):
        p, states = case
        got = induced_probs(p, states)
        assert got.shape == (len(states), p.n_outcomes)
        for row, state in zip(got, states):
            assert row.tobytes() == induced_probs(p, state).tobytes()

    def test_higher_stack_dimensions(self):
        rng = np.random.default_rng(4)
        p = random_povm(rng, 3, 5)
        states = np.array([random_density(rng, 3).mat for _ in range(6)])
        got = induced_probs(p, states.reshape(2, 3, 3, 3))
        assert got.shape == (2, 3, 5)
        assert got.tobytes() == induced_probs(p, states).tobytes()


bad_rows = st.sampled_from(["nan", "inf", "negative", "sum"])


def _spoil(row, bad):
    row = row.copy()
    if bad in ("nan", "inf"):
        row[-1] = math.nan if bad == "nan" else math.inf
    elif bad == "negative":  # the mass moves to the last entry, so the sum still passes
        row[-1] += row[0] + 1e-9
        row[0] = -1e-9
    else:
        row *= 1.01
    return row


class TestCheckedRows:
    """A stack is checked row by row as oracles.checked_probs checks one
    distribution; the first failing row raises its error."""

    @given(
        stacks=row_stacks(),
        spoiled=st.lists(st.tuples(st.integers(0, 29), bad_rows), max_size=3),
        zeros=st.sampled_from([0.0, -1e-13, -NEG_CLAMP]),  # exact zeros, or tiny negatives clamped to 0
        halves=st.booleans(),
    )
    def test_same_checks_messages_and_clamp(self, stacks, spoiled, zeros, halves):
        probs = np.where(stacks[0] == 0.0, zeros, stacks[0])
        for where, bad in spoiled:
            probs[where % len(probs)] = _spoil(probs[where % len(probs)], bad)
        if halves and len(probs) % 2 == 0:  # an (L/2, 2, m) stack, rows still in C order
            probs = probs.reshape(-1, 2, probs.shape[-1])
        rows = probs.reshape(-1, probs.shape[-1])
        want = []
        for row in rows:
            try:
                want.append(oracles.checked_probs(row))
            except DomainError as exc:
                with pytest.raises(DomainError) as err:
                    ClassicalDistribution(probs)
                assert str(err.value) == str(exc)
                return
        dist = ClassicalDistribution(probs)
        assert dist.probs.shape == probs.shape
        got = [dist[np.unravel_index(k, probs.shape[:-1])].probs for k in range(len(rows))]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @given(stacks=row_stacks())
    def test_one_row_is_the_one_distribution(self, stacks):
        for row in stacks[0]:
            assert ClassicalDistribution(row).probs.tobytes() == oracles.checked_probs(row).tobytes()

    def test_rows_are_not_checked_again(self, monkeypatch):
        dist = ClassicalDistribution(np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]))
        calls = []
        check = ClassicalDistribution.__post_init__
        monkeypatch.setattr(ClassicalDistribution, "__post_init__", lambda self: calls.append(check(self)))
        rows = [dist[1], dist[np.int64(2)], dist[[2, 0]], dist[np.array([True, False, True])], dist[1:]]
        assert calls == []
        assert [r.probs.tolist() for r in rows] == [
            [1.0, 0.0],
            [0.25, 0.75],
            [[0.25, 0.75], [0.5, 0.5]],
            [[0.5, 0.5], [0.25, 0.75]],
            [[1.0, 0.0], [0.25, 0.75]],
        ]
        assert all(isinstance(r, ClassicalDistribution) and not r.probs.flags.writeable for r in rows)
        assert [r.probs.tolist() for r in dist] == dist.probs.tolist()  # iteration walks the rows

    def test_indexing_stays_on_the_stack_axes(self):
        dist = ClassicalDistribution(np.full((2, 2), 0.5))
        with pytest.raises(IndexError):
            dist[0, 1]  # the outcome axis is not a row
        with pytest.raises(TypeError):
            dist[0][0]  # a single distribution has no rows
        with pytest.raises(TypeError):
            list(ClassicalDistribution([0.5, 0.5]))

    @pytest.mark.parametrize(
        "pair",
        [chernoff_exponent, relative_entropy, lambda p, q: hoeffding_exponent(p, q, 0.05), lambda p, q: phi(0.5, p, q)],
        ids=["chernoff_exponent", "relative_entropy", "hoeffding_exponent", "phi"],
    )
    def test_pair_functions_refuse_a_stack(self, pair):
        stack = ClassicalDistribution(np.full((2, 3), 1 / 3))
        with pytest.raises(StructuralError):
            pair(stack, stack)


BAD_ROWS = [
    [np.nan, 0.5, 0.5],
    [np.inf, 0.5, 0.5],
    [-np.inf, 0.5, 0.5],
    [-2e-12, 0.5, 0.5 + 2e-12],
    [0.2, 0.3, 0.5 + 2e-9],
    [0.2, 0.3, 0.5 - 2e-9],
]


class TestValidation:
    @pytest.mark.parametrize("checker", RAW_CHECKERS)
    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_rejects_raw_array(self, checker, bad):
        with pytest.raises(DomainError):
            RAW_CHECKERS[checker](np.array(bad))

    def test_tiny_negative_clipped(self):
        raw = np.array([-1e-13, 0.5, 0.5 + 1e-13])
        clean = np.array([0.0, 0.5, 0.5 + 1e-13])
        assert ClassicalDistribution(raw).probs[0] == 0.0
        q = [0.2, 0.3, 0.5]
        assert chernoff_exponent(raw, q) == chernoff_exponent(clean, q)
        assert relative_entropy(q, raw) == relative_entropy(q, clean)
        assert hoeffding_exponent(raw, q, 0.05) == hoeffding_exponent(clean, q, 0.05)

    def test_probs_read_only_copy(self):
        raw = np.array([[0.25, 0.75]])
        d = ClassicalDistribution(raw)
        assert not d.probs.flags.writeable
        with pytest.raises(ValueError):
            d.probs[0] = 0.5
        assert raw.flags.writeable
        raw[0, 0] = 0.5
        assert d.probs[0, 0] == 0.25


class TestPhi:
    def test_equal_distributions_zero(self):
        p = dist(0.3, 0.7)
        for s in (0.0, 0.25, 0.5, 1.0):
            assert abs(phi(s, p, p)) < 1e-14

    def test_disjoint_supports(self):
        assert phi(0.5, dist(1.0, 0.0), dist(0.0, 1.0)) == -np.inf

    def test_direct_oracle(self, diag_povm):
        p, q = dist(0.4, 0.6), dist(0.2, 0.8)
        for s in (0.1, 0.5, 0.9):
            ref = np.log(np.sum(p.probs**s * q.probs ** (1 - s)))
            assert abs(phi(s, p, q) - ref) < 1e-14

    def test_convex_in_s(self):
        rng = np.random.default_rng(22)
        grid = np.linspace(0.0, 1.0, 41)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            p = ClassicalDistribution(random_distribution(rng, m))
            q = ClassicalDistribution(random_distribution(rng, m))
            vals = np.array([phi(s, p, q) for s in grid])
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(second >= -1e-10)

    def test_nonpositive(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = ClassicalDistribution(random_distribution(rng, 4))
            q = ClassicalDistribution(random_distribution(rng, 4))
            s = rng.uniform(0.0, 1.0)
            assert phi(s, p, q) <= 1e-15

    @given(pair=pairs_with_zeros(), ss=st.lists(s_values, min_size=1, max_size=6))
    def test_buffered_evaluator_matches_one_line_closure(self, pair, ss):
        # one closure called over ss and back again: its scratch buffers carry
        # nothing from one call to the next, and every float is the oracle's
        p, q = pair
        f, ref = _phi_evaluator(p, q), oracles.phi_closure(p, q)
        calls = ss + ss[::-1]
        assert [f(s).hex() for s in calls] == [ref(s).hex() for s in calls]


class TestChernoff:
    def test_equal_is_zero(self):
        p = dist(0.3, 0.7)
        val = chernoff_exponent(p, p)
        assert val.value == 0.0

    def test_diag_value(self):
        # frozen oracle: dense minimization of phi over s for (0.4,0.6) vs (0.2,0.8)
        val = chernoff_exponent(dist(0.4, 0.6), dist(0.2, 0.8))
        assert abs(val.value - 0.024666131263401) < 1e-12
        assert 0.0 < val.optimizer_s < 1.0

    def test_dense_grid_oracle(self):
        rng = np.random.default_rng(24)
        grid = np.linspace(0.0, 1.0, 20001)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            p = ClassicalDistribution(random_distribution(rng, m))
            q = ClassicalDistribution(random_distribution(rng, m))
            ref = -min(phi(s, p, q) for s in grid)
            val = chernoff_exponent(p, q)
            assert abs(val.value - ref) < 1e-8

    def test_swap_symmetry(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            p = ClassicalDistribution(random_distribution(rng, 4))
            q = ClassicalDistribution(random_distribution(rng, 4))
            a = chernoff_exponent(p, q).value
            b = chernoff_exponent(q, p).value
            assert abs(a - b) < 1e-10

    def test_at_most_stein(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            p = ClassicalDistribution(random_distribution(rng, 5))
            q = ClassicalDistribution(random_distribution(rng, 5))
            cb = chernoff_exponent(p, q).value
            assert cb <= relative_entropy(p, q) + 1e-12
            assert cb <= relative_entropy(q, p) + 1e-12

    def test_disjoint_infinite(self):
        val = chernoff_exponent(dist(1.0, 0.0), dist(0.0, 1.0))
        assert val.infinite


class TestPrefetchedSolve:
    """_chernoff_solve reads the golden section's predicted probes from one
    stacked phi call, and its floats are those of the golden section over the
    one-line closure alone (oracles.chernoff_golden), whatever the guess."""

    @given(pair=solver_pairs(), ss=st.lists(s_values, max_size=6), guess=st.floats(0.0, 1.0))
    def test_stacked_rows_match_the_closures(self, pair, ss, guess):
        # from 8 entries add.reduce sums in 8 lanes; the rows must sum like the 1-D calls
        p, q = pair
        ss = ss + channel._golden_probes(guess, 1e-12)
        f, ref = _phi_evaluator(p, q), oracles.phi_closure(p, q)
        got = channel._phi_stacked(np.array(ss), channel._support_logs(p, q))
        assert [v.hex() for v in got] == [f(s).hex() for s in ss] == [ref(s).hex() for s in ss]

    @pytest.mark.parametrize("guess", [None, 0.0, 1.0, 0.5, math.nan], ids=str)
    @given(pair=solver_pairs())
    def test_solve_matches_plain_golden_section(self, guess, pair):
        with pytest.MonkeyPatch.context() as mp:
            if guess is not None:
                mp.setattr(channel, "_chernoff_guess", lambda lp, lq, xtol: guess)
            got = channel._chernoff_solve(*pair)
        assert [x.hex() for x in got] == [x.hex() for x in oracles.chernoff_golden(*pair)]

    @pytest.mark.parametrize("guess", [None, 0.0, math.nan], ids=str)
    @given(stacks=row_stacks())
    def test_rows_match_plain_golden_section(self, guess, stacks):
        with pytest.MonkeyPatch.context() as mp:
            if guess is not None:
                mp.setattr(channel, "_chernoff_guess", lambda lp, lq, xtol: guess)
            values, s = chernoff_rows(*stacks)
        for p, q, v, x in zip(*stacks, values, s):
            if np.any((p > 0) & (q > 0)):
                assert (v.hex(), x.hex()) == tuple(y.hex() for y in oracles.chernoff_golden(p, q))

    def test_guess_saves_most_scalar_calls(self, monkeypatch):
        def counted(make, calls):
            def build(p, q):
                f = make(p, q)
                return lambda s: calls.append(s) or f(s)

            return build

        # a well-conditioned pair: the plain solve evaluates phi 60 times
        p, q = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.45, 0.25, 0.2, 0.1])
        plain, scalar = [], []
        monkeypatch.setattr(oracles, "phi_closure", counted(oracles.phi_closure, plain))
        monkeypatch.setattr(channel, "_phi_evaluator", counted(channel._phi_evaluator, scalar))
        assert channel._chernoff_solve(p, q) == oracles.chernoff_golden(p, q)
        assert len(plain) == 60 and len(scalar) < len(plain) / 2


class TestRowForms:
    """One call scores every row pair of two stacks, with the per-pair floats."""

    @given(stacks=row_stacks())
    def test_chernoff_rows_match_per_pair(self, stacks):
        values, s = chernoff_rows(*stacks)
        want = [chernoff_exponent(p, q) for p, q in zip(*stacks)]
        assert [(_hex(v), _hex(None if math.isnan(x) else x)) for v, x in zip(values, s)] == [
            (_hex(e.value), _hex(e.optimizer_s)) for e in want
        ]

    @given(stacks=row_stacks())
    def test_relative_entropy_rows_match_per_pair(self, stacks):
        got = relative_entropy_rows(*stacks)
        assert [_hex(v) for v in got] == [_hex(relative_entropy(p, q)) for p, q in zip(*stacks)]

    def test_disjoint_row_is_infinite(self):
        values, s = chernoff_rows([[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]])
        assert math.isinf(values[0]) and math.isnan(s[0])  # NaN stands for optimizer_s None
        want = chernoff_exponent([0.5, 0.5], [0.5, 0.5])
        assert (_hex(values[1]), _hex(s[1])) == (_hex(want.value), _hex(want.optimizer_s))
        assert values[1] == 0.0
        assert relative_entropy_rows([[0.5, 0.5]], [[1.0, 0.0]]).tolist() == [math.inf]

    @pytest.mark.parametrize(
        "rows", [chernoff_rows, relative_entropy_rows, _pair_rows(chernoff_exponent)], ids=["chernoff", "stein", "pair"]
    )
    def test_checked_stacks_are_not_checked_again(self, monkeypatch, rows):
        # rows with zero entries are scored in blocks cut from the checked stacks
        P = ClassicalDistribution([[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]])
        Q = ClassicalDistribution([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
        checks = []
        check = ClassicalDistribution.__post_init__
        monkeypatch.setattr(ClassicalDistribution, "__post_init__", lambda self: checks.append(check(self)))
        rows(P, Q)
        assert checks == []

    @pytest.mark.parametrize("rows", [chernoff_rows, relative_entropy_rows])
    @pytest.mark.parametrize("bad", BAD_ROWS + [[0.7, 0.7, 0.0]])
    def test_raw_rows_checked_as_the_pair_functions_check(self, rows, bad):
        pair = chernoff_exponent if rows is chernoff_rows else relative_entropy
        good = [0.2, 0.3, 0.5]
        for p, q in (([good, bad], [good, good]), ([good, good], [good, bad])):
            with pytest.raises(DomainError) as want:
                pair(p[1], q[1])
            with pytest.raises(DomainError) as err:
                rows(np.array(p), np.array(q))
            assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("rows", [chernoff_rows, relative_entropy_rows])
    def test_stacks_of_different_shapes_refused(self, rows):
        with pytest.raises(StructuralError):
            rows(np.full((2, 3), 1 / 3), np.full((2, 2), 0.5))
        with pytest.raises(StructuralError):
            rows([0.5, 0.5], [0.5, 0.5])


@st.composite
def screen_row(draw, m):
    """One row pair with m >= 2 outcomes: random, near-equal, strongly skewed
    (P on the first outcome, Q on the last), with tiny entries, with exact
    zero entries, or with disjoint supports."""
    kind = draw(st.sampled_from(["random", "near_equal", "skewed", "tiny", "zeros", "disjoint"]))
    weights = st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)
    p, q = np.array(draw(weights)), np.array(draw(weights))
    if kind == "near_equal":
        q = p * (1.0 + np.array(draw(st.lists(st.floats(-1e-6, 1e-6), min_size=m, max_size=m))))
    elif kind == "skewed":
        p[1:] *= 1e-9
        q[:-1] *= 1e-9
    elif kind == "tiny":
        p *= 10.0 ** np.array(draw(st.lists(st.integers(-300, 0), min_size=m, max_size=m)))
        q *= 10.0 ** np.array(draw(st.lists(st.integers(-300, 0), min_size=m, max_size=m)))
    elif kind == "zeros":
        p *= np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        q *= np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        p[0] += p.sum() == 0.0
        q[-1] += q.sum() == 0.0
    elif kind == "disjoint":
        split = draw(st.integers(1, m - 1))
        p[split:] = 0.0
        q[:split] = 0.0
    return p / p.sum(), q / q.sum()


@st.composite
def screen_stacks(draw):
    """Two checked (L, m) stacks of screen_row pairs, m in 2-12 and L in 1-24,
    the rows repeated once (ties) or not."""
    m = draw(st.integers(2, 12))
    rows = draw(st.lists(screen_row(m), min_size=1, max_size=24))
    rows += rows if draw(st.booleans()) else []
    return tuple(ClassicalDistribution(np.array([pair[k] for pair in rows])) for k in (0, 1))


class TestChernoffScreen:
    """chernoff_rows(P, Q, floor) drops only rows that cannot reach the
    largest value or the floor, and keeps the floats of the rows it scores."""

    @given(stacks=screen_stacks())
    def test_bounds_bracket_the_value(self, stacks):
        # the screen bounds each support-size block's rows; a disjoint row's bound is its inf
        P, Q = stacks
        values, _ = chernoff_rows(P, Q)
        *_, sizes, blocks = _support_blocks(P, Q)
        assert np.all(values[sizes == 0] == math.inf)
        for rows, pb, qb in blocks:
            lp, lq = np.log(pb), np.log(qb)
            lo, hi, _ = _exponent_bounds(lp, lq, -math.inf)
            # values are clamped at 0; round-off grows with |log P_k|, at most 745
            tol = 64 * np.finfo(float).eps * (1.0 + np.maximum(abs(lp), abs(lq)).max(axis=1))
            assert np.all(lo <= values[rows] + tol)
            assert np.all(values[rows] <= np.maximum(hi, 0.0) + tol)

    @given(stacks=screen_stacks(), where=st.sampled_from(["-inf", "zero", "row", "above"]), k=st.integers(0, 47))
    def test_screen_keeps_the_first_maximum_and_its_floats(self, stacks, where, k):
        P, Q = stacks
        plain, plain_s = chernoff_rows(P, Q)
        floor = {"-inf": -math.inf, "zero": 0.0, "row": plain[k % len(plain)], "above": plain.max() + 1.0}[where]
        values, s = chernoff_rows(P, Q, floor)
        kept = values != -math.inf
        assert values[kept].tobytes() == plain[kept].tobytes() and s[kept].tobytes() == plain_s[kept].tobytes()
        assert np.isnan(s[~kept]).all()
        # a dropped row lies below the floor or the largest value by more than
        # round-off, and below any disjoint row's inf
        ref = max(floor, plain.max())
        assert np.all(plain[~kept] < ref - (SCREEN_MARGIN * max(1.0, abs(ref)) / 2 if math.isfinite(ref) else 0.0))
        if plain.max() > floor:
            assert np.argmax(values) == np.argmax(plain)

    @given(stacks=screen_stacks())
    def test_floor_above_every_row_drops_them_all(self, stacks):
        # no floor lies above a disjoint row's inf, so those rows stay
        P, Q = stacks
        plain = chernoff_rows(P, Q)[0]
        finite = np.isfinite(plain)
        for floor in (np.max(plain[finite], initial=0.0) + 1.0, math.inf):
            values, s = chernoff_rows(P, Q, floor)
            assert np.all(values[finite] == -math.inf) and np.all(values[~finite] == math.inf)
            assert np.isnan(s).all()

    def test_zero_entry_rows_are_scored_and_set_the_cut(self):
        # disjoint supports give inf, so every zero-free row is dropped
        values, s = chernoff_rows([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]], [[0.0, 1.0], [0.5, 0.5], [0.7, 0.3]], -math.inf)
        assert values[0] == math.inf and math.isnan(s[0])
        assert values[1:].tolist() == [-math.inf, -math.inf]

    def test_empty_stack(self):
        for floor in (None, -math.inf):
            values, s = chernoff_rows(np.empty((0, 3)), np.empty((0, 3)), floor)
            assert values.shape == s.shape == (0,)

    @pytest.mark.parametrize("where", ["none", "-inf", "row", "above"])
    def test_each_scored_row_is_one_golden_section(self, monkeypatch, where):
        rng = np.random.default_rng(11)
        rows = [random_distribution(rng, 4) for _ in range(12)]
        p, q = np.array(rows[:6] + [[0.5, 0.5, 0.0, 0.0]]), np.array(rows[6:] + [[0.0, 0.5, 0.5, 0.0]])
        plain = chernoff_rows(p, q)[0]
        floor = {"none": None, "-inf": -math.inf, "row": plain[2], "above": plain.max() + 1.0}[where]
        calls = []
        solve = channel.golden_section_min
        monkeypatch.setattr(channel, "golden_section_min", lambda *args, **kw: calls.append(1) or solve(*args, **kw))
        values, _ = chernoff_rows(p, q, floor)
        assert len(calls) == np.isfinite(values).sum()


class TestRelativeEntropy:
    def test_diag_value(self):
        d = relative_entropy(dist(0.4, 0.6), dist(0.2, 0.8))
        assert abs(d - 0.10464962875290948) < 1e-12

    def test_binary_closed_form(self):
        p, q = 0.35, 0.6
        ref = p * np.log(p / q) + (1 - p) * np.log((1 - p) / (1 - q))
        assert abs(relative_entropy(dist(p, 1 - p), dist(q, 1 - q)) - ref) < 1e-14

    def test_support_mismatch(self):
        assert relative_entropy(dist(0.5, 0.5), dist(1.0, 0.0)) == np.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            p = ClassicalDistribution(random_distribution(rng, 3))
            q = ClassicalDistribution(random_distribution(rng, 3))
            assert relative_entropy(p, q) >= 0.0


class TestHoeffding:
    def test_rate_zero_is_stein(self):
        p, q = dist(0.4, 0.6), dist(0.2, 0.8)
        val = hoeffding_exponent(p, q, 0.0)
        assert abs(val.value - relative_entropy(p, q)) < 1e-12

    def test_monotone_in_rate(self):
        p, q = dist(0.4, 0.6), dist(0.2, 0.8)
        rates = np.linspace(0.0, 0.12, 13)
        vals = [hoeffding_exponent(p, q, r).value for r in rates]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10

    def test_large_rate_zero(self):
        # asking for a back-off rate above max achievable forces the exponent to 0
        val = hoeffding_exponent(dist(0.4, 0.6), dist(0.2, 0.8), 5.0)
        assert val.value == 0.0

    @given(pair=full_support_pairs(), r=st.floats(1e-3, 0.2))
    def test_dense_grid_oracle(self, pair, r):
        # r >= 1e-3 keeps the optimal s well below the grid's end at 0.999999
        p, q = pair
        s_grid = np.linspace(0.0, 0.999999, 50001)
        logs = np.outer(s_grid, np.log(p)) + np.outer(1.0 - s_grid, np.log(q))
        phis = np.log(np.exp(logs).sum(axis=1))
        ref = max(float(np.max((-s_grid * r - phis) / (1.0 - s_grid))), 0.0)
        val = hoeffding_exponent(p, q, r).value
        assert abs(val - ref) < 1e-6

    @given(pair=full_support_pairs(), r=st.floats(0.0, 2.0), dr=st.floats(1e-9, 2.0))
    def test_between_stein_and_larger_rate(self, pair, r, dr):
        p, q = pair
        a = hoeffding_exponent(p, q, r).value
        b = hoeffding_exponent(p, q, r + dr).value
        assert relative_entropy(p, q) + 1e-10 >= a >= b - 1e-10

    @given(pair=full_support_pairs(), extra=st.floats(0.0, 1.0))
    def test_zero_from_reverse_divergence(self, pair, extra):
        # a type-I rate of at least D(Q||P) leaves no type-II exponent
        p, q = pair
        assert hoeffding_exponent(p, q, relative_entropy(q, p) + extra).value <= 1e-15

    def test_support_escape_infinite(self):
        # supp P is not in supp Q and phi(1) = log 0.5, so every r < log 2 diverges
        val = hoeffding_exponent([0.5, 0.5], [1.0, 0.0], 0.05)
        assert val.infinite
        assert val.optimizer_s == 1.0

    def test_support_escape_large_rate_zero(self):
        # r above D(Q||P) = log 2 gives 0 on the same pair
        assert hoeffding_exponent([0.5, 0.5], [1.0, 0.0], 0.8).value == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            hoeffding_exponent(dist(0.4, 0.6), dist(0.2, 0.8), -0.1)

    def test_nan_rate_rejected(self):
        with pytest.raises(DomainError):
            hoeffding_exponent(dist(0.4, 0.6), dist(0.2, 0.8), float("nan"))

    def test_infinite_rate_zero(self):
        assert hoeffding_exponent(dist(0.4, 0.6), dist(0.2, 0.8), math.inf).value == 0.0
        assert hoeffding_exponent([0.5, 0.5], [1.0, 0.0], math.inf).value == 0.0


class TestGolden:
    def test_quadratic(self):
        x, f = golden_section_min(lambda t: (t - 0.3) ** 2 + 1.0, 0.0, 1.0, 1e-12)
        assert abs(x - 0.3) < 1e-7
        assert abs(f - 1.0) < 1e-14

    def test_boundary_minimum(self):
        x, _ = golden_section_min(lambda t: t, 0.0, 1.0, 1e-12)
        assert x < 1e-9
