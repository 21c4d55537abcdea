import itertools
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detpower import (
    DensityMatrix,
    DomainError,
    Povm,
    ProductInput,
    ResourceError,
    SequenceDistribution,
    StructuralError,
    best_product_pair,
    brute_force_grouping,
    eig_hermitian,
    empirical_rate,
    iid_ml_log_error,
    ml_error_probability,
    sequence_distribution,
    sweep_x,
)
from detpower import finite
from detpower.channel import candidate_probs, induced_probs
from detpower.io import load_json_file, povm_from_json
from detpower.finite import (
    DENSE_CAP,
    TYPES_CAP,
    _block_log_err,
    _log_factorials,
    _logsumexp,
    _types_log_error,
    _xlogy,
)
from conftest import (
    assert_log_count,
    candidate_pool,
    diag_detector,
    random_distribution,
    random_povm,
    random_pure,
    rate_pairs,
)
import oracles

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


@st.composite
def detector_and_pool(draw):
    """A qubit detector with 2 or 3 outcomes and the candidate pool."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        povm = diag_detector(*draw(rate_pairs()))
    else:
        povm = random_povm(rng, 2, draw(st.integers(2, 3)))
    return povm, candidate_pool(rng)


@st.composite
def iid_case(draw):
    """A random detector with d = 2-3 and m = 2-4 outcomes, an n with
    m^n <= 4096, and a pure pair: the extreme eigenvectors of the first
    element (the CLI's ML pair) or two random states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, m = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 12, 3: 7, 4: 6}[m]))
    povm = random_povm(rng, d, m)
    if draw(st.booleans()):
        _, evecs = eig_hermitian(povm.elements[0])
        vs = evecs[:, 0], evecs[:, -1]
    else:
        vs = random_pure(rng, d), random_pure(rng, d)
    return povm, [DensityMatrix(np.outer(v, v.conj())) for v in vs], n


@st.composite
def sparse_distribution(draw, m):
    """A distribution over m outcomes whose entries are often exactly 0."""
    w = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m, max_size=m))
    w = np.array(w)
    if w.sum() == 0.0:
        w[draw(st.integers(0, m - 1))] = 1.0
    return w / w.sum()


def close(a, b, rel=1e-12):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def two_outcome_rows(pp, qq):
    """The (click, no click) rows of click rates pp and qq."""
    return (pp, 1 - pp), (qq, 1 - qq)


def dense_ml_error(p, q, n):
    """ml_error_probability of P^n and Q^n from their kron products."""
    dists = []
    for row in (p, q):
        probs = np.array([1.0])
        for _ in range(n):
            probs = np.kron(probs, row)
        dists.append(SequenceDistribution(len(row), n, probs))
    return ml_error_probability(*dists)[0]


def iid_dists(povm, n, basis_states):
    rho0, rho1 = basis_states
    d0 = sequence_distribution(povm, ProductInput.iid(rho0, n))
    d1 = sequence_distribution(povm, ProductInput.iid(rho1, n))
    return d0, d1


class TestSequenceDistribution:
    def test_triple(self, diag_povm, basis_states):
        rho0, _ = basis_states
        dist = sequence_distribution(diag_povm, ProductInput.iid(rho0, 3))
        assert len(dist.probs) == 8
        assert abs(dist.probs[0] - 0.4**3) < 1e-14  # sequence (0,0,0)
        assert abs(dist.probs[-1] - 0.6**3) < 1e-14  # sequence (1,1,1)
        assert abs(dist.probs.sum() - 1.0) < 1e-12
        assert dist.sequence(0) == (0, 0, 0)
        assert dist.sequence(7) == (1, 1, 1)

    def test_first_slot_most_significant(self, diag_povm, basis_states):
        rho0, rho1 = basis_states
        dist = sequence_distribution(
            diag_povm, ProductInput((rho0, rho1))
        )
        # index 1 = sequence (0,1): P(0|rho0) * P(1|rho1)
        assert abs(dist.probs[1] - 0.4 * 0.8) < 1e-14
        assert abs(dist.probs[2] - 0.6 * 0.2) < 1e-14

    def test_matches_direct_product(self):
        rng = np.random.default_rng(41)
        p = random_povm(rng, 2, 3)
        v = random_pure(rng, 2)
        rho = DensityMatrix(np.outer(v, v.conj()))
        dist = sequence_distribution(p, ProductInput.iid(rho, 2))
        single = induced_probs(p, rho.mat)
        assert np.allclose(dist.probs, np.kron(single, single))

    def test_cap(self, diag_povm, basis_states):
        with pytest.raises(ResourceError):
            sequence_distribution(diag_povm, ProductInput.iid(basis_states[0], 21))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("m, probs", [(2, [None, 1.0]), (4, [0.5, None, 0.5, 0.0])])
    def test_non_finite(self, m, probs, bad):
        with pytest.raises(DomainError, match="non-finite"):
            SequenceDistribution(m, 1, [bad if v is None else v for v in probs])


class TestML:
    def test_iid_three_uses(self, diag_povm, basis_states):
        d0, d1 = iid_dists(diag_povm, 3, basis_states)
        p_err, mask = ml_error_probability(d0, d1)
        assert abs(p_err - 0.352) < 1e-12
        # accept-H0 set: sequences where 0.4^a 0.6^b >= 0.2^a 0.8^b, i.e. all-0s..
        assert mask.accept[0]

    def test_equal_distributions(self, diag_povm, basis_states):
        rho0, _ = basis_states
        d = sequence_distribution(diag_povm, ProductInput.iid(rho0, 2))
        p_err, mask = ml_error_probability(d, d)
        assert p_err == 0.5
        # ties resolve to H0: every sequence accepted
        assert mask.accept.all()

    def test_single_use(self, diag_povm, basis_states):
        d0, d1 = iid_dists(diag_povm, 1, basis_states)
        p_err, _ = ml_error_probability(d0, d1)
        assert abs(p_err - 0.4) < 1e-14

    def test_monotone_in_n(self, diag_povm, basis_states):
        vals = []
        for n in range(1, 7):
            d0, d1 = iid_dists(diag_povm, n, basis_states)
            vals.append(ml_error_probability(d0, d1)[0])
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


class TestBruteForce:
    def test_matches_ml_exactly(self, basis_states):
        # the ML grouping must be the exact optimum over all partitions,
        # with bitwise-identical error probability
        rng = np.random.default_rng(42)
        for _ in range(40):
            m = int(rng.integers(2, 4))
            n = 2 if m == 3 else int(rng.integers(2, 5))
            p = random_povm(rng, 2, m)
            v0, v1 = random_pure(rng, 2), random_pure(rng, 2)
            d0 = sequence_distribution(
                p, ProductInput.iid(DensityMatrix(np.outer(v0, v0.conj())), n)
            )
            d1 = sequence_distribution(
                p, ProductInput.iid(DensityMatrix(np.outer(v1, v1.conj())), n)
            )
            ml_err, ml_mask = ml_error_probability(d0, d1)
            bf_err, bf_mask = brute_force_grouping(d0, d1)
            assert bf_err == ml_err
            # each mask scores its own p_err exactly
            for p_err, mask in ((ml_err, ml_mask), (bf_err, bf_mask)):
                assert 0.5 * np.sum(np.where(mask.accept, d1.probs, d0.probs)) == p_err

    def test_grouping_is_optimal(self, diag_povm, basis_states):
        d0, d1 = iid_dists(diag_povm, 3, basis_states)
        p_err, mask = brute_force_grouping(d0, d1)
        assert abs(p_err - 0.352) < 1e-12
        ml_err, ml_mask = ml_error_probability(d0, d1)
        for err, grouping in ((p_err, mask), (ml_err, ml_mask)):
            assert 0.5 * np.sum(np.where(grouping.accept, d1.probs, d0.probs)) == err
        # exhaustive check of the returned grouping against every partition
        best = min(
            0.5
            * float(
                np.sum(np.where(np.array(bits, dtype=bool), d1.probs, d0.probs))
            )
            for bits in itertools.product((0, 1), repeat=8)
        )
        assert abs(p_err - best) < 1e-15

    def test_cap(self, diag_povm, basis_states):
        d0, d1 = iid_dists(diag_povm, 5, basis_states)
        with pytest.raises(ResourceError):
            brute_force_grouping(d0, d1)

    def test_cap_is_the_dense_cap(self):
        # 2^20 partitions of 20 sequences fill DENSE_CAP; 21 sequences exceed it
        for m in (20, 21):
            p0 = SequenceDistribution(m, 1, np.full(m, 1 / m))
            p1 = SequenceDistribution(m, 1, np.eye(m)[0])
            if m == 20:
                assert 2**m == DENSE_CAP
                assert brute_force_grouping(p0, p1)[0] == ml_error_probability(p0, p1)[0]
            else:
                with pytest.raises(ResourceError, match="exceed the dense cap"):
                    brute_force_grouping(p0, p1)


    @staticmethod
    def assert_selects_as_full_sort(p0, p1):
        want_err, want_accept = oracles.brute_force_full_sort(p0, p1)
        p_err, mask = brute_force_grouping(p0, p1)
        assert p_err.hex() == want_err.hex()
        assert np.array_equal(mask.accept, want_accept)

    def test_bundled_detector_selects_as_full_sort(self):
        povm = povm_from_json(load_json_file(os.path.join(DATA, "povm_commuting.json")))
        p0, p1 = (sequence_distribution(povm, ProductInput.iid(rho, 4)) for rho in finite.extreme_pair(povm))
        assert len(np.unique(oracles.partition_scores(p0, p1))) == 770  # of 2^16
        self.assert_selects_as_full_sort(p0, p1)

    @pytest.mark.parametrize("nseq", [2, 5, 16])
    def test_equal_rows_select_as_full_sort(self, nseq):
        # every partition scores 0, so every one ties with the fourth-best
        probs = random_distribution(np.random.default_rng(nseq), nseq)
        p0, p1 = SequenceDistribution(nseq, 1, probs), SequenceDistribution(nseq, 1, probs)
        assert not oracles.partition_scores(p0, p1).any()
        self.assert_selects_as_full_sort(p0, p1)

    @pytest.mark.parametrize("nseq", [2, 3, 4, 7, 10, 13, 16, 19, 20])
    def test_random_rows_select_as_full_sort(self, nseq):
        rng = np.random.default_rng(100 + nseq)
        p0, p1 = (SequenceDistribution(nseq, 1, random_distribution(rng, nseq)) for _ in range(2))
        self.assert_selects_as_full_sort(p0, p1)

    def test_more_than_four_tie_with_the_fourth_best(self):
        # dyadic rows sum exactly: accepting sequences 0-4 scores 0.625 alone,
        # and the five ways to accept four of them tie at 0.5
        p0 = SequenceDistribution(6, 1, [0.1875] * 5 + [0.0625])
        p1 = SequenceDistribution(6, 1, [0.0625] * 5 + [0.6875])
        scores = np.sort(oracles.partition_scores(p0, p1))[::-1]
        assert scores[0] == 0.625 and np.count_nonzero(scores == scores[3]) == 5
        self.assert_selects_as_full_sort(p0, p1)

    @given(seed=st.integers(0, 2**32 - 1), nseq=st.integers(2, 12))
    def test_dyadic_rows_select_as_full_sort(self, seed, nseq):
        # rows in multiples of 1/64 tie often and sum without round-off
        rng = np.random.default_rng(seed)
        p0, p1 = (SequenceDistribution(nseq, 1, rng.multinomial(64, np.full(nseq, 1 / nseq)) / 64) for _ in range(2))
        self.assert_selects_as_full_sort(p0, p1)


class TestIidMl:
    @pytest.mark.parametrize(
        "p, q, n",
        [
            ([0.4, 0.6], [0.2, 0.8], 1),
            ([0.4, 0.6], [0.2, 0.8], 3),
            ([0.4, 0.6], [0.2, 0.8], 9),
            ([0.81, 0.19], [0.19, 0.81], 12),  # the noisy Stern-Gerlach pair: 924 tied sequences
            ([0.2, 0.3, 0.5], [0.3, 0.2, 0.5], 5),  # swapped outcomes tie on every (a, a, c)
            ([0.5, 0.5, 0.0], [0.0, 0.3, 0.7], 4),
            ([1.0, 0.0], [0.0, 1.0], 3),  # disjoint supports
            ([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], 4),  # all types tie
            ([0.4 - 1e-11, 0.6 - 1e-11], [0.4, 0.6], 3),  # no type goes to H0: log count -inf
            # at the types cap, with no ties: the likelihood ratios hold distinct primes
            ([0.125, 0.375, 0.5], [0.3125, 0.4375, 0.25], 139),
            ([0.125, 0.375, 0.25, 0.25], [0.3125, 0.4375, 0.1875, 0.0625], 37),
        ],
    )
    def test_matches_exact_oracle(self, p, q, n):
        log_err, log_size = iid_ml_log_error(p, q, n)
        want_err, want_size = oracles.iid_ml_error(p, q, n)
        assert_log_count(log_size, want_size)
        assert close(math.exp(log_err), float(want_err))

    def test_log_count_at_the_types_cap(self):
        # m = 2: P^t = 2^-n and Q^t = 3^i / 4^n for i no-clicks, so H0 iff 3^i <= 2^n
        n = TYPES_CAP - 1
        j = int(n * math.log(2.0) / math.log(3.0))
        assert 3**j <= 2**n < 3 ** (j + 1)
        # sum_{i <= j} C(n, i), by C(n, i + 1) = C(n, i) (n - i) / (i + 1)
        count, comb = 0, 1
        for i in range(j + 1):
            count += comb
            comb = comb * (n - i) // (i + 1)
        assert comb == math.comb(n, j + 1)
        assert_log_count(iid_ml_log_error([0.5, 0.5], [0.25, 0.75], n)[1], count)

    def test_ties_go_to_h0(self):
        # sum_{k >= 6} C(12, k); dense ML breaks 356 of the 924 ties the other way
        count = sum(math.comb(12, k) for k in range(6, 13))
        assert count == 2510
        log_size = iid_ml_log_error([0.81, 0.19], [0.19, 0.81], 12)[1]
        assert_log_count(log_size, count)
        assert not math.isclose(log_size, math.log(2154), rel_tol=1e-13)
        log_err, log_size = iid_ml_log_error([0.3, 0.7], [0.3, 0.7], 10)
        assert_log_count(log_size, 2**10)
        assert abs(log_err - math.log(0.5)) < 1e-15

    @given(case=iid_case())
    def test_matches_dense_ml(self, case):
        povm, states, n = case
        d0, d1 = (sequence_distribution(povm, ProductInput.iid(s, n)) for s in states)
        want, _ = ml_error_probability(d0, d1)
        log_err, log_size = iid_ml_log_error(*candidate_probs(povm, states), n)
        assert close(math.exp(log_err), want)
        assert log_size <= n * math.log(povm.n_outcomes) * (1 + 1e-13)

    @given(case=iid_case())
    def test_monotone_in_n(self, case):
        povm, states, n = case
        p, q = candidate_probs(povm, states)
        errs = [math.exp(iid_ml_log_error(p, q, k)[0]) for k in range(1, n + 2)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a * (1 + 1e-12)

    @given(data=st.data())
    def test_zero_outcomes_give_no_nan(self, data):
        m = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(1, {2: 12, 3: 7, 4: 6}[m]))
        p, q = data.draw(sparse_distribution(m)), data.draw(sparse_distribution(m))
        log_err, log_size = iid_ml_log_error(p, q, n)
        assert not math.isnan(log_err)
        assert isinstance(log_size, float) and log_size <= n * math.log(m) * (1 + 1e-13)
        assert close(math.exp(log_err), dense_ml_error(p, q, n))

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 2), (4, 3), (3, 5), (6, 4), (8, 8)])
    def test_types_are_each_count_once(self, n, m):
        # one log multiplicity per type, in the oracle's composition order
        u = np.full((1, m), 1.0 / m)
        _, log_mult, accept = _types_log_error(u, u, (n,))
        types = list(oracles.compositions(n, m))
        assert len(log_mult) == len(accept) == len(types) == math.comb(n + m - 1, m - 1)
        assert sum(oracles.multinomial(t) for t in types) == m**n
        for got, t in zip(log_mult, types):
            assert_log_count(got, oracles.multinomial(t))

    @pytest.mark.parametrize("counts, m", [((2, 3), 2), ((2, 0, 3), 2), ((0, 2), 3), ((1, 2, 1), 3)])
    def test_joint_types_are_class_major(self, counts, m):
        # joint types run over each class's compositions, the first class slowest
        u = np.full((len(counts), m), 1.0 / m)
        _, log_mult, _ = _types_log_error(u, u, counts)
        joint = list(itertools.product(*(oracles.compositions(c, m) for c in counts)))
        assert len(log_mult) == len(joint)
        for got, ts in zip(log_mult, joint):
            assert_log_count(got, math.prod(oracles.multinomial(t) for t in ts))

    def test_one_outcome_refused_before_any_table(self):
        # one type at any n, so the types cap never binds; log n! alone would take 8 GB
        with pytest.raises(DomainError, match="at least 2 outcomes"):
            iid_ml_log_error([1.0], [1.0], 10**9)

    def test_many_outcomes_one_use_stays_small(self):
        # one use on 2000 outcomes: 2000 types, built without a (types x outcomes) table
        rng = np.random.default_rng(11)
        p, q = (random_distribution(rng, 2000) for _ in range(2))
        tracemalloc.start()
        try:
            log_err, _ = iid_ml_log_error(p, q, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert math.isclose(log_err, math.log(0.5 * np.minimum(p, q).sum()), rel_tol=1e-13)

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 300))
    def test_one_use_closed_form(self, seed, m):
        # n = 1: the types are the outcomes, so p_err = 1/2 sum_k min(P_k, Q_k)
        rng = np.random.default_rng(seed)
        p, q = (random_distribution(rng, m) for _ in range(2))
        log_err, _ = iid_ml_log_error(p, q, 1)
        assert math.isclose(log_err, math.log(0.5 * sum(min(a, b) for a, b in zip(p, q))), rel_tol=1e-13)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_n_refused(self, n):
        with pytest.raises(DomainError, match="n must be positive"):
            iid_ml_log_error([0.4, 0.6], [0.2, 0.8], n)

    def test_cap_refused_up_front(self):
        # C(n + 1, 1) = n + 1 types at m = 2
        iid_ml_log_error([0.4, 0.6], [0.2, 0.8], TYPES_CAP - 1)
        for n in (TYPES_CAP, 10**15):
            with pytest.raises(ResourceError, match="types cap"):
                iid_ml_log_error([0.4, 0.6], [0.2, 0.8], n)
        with pytest.raises(ResourceError, match="types cap"):
            iid_ml_log_error([0.25] * 4, [0.25] * 4, 38)  # C(41, 3) = 10660

    def test_lengths_must_agree(self):
        with pytest.raises(StructuralError):
            iid_ml_log_error([0.4, 0.6], [0.2, 0.3, 0.5], 2)


def assert_matches_pattern_loop(povm, n, cands):
    """The composition minimum is the oracle's minimum over all pattern pairs,
    and its own patterns, scored by the oracle, reproduce it."""
    log_err, (pat0, pat1) = best_product_pair(povm, n, cands)
    p_err = math.exp(log_err)
    want, _ = oracles.best_product_pair(povm, n, cands)
    assert close(p_err, want)
    assert len(pat0) == len(pat1) == n
    assert close(oracles.pattern_pair_error(povm, cands, pat0, pat1), p_err)


@st.composite
def pattern_case(draw):
    """A detector, 2 or 3 candidates from the pool, n and one pattern pair.
    n is at most 5, and at most 4 for 3 candidates on 3 outcomes, whose
    C(n + 17, 17) joint types pass TYPES_CAP at n = 5."""
    povm, pool = draw(detector_and_pool())
    cands = [pool[k] for k in draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))]
    n = draw(st.integers(1, 4 if len(cands) == 3 and povm.n_outcomes == 3 else 5))
    pats = [draw(st.lists(st.integers(0, len(cands) - 1), min_size=n, max_size=n)) for _ in range(2)]
    return povm, cands, n, pats


# (seed, d, m, candidates, n, last candidate = first, float.hex of log p_err,
# pat0, pat1), recorded from the composition-table engine that the lazy walk
# replaced: they fix its walk order and the 1e-15 tie rule bit for bit.  The
# duplicated candidates tie classes; two candidates on two outcomes take the sweep.
PINNED_PATTERNS = [
    (1, 2, 2, 2, 1, False, "-0x1.84dabac06d65ap-1", "0", "1"),
    (2, 3, 2, 2, 3, False, "-0x1.85721618fc6a6p-1", "001", "110"),
    (3, 2, 3, 2, 1, False, "-0x1.c26ae1e0f1a3ap-1", "0", "1"),
    (4, 2, 3, 2, 4, False, "-0x1.f8fd35ad3c65bp-1", "0001", "1110"),
    (5, 3, 3, 2, 2, False, "-0x1.06a47a8d1f92ap+0", "00", "11"),
    (6, 2, 4, 2, 3, False, "-0x1.62f81e93bf2d6p+0", "000", "111"),
    (7, 3, 4, 2, 4, False, "-0x1.0fea54f3208cep+0", "0000", "1111"),
    (8, 2, 2, 3, 1, False, "-0x1.f1f51af16dfb7p-1", "1", "2"),
    (9, 2, 2, 3, 4, False, "-0x1.1c0d08db86c06p+0", "1112", "2221"),
    (10, 3, 2, 3, 2, True, "-0x1.6d500150eed7fp-1", "00", "11"),
    (11, 2, 3, 3, 3, False, "-0x1.fd4f5e73f5519p-1", "000", "222"),
    (12, 3, 3, 3, 4, True, "-0x1.86f45be642735p-1", "0001", "1110"),
    (13, 2, 4, 3, 2, False, "-0x1.8872aef388a6ap+0", "00", "11"),
    (14, 3, 4, 3, 3, True, "-0x1.ded00f3cc0857p-1", "000", "111"),
    (15, 2, 2, 4, 1, False, "-0x1.ce228b0a85d2cp-1", "0", "3"),
    (16, 3, 2, 4, 3, True, "-0x1.05e28f6d6ae3ap+0", "000", "111"),
    (17, 2, 3, 4, 2, False, "-0x1.c9a25442bf9f7p-1", "11", "22"),
    (18, 3, 3, 4, 3, False, "-0x1.ce8b705eac35fp-1", "000", "333"),
    (19, 2, 4, 4, 1, True, "-0x1.75d6a4277fa0ep+0", "1", "2"),
    (20, 3, 4, 4, 2, False, "-0x1.3fd5dba53a434p+0", "22", "33"),
    (21, 2, 3, 2, 2, True, "-0x1.62e42fefa39ffp-1", "00", "11"),
    (22, 2, 2, 2, 4, True, "-0x1.62e42fefa39cep-1", "0000", "1111"),
    (23, 2, 2, 2, 10, False, "-0x1.72203e936d781p-1", "0" * 9 + "1", "1" * 9 + "0"),
    (24, 3, 2, 2, 60, False, "-0x1.810eea53dc858p+2", "0" * 52 + "1" * 8, "1" * 52 + "0" * 8),
]


class TestBestProductPair:
    @pytest.mark.parametrize("seed, d, m, k, n, dup, log_hex, pat0, pat1", PINNED_PATTERNS)
    def test_pinned_bit_for_bit(self, seed, d, m, k, n, dup, log_hex, pat0, pat1):
        rng = np.random.default_rng(seed)
        povm = random_povm(rng, d, m)
        cands = [DensityMatrix.pure(random_pure(rng, d)) for _ in range(k)]
        if dup:
            cands[-1] = cands[0]
        log_err, pats = best_product_pair(povm, n, cands)
        assert float(log_err).hex() == log_hex
        assert ["".join(map(str, pat)) for pat in pats] == [pat0, pat1]

    def test_many_candidates_one_use_stays_small(self):
        # 30 candidates: 870 classes and as many compositions, walked without a table
        rng = np.random.default_rng(12)
        povm = random_povm(rng, 2, 2)
        cands = [DensityMatrix.pure(random_pure(rng, 2)) for _ in range(30)]
        tracemalloc.start()
        try:
            log_err, (pat0, pat1) = best_product_pair(povm, 1, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert close(math.exp(log_err), oracles.pattern_pair_error(povm, cands, pat0, pat1))
        assert close(math.exp(log_err), oracles.best_product_pair(povm, 1, cands)[0])
    @given(case=detector_and_pool(), picks=st.lists(st.integers(0, 3), min_size=2, max_size=3), n=st.integers(1, 6))
    def test_matches_pattern_loop(self, case, picks, n):
        povm, pool = case
        cands = [pool[k] for k in picks]
        if len(cands) == 3:
            n = min(n, 2)  # 81 pattern pairs; n = 3 is the seeded case below
        assert_matches_pattern_loop(povm, n, cands)

    def test_three_candidates_three_uses(self):
        rng = np.random.default_rng(43)
        povm = random_povm(rng, 2, 3)
        cands = [DensityMatrix(np.outer(v, v.conj())) for v in (random_pure(rng, 2) for _ in range(3))]
        assert_matches_pattern_loop(povm, 3, cands)

    @given(case=pattern_case(), perm_seed=st.integers(0, 2**32 - 1))
    def test_error_is_slot_permutation_invariant(self, case, perm_seed):
        povm, cands, n, (pat0, pat1) = case
        perm = np.random.default_rng(perm_seed).permutation(n)
        moved = oracles.pattern_pair_error(povm, cands, [pat0[s] for s in perm], [pat1[s] for s in perm])
        assert close(moved, oracles.pattern_pair_error(povm, cands, pat0, pat1))

    @given(case=pattern_case())
    def test_never_above_a_pattern_pair(self, case):
        povm, cands, n, (pat0, pat1) = case
        log_err, _ = best_product_pair(povm, n, cands)
        assert math.exp(log_err) <= oracles.pattern_pair_error(povm, cands, pat0, pat1) * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["povm_commuting.json", "povm_noisy_sg_062.json"])
    def test_two_candidates_are_the_sweep_minimum(self, name):
        povm = povm_from_json(load_json_file(os.path.join(DATA, name)))
        _, evecs = eig_hermitian(povm.elements[0])
        pair = [DensityMatrix.pure(evecs[:, 0]), DensityMatrix.pure(evecs[:, -1])]
        for n in range(1, 11):
            log_err, _ = best_product_pair(povm, n, pair)
            assert close(math.exp(log_err), min(row[1] for row in sweep_x(povm, n)))

    def test_near_deterministic_candidate(self, basis_states):
        # outcome 1 of the first candidate has probability 1e-12; 1 - 0.999999999999
        # would keep only about 4 of its digits
        povm = diag_detector(1.0, 0.0)
        cands = [DensityMatrix(np.diag([1 - 1e-12, 1e-12]).astype(complex)), basis_states[1]]
        for n in (1, 2, 3):
            log_err, _ = best_product_pair(povm, n, cands)
            want, _ = oracles.best_product_pair(povm, n, cands)
            assert close(math.exp(log_err), want)

    def test_cap(self, diag_povm, basis_states):
        # two candidates on two outcomes: the full sweep's caps
        assert best_product_pair(diag_povm, 60, basis_states)[0] > -math.inf
        with pytest.raises(ResourceError, match="work cap"):
            best_product_pair(diag_povm, 4472, basis_states)
        with pytest.raises(ResourceError, match="aggregation cap"):
            best_product_pair(diag_povm, 10**9, basis_states)
        # 3 candidates, 6 classes on 2 outcomes: C(n + 11, 11) joint types
        cands = list(basis_states) + [basis_states[0]]
        best_product_pair(diag_povm, 5, cands)  # 4368 types
        for n in (6, 10**9):  # 12376 types and beyond
            with pytest.raises(ResourceError, match="types cap"):
                best_product_pair(diag_povm, n, cands)
        # 2 candidates on 3 outcomes: C(n + 5, 5) joint types, 11628 at n = 14
        povm = random_povm(np.random.default_rng(5), 2, 3)
        best_product_pair(povm, 13, basis_states)
        with pytest.raises(ResourceError, match="types cap"):
            best_product_pair(povm, 14, basis_states)

    def test_types_cap_refused_before_any_type(self, monkeypatch, diag_povm, basis_states):
        def unbuilt(*args):
            raise AssertionError("a type was built")

        monkeypatch.setattr(finite, "_types_log_error", unbuilt)
        cands = list(basis_states) + [basis_states[0]]
        t0 = time.perf_counter()
        for n in (6, 10**8, 10**9):
            with pytest.raises(ResourceError, match="types cap"):
                best_product_pair(diag_povm, n, cands)
        assert time.perf_counter() - t0 < 1.0

    def test_three_uses(self, diag_povm, basis_states):
        log_err, (pat0, pat1) = best_product_pair(diag_povm, 3, basis_states)
        assert abs(math.exp(log_err) - 0.344) < 1e-12
        assert sorted((pat0, pat1)) == sorted([(0, 0, 1), (1, 1, 0)])

    def test_single_use(self, diag_povm, basis_states):
        log_err, _ = best_product_pair(diag_povm, 1, basis_states)
        assert abs(math.exp(log_err) - 0.4) < 1e-14

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_n_refused(self, diag_povm, basis_states, n):
        with pytest.raises(DomainError, match="n must be positive"):
            best_product_pair(diag_povm, n, basis_states)

    def test_beats_or_ties_iid(self, diag_povm, basis_states):
        for n in range(1, 6):
            d0, d1 = iid_dists(diag_povm, n, basis_states)
            iid_err, _ = ml_error_probability(d0, d1)
            log_err, _ = best_product_pair(diag_povm, n, basis_states)
            assert math.exp(log_err) <= iid_err + 1e-15

    def test_symmetric_detector_prefers_iid(self, basis_states):
        # with p = 1 - q the swapped patterns give nothing extra
        p = Povm((np.diag([0.8, 0.2]).astype(complex), np.diag([0.2, 0.8]).astype(complex)))
        d0 = sequence_distribution(p, ProductInput.iid(basis_states[0], 3))
        d1 = sequence_distribution(p, ProductInput.iid(basis_states[1], 3))
        iid_err, _ = ml_error_probability(d0, d1)
        log_err, _ = best_product_pair(p, 3, basis_states)
        assert abs(math.exp(log_err) - iid_err) < 1e-15


class TestBlock:
    @given(pair=rate_pairs(), n=st.integers(1, 40))
    def test_matches_click_table(self, pair, n):
        pp, qq = pair
        for m in range(n + 1):
            got, want = _block_log_err(*two_outcome_rows(pp, qq), n, m), oracles.block_log_err(pp, qq, n, m)
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("pp,qq", [(1.0, 0.3), (0.7, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)])
    def test_edge_rates(self, pp, qq):
        # an exact 0 or 1 empties part of the click table; only the common
        # support of both hypotheses may be summed
        for m in range(11):
            want = oracles.block_log_err(pp, qq, 10, m)
            got = _block_log_err(*two_outcome_rows(pp, qq), 10, m)
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-12

    @given(pair=rate_pairs(), n=st.integers(1, 40))
    def test_rows_in_either_order(self, pair, n):
        # swapping the rows swaps the hypotheses, which keeps the error
        p_row, q_row = two_outcome_rows(*pair)
        for m in range(n + 1):
            got, want = _block_log_err(q_row, p_row, n, m), _block_log_err(p_row, q_row, n, m)
            assert got == want or abs(got - want) <= 1e-12

    def test_large_n_matches_click_table(self):
        for pp, qq in ((0.4, 0.2), (0.6, 0.1)):
            for m in range(0, 401, 25):
                got = _block_log_err(*two_outcome_rows(pp, qq), 400, m)
                assert abs(got - oracles.block_log_err(pp, qq, 400, m)) <= 1e-12


class TestSweep:
    @given(pair=rate_pairs(), n=st.integers(1, 60), points=st.one_of(st.none(), st.integers(1, 61)))
    def test_mirror_blocks_equal(self, pair, n, points):
        rows = sweep_x(diag_detector(*pair), n, points=points)
        by_m = {round(x * n): p_err for x, p_err, _ in rows}
        for m, p_err in by_m.items():
            if n - m in by_m:
                assert by_m[n - m] == p_err

    def test_points_pick_from_full_curve(self, diag_povm):
        full = sweep_x(diag_povm, 100)
        picks = np.unique(np.linspace(0, 100, 11).round().astype(int))
        assert sweep_x(diag_povm, 100, points=11) == [full[i] for i in picks]
        # points beyond n leave the full curve
        assert sweep_x(diag_povm, 100, points=101) == full

    @pytest.mark.parametrize("points", [0, -3])
    def test_nonpositive_points_refused(self, diag_povm, points):
        with pytest.raises(DomainError, match="points must be positive"):
            sweep_x(diag_povm, 10, points=points)

    def test_work_cap_refused_up_front(self, diag_povm):
        with pytest.raises(ResourceError, match="work cap"):
            sweep_x(diag_povm, 10**5)
        with pytest.raises(ResourceError, match="aggregation cap"):
            sweep_x(diag_povm, 10**5 + 1, points=3)

    def test_three_uses_endpoints(self, diag_povm):
        rows = sweep_x(diag_povm, 3)
        assert len(rows) == 4
        xs = [r[0] for r in rows]
        assert xs == [0.0, 1 / 3, 2 / 3, 1.0]
        by_x = {round(x, 6): p_err for x, p_err, _ in rows}
        assert abs(by_x[1.0] - 0.352) < 1e-12
        assert abs(by_x[0.0] - 0.352) < 1e-12
        assert abs(by_x[round(2 / 3, 6)] - 0.344) < 1e-12

    def test_matches_dense_ml(self, diag_povm, basis_states):
        rho0, rho1 = basis_states
        n = 5
        rows = sweep_x(diag_povm, n)
        for m in range(n + 1):
            d0 = sequence_distribution(
                diag_povm, ProductInput((rho0,) * m + (rho1,) * (n - m))
            )
            d1 = sequence_distribution(
                diag_povm, ProductInput((rho1,) * m + (rho0,) * (n - m))
            )
            ref, _ = ml_error_probability(d0, d1)
            assert abs(rows[m][1] - ref) < 1e-12

    def test_large_n_interior_advantage(self, diag_povm):
        # at n = 400 the best mixed pattern beats both i.i.d. endpoints
        rows = sweep_x(diag_povm, 400)
        rates = [r[2] for r in rows]
        assert max(rates) > max(rates[0], rates[-1]) + 1e-6

    def test_requires_two_outcomes(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(DomainError, match="two-outcome POVM"):
            sweep_x(Povm((eye / 2, eye / 4, eye / 4)), 3)
        # any d: E_0 = I/2 gives both hypotheses the same rates
        rows = sweep_x(Povm((np.eye(3, dtype=complex) / 2,) * 2), 3)
        assert [r[1] for r in rows] == [0.5] * 4


class TestScipyFormulas:
    """The numpy helpers of the binomial sums reproduce scipy.special."""

    def test_log_factorials_within_one_ulp(self):
        from scipy.special import gammaln

        n = 10**5 + 1
        got, want = _log_factorials(n), gammaln(np.arange(n) + 1.0)
        assert got.shape == (n,)
        assert np.all(np.abs(got - want) <= np.spacing(want))
        # equal bit for bit except where np.log and libm's log round apart
        assert np.count_nonzero(got != want) <= 10
        assert np.array_equal(_log_factorials(5), want[:5])

    @given(
        values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60),
        ties=st.integers(0, 5),
        scale=st.sampled_from([1e-3, 1.0, 100.0]),
    )
    def test_logsumexp_matches_scipy(self, values, ties, scale):
        from scipy.special import logsumexp

        a = np.array(values) * scale
        a = np.concatenate((a, np.full(ties, a.max())))  # repeated maxima
        assert _logsumexp(a) == logsumexp(a)

    @pytest.mark.parametrize("r", [0.0, 1.0, 0.5, 1e-300, 0.3, 1 - 1e-12])
    def test_xlogy_matches_scipy(self, r):
        from scipy.special import xlogy

        k = np.arange(40)
        assert np.array_equal(_xlogy(k, r), xlogy(k, r))
        assert np.array_equal(_xlogy(40 - k, 1 - r), xlogy(40 - k, 1 - r))


class TestEmpiricalRate:
    def test_is_sweep_first_row(self, diag_povm):
        for n in (1, 7, 400, 5000):
            rate = empirical_rate(diag_povm, n)
            assert rate == sweep_x(diag_povm, n, points=2)[0][2]
            assert rate == -_block_log_err((0.4, 0.6), (0.2, 0.8), n, n) / n
        perfect = diag_detector(1.0, 0.0)
        assert empirical_rate(perfect, 5) == math.inf

    def test_errors_as_sweep(self, diag_povm):
        with pytest.raises(DomainError, match="n must be positive"):
            empirical_rate(diag_povm, 0)
        with pytest.raises(ResourceError, match="aggregation cap"):
            empirical_rate(diag_povm, 10**5 + 1)
        with pytest.raises(DomainError, match="two-outcome POVM"):
            empirical_rate(Povm((np.eye(2, dtype=complex) / 3,) * 3), 3)
        # a d = 3 detector is a value: p_err = 0.5 with E_0 = I/2
        assert close(empirical_rate(Povm((np.eye(3, dtype=complex) / 2,) * 2), 3), math.log(2.0) / 3)

    def test_single_use(self, diag_povm):
        assert abs(empirical_rate(diag_povm, 1) - (-np.log(0.4))) < 1e-12

    def test_matches_dense_ml(self, diag_povm, basis_states):
        for n in (2, 5, 8):
            d0, d1 = iid_dists(diag_povm, n, basis_states)
            p_err, _ = ml_error_probability(d0, d1)
            assert abs(empirical_rate(diag_povm, n) - (-np.log(p_err) / n)) < 1e-10

    def test_five_thousand_uses(self, diag_povm):
        rate = empirical_rate(diag_povm, 5000)
        assert abs(rate - 0.025404340338447) < 1e-9

    def test_cap(self, diag_povm):
        with pytest.raises(ResourceError):
            empirical_rate(diag_povm, 10**6)
