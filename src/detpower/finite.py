"""Exact error probabilities for n repeated uses of the detector.

Dense outcome-sequence distributions serve small m^n (brute force, arbitrary
product inputs).  Types of outcome counts, in the log domain, serve i.i.d.
pairs and product patterns; patterns of two states on two outcomes are the
O(n) binomial blocks of the pattern-fraction sweep.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .channel import SUM_TOL, ClassicalDistribution, _pair, candidate_probs
from .core import DensityMatrix, GroupingMask, Povm, eig_hermitian
from .errors import DomainError, ResourceError, StructuralError

DENSE_CAP = 2**20
# blocks x (n + 1) entries one sweep may compute: 100 blocks at n = 10^5,
# about 3 s at 30 ms per block
SWEEP_WORK_CAP = 10**7
# largest n that sweep_x and empirical_rate aggregate
AGGREGATION_CAP = 10**5
# most types that iid_ml_log_error enumerates, and best_product_pair over all
# its compositions; neither builds a table of them.  At the cap on a 2-vCPU
# Xeon the i.i.d. sum takes 1.3 ms and 0.9 MB at m = 2, n = 9999, and 2 s and
# 1.1 MB at its worst, n = 1 on 10^4 outcomes; best_product_pair, which pays
# per composition, 0.4 s and 0.6 MB for 70 candidates at n = 1 (4830).
TYPES_CAP = 10**4

# Cephes lgam (scipy.special.gammaln) at x = k + 1 takes the log of the exact
# factorial below x = 13 and Stirling's series from there on
_EXACT_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


@dataclass(frozen=True)
class ProductInput:
    factors: tuple

    def __post_init__(self):
        fs = tuple(self.factors)
        if not fs:
            raise StructuralError("product input needs at least one factor")
        d = fs[0].dim
        if any(f.dim != d for f in fs):
            raise StructuralError("product-input factors must share one dimension")
        object.__setattr__(self, "factors", fs)

    @property
    def n(self) -> int:
        return len(self.factors)

    @classmethod
    def iid(cls, rho: DensityMatrix, n: int) -> "ProductInput":
        return cls((rho,) * n)


@dataclass(frozen=True, eq=False)
class SequenceDistribution:
    """Probabilities over outcome sequences k^n, flattened with k_1 most
    significant, summing to 1 within sum_tol (see ClassicalDistribution)."""

    m: int
    n: int
    probs: np.ndarray
    sum_tol: float = SUM_TOL

    def __post_init__(self):
        if np.size(self.probs) != self.m**self.n:
            raise StructuralError("length must be m^n")
        object.__setattr__(self, "probs", ClassicalDistribution(np.ravel(self.probs), self.sum_tol).probs)

    def sequence(self, index: int) -> tuple:
        digits = []
        for _ in range(self.n):
            index, k = divmod(index, self.m)
            digits.append(k)
        return tuple(reversed(digits))


def _check_sequences(m: int, n: int) -> None:
    """Refuse m^n > DENSE_CAP sequences; any m >= 2 exceeds it from n = 21 on."""
    if m ** min(n, 21) > DENSE_CAP:
        raise ResourceError(f"{m}^{n} sequences exceed the dense cap {DENSE_CAP}")


def _check_partitions(m: int, n: int) -> None:
    """Refuse 2^(m^n) > DENSE_CAP partitions, that is more than 20 sequences."""
    if m ** min(n, 21) > DENSE_CAP.bit_length() - 1:
        raise ResourceError(f"2^({m}^{n}) partitions exceed the dense cap {DENSE_CAP}")


def sequence_distribution(p: Povm, inp: ProductInput) -> SequenceDistribution:
    """Product distribution over outcome sequences for independent slot inputs.

    Each slot's row sums to 1 within t = induced_sum_tol(d), so the product
    sums to 1 within (1 + t)^n - 1 <= n t (1 + n t) (as n t < 1).
    """
    m, n = p.n_outcomes, inp.n
    _check_sequences(m, n)
    rows = candidate_probs(p, inp.factors)
    probs = np.array([1.0])
    for row in rows.probs:
        probs = np.kron(probs, row)
    return SequenceDistribution(m, n, probs, n * rows.sum_tol * (1 + n * rows.sum_tol))


def _grouping_error(p0: np.ndarray, p1: np.ndarray, accept_h0: np.ndarray) -> float:
    # fixed per-index summation order so identical groupings give identical floats
    return 0.5 * float(np.sum(np.where(accept_h0, p1, p0)))


def ml_error_probability(p0: SequenceDistribution, p1: SequenceDistribution):
    """Minimum average error and its maximum-likelihood grouping.

    A sequence goes to H0 when its computed probabilities satisfy p0 >= p1.
    Those are float kron products, so sequences that tie exactly (a permuted
    sequence of a swapped pair, say) can round apart and go either way;
    iid_ml_log_error decides per type and sends such ties to H0.
    """
    if (p0.m, p0.n) != (p1.m, p1.n):
        raise StructuralError("sequence distributions are over different index sets")
    accept = p0.probs >= p1.probs
    return _grouping_error(p0.probs, p1.probs, accept), GroupingMask(accept)


def brute_force_grouping(p0: SequenceDistribution, p1: SequenceDistribution):
    """Exact minimum over all 2^(m^n) outcome-sequence partitions (oracle).

    Its table scores every partition, so more than DENSE_CAP of them (more
    than 20 sequences) are refused with ResourceError (_check_partitions).
    """
    if (p0.m, p0.n) != (p1.m, p1.n):
        raise StructuralError("sequence distributions are over different index sets")
    _check_partitions(p0.m, p0.n)
    nseq = len(p0.probs)
    diff = p0.probs - p1.probs
    # score of subset a is sum_a (p0 - p1); p_err = (1 - score)/2, so rank by score
    lo_bits = nseq // 2
    hi_bits = nseq - lo_bits
    lo = np.zeros(1 << lo_bits)
    for b in range(lo_bits):
        half = 1 << b
        lo[half : 2 * half] = lo[:half] + diff[b]
    hi = np.zeros(1 << hi_bits)
    for b in range(hi_bits):
        half = 1 << b
        hi[half : 2 * half] = hi[:half] + diff[lo_bits + b]
    scores = (lo[None, :] + hi[:, None]).ravel()  # index = hi_part * 2^lo_bits + lo_part
    # re-score the leading candidates exactly (same summation as ml path)
    top = np.argsort(-scores, kind="stable")[:4]
    # bit b of a code is sequence b
    bits = np.arange(nseq)
    best = None
    for idx in top:
        accept = (int(idx) >> bits) & 1 == 1
        p_err = _grouping_error(p0.probs, p1.probs, accept)
        if best is None or p_err < best[0]:
            best = (p_err, accept)
    return best[0], GroupingMask(best[1])


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n-1, within 1 ulp of scipy.special.gammaln(k + 1).

    Cephes lgam's steps at x = k + 1: (x - 1/2) log x - x + log sqrt(2 pi)
    plus its 5-term series in 1/x^2 over x, by Horner as its polevl.  Cephes
    drops to 3 terms from x = 1000, where the other two lie below half an
    ulp; for k <= 10^5 the two agree bit for bit, and only np.log, which can
    round differently from libm, sets them apart.
    """
    x = np.arange(13.0, n + 1)
    series = np.polyval(_STIRLING, 1.0 / (x * x))
    stirling = (x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI + series / x
    return np.concatenate((_EXACT_LOG_FACTORIALS[:n], stirling))


def _log_choose(log_fact: np.ndarray, n: int, k: np.ndarray) -> np.ndarray:
    return log_fact[n] - log_fact[k] - log_fact[n - k]


def _xlogy(k: np.ndarray, r: float) -> np.ndarray:
    """k log r with 0 log 0 = 0, as scipy.special.xlogy for a scalar rate."""
    if r == 0.0:
        return np.where(k == 0, 0.0, -math.inf)
    return k * math.log(r)


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) of finite, non-empty a in scipy.special.logsumexp's form:
    the maxima are taken out of the shifted sum and added back by log1p."""
    top = a.max()
    at_top = a == top
    w = np.exp(a - top)
    w[at_top] = 0.0
    count = float(np.count_nonzero(at_top))
    return float(np.log1p(w.sum() / count) + np.log(count) + top)


def _log_lik(k: np.ndarray, n: int, row) -> np.ndarray:
    return _xlogy(k, row[0]) + _xlogy(n - k, row[1])


def _common_support(n: int, p_row, q_row) -> np.ndarray:
    """Click counts in n uses that both two-outcome rows give positive weight."""
    lo = n if (p_row[1] == 0.0 or q_row[1] == 0.0) else 0
    hi = 0 if (p_row[0] == 0.0 or q_row[0] == 0.0) else n
    return np.arange(lo, hi + 1)


def _block_log_err(p_row, q_row, n: int, m: int) -> float:
    """log p_err for the pair (rho0^m rho1^(n-m), rho1^m rho0^(n-m)) whose
    two-outcome rows (click, no click) are p_row for rho0 and q_row for rho1.

    With i clicks in the first m slots and j in the rest, H0 draws
    i ~ Bin(m, p_row[0]), j ~ Bin(n-m, q_row[0]) and H1 the reverse.  Block
    n - m is block m with the hypotheses swapped, so only m <= n/2 is
    computed.  Cells outside the common support of both hypotheses add
    nothing and are dropped first; on the rest the log-likelihood ratio is
    finite, and its slope in i has the sign of p0 q1 - q0 p1.  Where that is
    negative the rows, and so the hypotheses, are swapped: then it increases
    in i and decreases in j, so for each j the ML decision picks H0 exactly
    for i >= cut[j].  The error is then a sum over j of a pmf times a one-sided
    cumulative over i: O(n) memory, and O(n) time apart from one binary
    search per j.
    """
    m = min(m, n - m)
    if p_row[0] * q_row[1] < q_row[0] * p_row[1]:
        p_row, q_row = q_row, p_row
    i = _common_support(m, p_row, q_row)
    j = _common_support(n - m, p_row, q_row)
    if i.size == 0 or j.size == 0:
        return -math.inf
    log_fact = _log_factorials(n - m + 1)
    ci, cj = _log_choose(log_fact, m, i), _log_choose(log_fact, n - m, j)
    li_p, li_q = _log_lik(i, m, p_row), _log_lik(i, m, q_row)
    lj_p, lj_q = _log_lik(j, n - m, p_row), _log_lik(j, n - m, q_row)
    # l0 - l1 = (li_p - li_q)[i] - (lj_p - lj_q)[j]; min(l0, l1) = l1 iff l0 >= l1
    cut = np.searchsorted(li_p - li_q, lj_p - lj_q, side="left")
    head0 = np.concatenate(([-math.inf], np.logaddexp.accumulate(ci + li_p)))
    tail1 = np.concatenate((np.logaddexp.accumulate((ci + li_q)[::-1])[::-1], [-math.inf]))
    terms = np.concatenate((cj + lj_q + head0[cut], cj + lj_p + tail1[cut]))
    terms = terms[np.isfinite(terms)]
    if terms.size == 0:
        return -math.inf
    return _logsumexp(terms) - math.log(2.0)


def _check_types(n: int, cells: int) -> None:
    """Refuse more than TYPES_CAP types of n over `cells` outcomes, unbuilt."""
    if math.comb(n + cells - 1, cells - 1) > TYPES_CAP:
        raise ResourceError(f"C({n + cells - 1}, {cells - 1}) types exceed the types cap {TYPES_CAP}")


def _types_log_error(p_rows: np.ndarray, q_rows: np.ndarray, counts):
    """(log p_err, log multiplicities, accept) of the ML decision between
    prod_k P_k^c_k and prod_k Q_k^c_k over the joint types, prod_k
    multinom(c_k; t_k) sequences each, enumerated without a table: one outcome
    at a time, the first class and outcome slowest, a row with r uses of its
    class left splits into r + 1 rows, and a class's last outcome takes the
    rest.  Rows carry running log-likelihoods (in class, then outcome order)
    and log multiplicities; an empty class adds exact zeros."""
    log_fact = _log_factorials(sum(counts) + 1)
    l0 = l1 = log_mult = np.zeros(1)
    for c, p_row, q_row in zip(counts, p_rows, q_rows):
        rest, log_fact_sum = np.full(len(l0), c), np.zeros(len(l0))
        for j, (p, q) in enumerate(zip(p_row, q_row)):
            k = rest
            if j < len(p_row) - 1:
                size = rest + 1
                parent = np.repeat(np.arange(len(rest)), size)
                k = np.arange(len(parent)) - np.repeat(np.cumsum(size) - size, size)
                l0, l1, log_mult, log_fact_sum = l0[parent], l1[parent], log_mult[parent], log_fact_sum[parent]
                rest = rest[parent] - k
            l0, l1 = l0 + _xlogy(k, p), l1 + _xlogy(k, q)
            log_fact_sum = log_fact_sum + log_fact[k]
        log_mult = log_mult + (log_fact[c] - log_fact_sum)
    accept = l0 >= l1
    terms = log_mult + np.where(accept, l1, l0)
    terms = terms[np.isfinite(terms)]
    log_err = _logsumexp(terms) - math.log(2.0) if terms.size else -math.inf
    return log_err, log_mult, accept


def iid_ml_log_error(p_dist, q_dist, n: int):
    """(log p_err, log_grouping_size) of the ML decision between P^n and Q^n.

    A sequence of type t = (k_1, ..., k_m) has probability P^t = prod_j P_j^k_j,
    and multinom(n; t) sequences share it, so p_err = 1/2 sum_t multinom(n; t)
    min(P^t, Q^t) (method of types): C(n + m - 1, m - 1) log-domain terms
    instead of m^n.  A type goes to H0 when its log-likelihoods, summed in
    outcome order, satisfy l0 >= l1: ties, and types that neither hypothesis
    can produce, go to H0.  log_grouping_size is the log of the number of
    sequences that go to H0, summed from the same log multinomials (-inf
    when none do).  Disjoint supports give log p_err = -inf.  n < 1 and
    fewer than two outcomes are refused with DomainError and more than
    TYPES_CAP types with ResourceError, before any type is built.
    """
    if n < 1:
        raise DomainError("n must be positive")
    p, q = _pair(p_dist, q_dist)
    if len(p) < 2:
        raise DomainError("distributions must have at least 2 outcomes")
    _check_types(n, len(p))
    log_err, log_mult, accept = _types_log_error(p[None], q[None], (n,))
    return log_err, _logsumexp(log_mult[accept]) if accept.any() else -math.inf


def _sweep(p_row, q_row, n: int, points: int | None = None):
    """(ms, log p_err of each m) for m = 0..n or `points` even nodes; n beyond
    AGGREGATION_CAP, or blocks x (n + 1) beyond SWEEP_WORK_CAP, are refused."""
    if n > AGGREGATION_CAP:
        raise ResourceError(f"n = {n} exceeds the aggregation cap {AGGREGATION_CAP}")
    ms = range(n + 1)
    if points is not None and points < n + 1:
        ms = np.unique(np.linspace(0, n, points).round().astype(int)).tolist()
    blocks = sorted({min(m, n - m) for m in ms})
    if len(blocks) * (n + 1) > SWEEP_WORK_CAP:
        raise ResourceError(f"{len(blocks)} blocks at n = {n} exceed the work cap {SWEEP_WORK_CAP}")
    by_block = {b: _block_log_err(p_row, q_row, n, b) for b in blocks}
    return ms, [by_block[min(m, n - m)] for m in ms]


def best_product_pair(p: Povm, n: int, candidates):
    """(log p_err, (pat0, pat1)): exact ML error of the best pair of n-slot
    product inputs of candidate states, and the candidate index of each slot.

    A slot of class (i, j) sends candidate i under H0 and j under H1.  Joint
    slot permutations keep the error, so the minimum runs over compositions
    of n into the classes with i != j (a slot with i = j cancels, and one more
    slot never raises the error), walked one at a time as the multisets of n
    classes in combinations_with_replacement order, the i.i.d. pair first.
    Each is scored by the joint types of its used classes; a later one wins
    only if its log error is lower by more than 1e-15, and its multiset,
    sorted by class, is the pattern pair.  Two candidates on two outcomes are
    one full sweep, under its caps; otherwise more than TYPES_CAP joint types,
    C(n + K m - 1, K m - 1) for K classes, are refused before any is scored.
    """
    if n < 1:
        raise DomainError("n must be positive")
    cands = list(candidates)
    if len(cands) < 2:
        raise DomainError("need at least two candidate states")
    rows = candidate_probs(p, cands).probs
    classes = [(i, j) for i in range(len(cands)) for j in range(len(cands)) if i != j]
    if len(cands) == 2 and p.n_outcomes == 2:
        _, log_errs = _sweep(rows[0], rows[1], n)
        # m slots of class (0, 1), from m = n down as the compositions below
        scored = ((log_errs[m], {0: m, 1: n - m}) for m in range(n, -1, -1))
    else:
        _check_types(n, len(classes) * p.n_outcomes)
        p_rows, q_rows = rows[np.array(classes).T]
        uses = map(Counter, itertools.combinations_with_replacement(range(len(classes)), n))
        scored = ((_types_log_error(p_rows[list(u)], q_rows[list(u)], list(u.values()))[0], u) for u in uses)
    log_err, best = next(scored)
    for err, u in scored:
        if err < log_err - 1e-15:
            log_err, best = err, u
    slots = [classes[i] for i, c in best.items() for _ in range(c)]
    return log_err, tuple(zip(*slots))


def extreme_pair(p: Povm) -> tuple:
    """The extreme eigenvectors of E_0, as two pure states: the input pair of
    every finite-n mode.  On two outcomes the elements commute, so at any d
    these give the two most distinct click rates."""
    _, evecs = eig_hermitian(p.elements[0])
    return DensityMatrix.pure(evecs[:, 0]), DensityMatrix.pure(evecs[:, -1])


def sweep_x(p: Povm, n: int, points: int | None = None):
    """Error probability against x = m/n for inputs of the form
    (rho0^m rho1^(n-m), rho1^m rho0^(n-m)); exact binomial aggregation.
    (rho0, rho1) is the extreme_pair of a two-outcome POVM.

    Returns a list of (x, p_err, rate) rows for m = 0..n or, when
    0 < points <= n, for the m of `points` evenly spaced nodes on [0, n]
    rounded to integers; points < 1 is refused.  Below about 1e-308
    (beyond n = 3*10^4 on the bundled detector) p_err loses precision and
    then underflows to 0; the rate is computed from the log and stays exact.  Each distinct block
    min(m, n-m) costs O(n) (about 0.5 ms at n = 400 and 30 ms at n = 10^5
    on a 2-vCPU Xeon), and m and n - m share one value.  Sweeps whose
    blocks x (n + 1) exceed SWEEP_WORK_CAP are refused up front.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if points is not None and points < 1:
        raise DomainError(f"points must be positive, got {points}")
    if p.n_outcomes != 2:
        raise DomainError("binomial aggregation needs a two-outcome POVM")
    ms, log_errs = _sweep(*candidate_probs(p, extreme_pair(p)).probs, n, points)
    # exp(-inf) = 0 and -(-inf) / n = inf for disjoint supports
    return [(m / n, math.exp(log_err), -log_err / n) for m, log_err in zip(ms, log_errs)]


def empirical_rate(p: Povm, n: int) -> float:
    """Finite-n exponent -(1/n) log p_err for the i.i.d. optimal basis pair:
    the rate of the sweep's one-point row, m = 0."""
    return sweep_x(p, n, points=1)[0][2]
