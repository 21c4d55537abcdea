"""Exact error probabilities for n repeated uses of the detector.

Three representations are used: dense outcome-sequence distributions for small
m^n (brute force, product patterns, non-i.i.d. inputs), types of outcome
counts (log domain) for the ML error of an i.i.d. pair, and binomially
aggregated counts (log domain) for two-element qubit POVMs at large n, where
the pattern-fraction sweeps and rate checks live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ClassicalDistribution, _pair, candidate_probs
from .core import DensityMatrix, GroupingMask, Povm, eig_hermitian
from .errors import DomainError, ResourceError, StructuralError

DENSE_CAP = 2**20
# blocks x (n + 1) entries one sweep may compute: 100 blocks at n = 10^5,
# about 3 s at 30 ms per block
SWEEP_WORK_CAP = 10**7
# largest n that sweep_x and empirical_rate aggregate
AGGREGATION_CAP = 10**5
# most types C(n + m - 1, m - 1) that iid_ml_log_error enumerates.  Its exact
# counts are longest at m = 2, n = TYPES_CAP - 1: about 0.13 s and 19 MB above
# the import (53 MB peak) on a 2-vCPU Xeon.  There m^n, the bound on
# grouping_size, has 3010 digits, under Python's 4300-digit limit on printing
# an int; m > 2 reaches a smaller n.
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
    """Probabilities over outcome sequences k^n, flattened with k_1 most significant."""

    m: int
    n: int
    probs: np.ndarray

    def __post_init__(self):
        if np.size(self.probs) != self.m**self.n:
            raise StructuralError("length must be m^n")
        object.__setattr__(self, "probs", ClassicalDistribution(np.ravel(self.probs)).probs)

    def sequence(self, index: int) -> tuple:
        return _digits(index, self.m, self.n)


def _digits(index: int, base: int, n: int) -> tuple:
    """The n base-`base` digits of index, most significant first."""
    digits = []
    for _ in range(n):
        index, k = divmod(index, base)
        digits.append(k)
    return tuple(reversed(digits))


def sequence_distribution(p: Povm, inp: ProductInput) -> SequenceDistribution:
    """Product distribution over outcome sequences for independent slot inputs."""
    m, n = p.n_outcomes, inp.n
    if m**n > DENSE_CAP:
        raise ResourceError(f"{m}^{n} sequences exceed the dense cap {DENSE_CAP}")
    probs = np.array([1.0])
    for row in candidate_probs(p, inp.factors).probs:
        probs = np.kron(probs, row)
    return SequenceDistribution(m, n, probs)


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
    than 20 sequences) are refused with ResourceError.
    """
    if (p0.m, p0.n) != (p1.m, p1.n):
        raise StructuralError("sequence distributions are over different index sets")
    nseq = len(p0.probs)
    if 2**nseq > DENSE_CAP:
        raise ResourceError(f"2^{nseq} partitions exceed the dense cap {DENSE_CAP}")
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


def _pattern_table(singles: np.ndarray, n: int) -> np.ndarray:
    """Distributions of every candidate pattern: row a is the kron product of
    the candidates named by the base-nc digits of a (first slot most
    significant), multiplied in np.kron's order."""
    table = np.ones((1, 1))
    for _ in range(n):
        table = (table[:, None, :, None] * singles[None, :, None, :]).reshape(len(table) * len(singles), -1)
    return table


def best_product_pair(p: Povm, n: int, candidates):
    """Exhaustive ML error over slot-wise assignments of candidate states.

    For a two-candidate set the sigma pattern is the index-swapped complement of
    the rho pattern (the basis-pair case); otherwise both patterns are
    enumerated independently.  All nc^n pattern distributions are held in one
    (nc^n, m^n) table; with nc = 2 one more array of that size holds the
    pairwise minima, and with nc > 2 the pairs are formed one rho pattern at a
    time, so no array exceeds DENSE_CAP entries (8 MB).
    """
    if n < 1:
        raise DomainError("n must be positive")
    cands = list(candidates)
    if len(cands) < 2:
        raise DomainError("need at least two candidate states")
    nc = len(cands)
    count = 2**n if nc == 2 else nc ** (2 * n)
    if count * (p.n_outcomes**n) > DENSE_CAP:
        raise ResourceError(f"candidate-pattern enumeration exceeds the dense cap {DENSE_CAP}")
    table = _pattern_table(candidate_probs(p, cands).probs, n)
    if nc == 2:
        # the complement of pattern a is pattern 2^n - 1 - a: the reversed rows
        errs = 0.5 * np.sum(np.minimum(table, table[::-1]), axis=1)
    else:
        errs = np.concatenate([0.5 * np.sum(np.minimum(row, table), axis=1) for row in table])
    errs = errs.tolist()
    best = 0
    for idx, p_err in enumerate(errs):
        if p_err < errs[best] - 1e-15:
            best = idx
    if nc == 2:
        pat0 = _digits(best, 2, n)
        return errs[best], (pat0, tuple(1 - i for i in pat0))
    a, b = divmod(best, len(table))
    return errs[best], (_digits(a, nc, n), _digits(b, nc, n))


def _diag_qubit_rates(p: Povm):
    """Eigenvalues (p, q) of the first element of a two-element qubit POVM, p >= q."""
    if p.dim != 2 or p.n_outcomes != 2:
        raise DomainError("binomial aggregation needs a two-element qubit POVM")
    evals, _ = eig_hermitian(p.elements[0])
    return float(evals[0]), float(evals[1])


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


def _log_lik(k: np.ndarray, n: int, rate: float) -> np.ndarray:
    return _xlogy(k, rate) + _xlogy(n - k, 1 - rate)


def _common_support(n: int, pp: float, qq: float) -> np.ndarray:
    """Click counts that both Bin(n, pp) and Bin(n, qq) give positive weight."""
    lo = n if (pp == 1.0 or qq == 1.0) else 0
    hi = 0 if (pp == 0.0 or qq == 0.0) else n
    return np.arange(lo, hi + 1)


def _block_log_err(pp: float, qq: float, n: int, m: int) -> float:
    """log p_err for the pair (rho0^m rho1^(n-m), rho1^m rho0^(n-m)) under a
    diagonal two-outcome channel with click rates (pp, qq).

    With i clicks in the first m slots and j in the rest, H0 draws
    i ~ Bin(m, pp), j ~ Bin(n-m, qq) and H1 the reverse.  Block n - m is block
    m with the hypotheses swapped, so only m <= n/2 is computed.  Cells outside
    the common support of both hypotheses add nothing and are dropped first;
    on the rest the log-likelihood ratio is finite, increasing in i and
    decreasing in j, so for each j the ML decision picks H0 exactly for
    i >= cut[j].  The error is then a sum over j of a pmf times a one-sided
    cumulative over i: O(n) memory, and O(n) time apart from one binary
    search per j.
    """
    m = min(m, n - m)
    i = _common_support(m, pp, qq)
    j = _common_support(n - m, pp, qq)
    if i.size == 0 or j.size == 0:
        return -math.inf
    log_fact = _log_factorials(n - m + 1)
    ci, cj = _log_choose(log_fact, m, i), _log_choose(log_fact, n - m, j)
    li_p, li_q = _log_lik(i, m, pp), _log_lik(i, m, qq)
    lj_p, lj_q = _log_lik(j, n - m, pp), _log_lik(j, n - m, qq)
    # l0 - l1 = (li_p - li_q)[i] - (lj_p - lj_q)[j]; min(l0, l1) = l1 iff l0 >= l1
    cut = np.searchsorted(li_p - li_q, lj_p - lj_q, side="left")
    head0 = np.concatenate(([-math.inf], np.logaddexp.accumulate(ci + li_p)))
    tail1 = np.concatenate((np.logaddexp.accumulate((ci + li_q)[::-1])[::-1], [-math.inf]))
    terms = np.concatenate((cj + lj_q + head0[cut], cj + lj_p + tail1[cut]))
    terms = terms[np.isfinite(terms)]
    if terms.size == 0:
        return -math.inf
    return _logsumexp(terms) - math.log(2.0)


def _types(n: int, m: int) -> np.ndarray:
    """Every type (k_1, ..., k_m) of n uses over m outcomes, one per row, k_1
    slowest.  Each of the m - 1 steps splits a row with r uses left into the
    r + 1 rows that give the next outcome 0..r of them."""
    counts = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([n])
    for _ in range(m - 1):
        size = rest + 1
        parent = np.repeat(np.arange(len(rest)), size)
        k = np.arange(len(parent)) - np.repeat(np.cumsum(size) - size, size)
        counts = np.column_stack((counts[parent], k))
        rest = rest[parent] - k
    return np.column_stack((counts, rest))


def _binomial_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Exact C(r, k) as Python ints for each r of `rows` and k = 0..width, one
    column per step of C(r, k + 1) = C(r, k) (r - k) / (k + 1)."""
    table = np.empty((len(rows), width + 1), dtype=object)
    col = np.ones(len(rows), dtype=object)
    r = rows.astype(object)
    for k in range(width + 1):
        table[:, k] = col
        col = col * (r - k) // (k + 1)
    return table


def _multinomial_sum(types: np.ndarray, n: int) -> int:
    """Sum over the rows of multinom(n; t) = prod_j C(uses left before j, k_j),
    as an exact Python int."""
    rest = n - np.cumsum(types[:, :-1], axis=1) + types[:, :-1]
    rows = np.unique(rest)
    table = _binomial_rows(rows, n)
    count = np.ones(len(types), dtype=object)
    for j in range(types.shape[1] - 1):
        count = count * table[np.searchsorted(rows, rest[:, j]), types[:, j]]
    return int(count.sum())


def iid_ml_log_error(p_dist, q_dist, n: int):
    """(log p_err, grouping_size) of the ML decision between P^n and Q^n.

    A sequence of type t = (k_1, ..., k_m) has probability P^t = prod_j P_j^k_j,
    and multinom(n; t) sequences share it, so p_err = 1/2 sum_t multinom(n; t)
    min(P^t, Q^t) (method of types): C(n + m - 1, m - 1) log-domain terms
    instead of m^n.  A type goes to H0 when its log-likelihoods, summed in
    outcome order, satisfy l0 >= l1: ties, and types that neither hypothesis
    can produce, go to H0.  grouping_size is the exact number of sequences
    that go to H0.  Disjoint supports give log p_err = -inf.  n < 1 is
    refused with DomainError and more than TYPES_CAP types with ResourceError,
    before any type is built.
    """
    if n < 1:
        raise DomainError("n must be positive")
    p, q = _pair(p_dist, q_dist)
    m = len(p)
    n_types = math.comb(n + m - 1, m - 1)
    if n_types > TYPES_CAP:
        raise ResourceError(f"{n_types} types of n = {n} over {m} outcomes exceed the types cap {TYPES_CAP}")
    types = _types(n, m)
    log_fact = _log_factorials(n + 1)
    log_mult = log_fact[n] - log_fact[types].sum(axis=1)
    l0 = sum(_xlogy(types[:, j], p[j]) for j in range(m))
    l1 = sum(_xlogy(types[:, j], q[j]) for j in range(m))
    accept = l0 >= l1
    terms = log_mult + np.where(accept, l1, l0)
    terms = terms[np.isfinite(terms)]
    log_err = _logsumexp(terms) - math.log(2.0) if terms.size else -math.inf
    return log_err, _multinomial_sum(types[accept], n)


def sweep_x(p: Povm, n: int, points: int | None = None):
    """Error probability against x = m/n for inputs of the form
    (rho0^m rho1^(n-m), rho1^m rho0^(n-m)); exact binomial aggregation.

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
    if n > AGGREGATION_CAP:
        raise ResourceError(f"n = {n} exceeds the aggregation cap {AGGREGATION_CAP}")
    pp, qq = _diag_qubit_rates(p)
    ms = range(n + 1)
    if points is not None and points < n + 1:
        ms = np.unique(np.linspace(0, n, points).round().astype(int)).tolist()
    blocks = sorted({min(m, n - m) for m in ms})
    if len(blocks) * (n + 1) > SWEEP_WORK_CAP:
        raise ResourceError(
            f"a sweep of {len(blocks)} blocks at n = {n} exceeds the work cap of "
            f"{SWEEP_WORK_CAP} block entries; pass fewer points"
        )
    log_errs = {b: _block_log_err(pp, qq, n, b) for b in blocks}
    rows = []
    for m in ms:
        log_err = log_errs[min(m, n - m)]
        p_err = math.exp(log_err) if math.isfinite(log_err) else 0.0
        rate = -log_err / n if math.isfinite(log_err) else math.inf
        rows.append((m / n, p_err, rate))
    return rows


def empirical_rate(p: Povm, n: int) -> float:
    """Finite-n exponent -(1/n) log p_err for the i.i.d. optimal basis pair:
    the rate of the sweep's one-point row, m = 0."""
    return sweep_x(p, n, points=1)[0][2]
