"""Exact error probabilities for n repeated uses of the detector.

Two representations are used: dense outcome-sequence distributions for small
m^n, and binomially aggregated counts (log domain) for two-element qubit
POVMs at large n, where the pattern-fraction sweeps and rate checks live.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .channel import induced_probs
from .core import DensityMatrix, GroupingMask, Povm, eig_hermitian
from .errors import DomainError, ResourceError, StructuralError

DENSE_CAP = 2**20
BRUTE_CAP = 20


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


@dataclass(frozen=True)
class SequenceDistribution:
    """Probabilities over outcome sequences k^n, flattened with k_1 most significant."""

    m: int
    n: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).ravel()
        if len(p) != self.m**self.n:
            raise StructuralError("length must be m^n")
        if p.min(initial=0.0) < -1e-12:
            raise DomainError("negative sequence probability")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-9:
            raise DomainError(f"sequence probabilities sum to {p.sum()}")
        object.__setattr__(self, "probs", p)
        self.probs.setflags(write=False)

    def sequence(self, index: int) -> tuple:
        digits = []
        for _ in range(self.n):
            index, k = divmod(index, self.m)
            digits.append(k)
        return tuple(reversed(digits))


def sequence_distribution(p: Povm, inp: ProductInput, cap: int = DENSE_CAP) -> SequenceDistribution:
    """Product distribution over outcome sequences for independent slot inputs."""
    m, n = p.n_outcomes, inp.n
    if m**n > cap:
        raise ResourceError(f"{m}^{n} sequences exceed the dense cap {cap}")
    probs = np.array([1.0])
    for rho in inp.factors:
        probs = np.kron(probs, induced_probs(p, rho.mat))
    return SequenceDistribution(m, n, probs)


def _grouping_error(p0: np.ndarray, p1: np.ndarray, accept_h0: np.ndarray) -> float:
    # fixed per-index summation order so identical groupings give identical floats
    return 0.5 * float(np.sum(np.where(accept_h0, p1, p0)))


def ml_error_probability(p0: SequenceDistribution, p1: SequenceDistribution):
    """Minimum average error and its maximum-likelihood grouping (ties to H0)."""
    if (p0.m, p0.n) != (p1.m, p1.n):
        raise StructuralError("sequence distributions are over different index sets")
    accept = p0.probs >= p1.probs
    p_err = _grouping_error(p0.probs, p1.probs, accept)
    mask = GroupingMask(frozenset(np.flatnonzero(accept).tolist()), len(p0.probs))
    return p_err, mask


def brute_force_grouping(p0: SequenceDistribution, p1: SequenceDistribution):
    """Exact minimum over all 2^(m^n) outcome-sequence partitions (oracle)."""
    if (p0.m, p0.n) != (p1.m, p1.n):
        raise StructuralError("sequence distributions are over different index sets")
    nseq = len(p0.probs)
    if nseq > BRUTE_CAP:
        raise ResourceError(f"2^{nseq} partitions exceed the brute-force cap 2^{BRUTE_CAP}")
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
    best = None
    for idx in top:
        accept = np.zeros(nseq, dtype=bool)
        code = int(idx)
        for b in range(lo_bits):
            accept[b] = bool((code % (1 << lo_bits)) >> b & 1)
        for b in range(hi_bits):
            accept[lo_bits + b] = bool((code >> lo_bits) >> b & 1)
        p_err = _grouping_error(p0.probs, p1.probs, accept)
        if best is None or p_err < best[0]:
            best = (p_err, accept)
    p_err, accept = best
    mask = GroupingMask(frozenset(np.flatnonzero(accept).tolist()), nseq)
    return p_err, mask


def best_product_pair(p: Povm, n: int, candidates, cap: int = DENSE_CAP):
    """Exhaustive ML error over slot-wise assignments of candidate states.

    For a two-candidate set the sigma pattern is the index-swapped complement of
    the rho pattern (the basis-pair case); otherwise both patterns are
    enumerated independently.
    """
    cands = list(candidates)
    if len(cands) < 2:
        raise DomainError("need at least two candidate states")
    nc = len(cands)
    singles = [induced_probs(p, c.mat) for c in cands]
    if nc == 2:
        pattern_pairs = (
            (pat, tuple(1 - i for i in pat)) for pat in itertools.product(range(2), repeat=n)
        )
        count = 2**n
    else:
        pattern_pairs = itertools.product(
            itertools.product(range(nc), repeat=n), itertools.product(range(nc), repeat=n)
        )
        count = nc ** (2 * n)
    if count * (p.n_outcomes**n) > cap:
        raise ResourceError("candidate-pattern enumeration exceeds the configured cap")
    best = None
    for pat0, pat1 in pattern_pairs:
        d0 = np.array([1.0])
        d1 = np.array([1.0])
        for i, j in zip(pat0, pat1):
            d0 = np.kron(d0, singles[i])
            d1 = np.kron(d1, singles[j])
        p_err = 0.5 * float(np.sum(np.minimum(d0, d1)))
        if best is None or p_err < best[0] - 1e-15:
            best = (p_err, (pat0, pat1))
    return best


def _diag_qubit_rates(p: Povm):
    """Eigenvalues (p, q) of the first element of a two-element qubit POVM, p >= q."""
    if p.dim != 2 or p.n_outcomes != 2:
        raise DomainError("binomial aggregation needs a two-element qubit POVM")
    evals, _ = eig_hermitian(p.elements[0])
    return float(evals[0]), float(evals[1])


def _block_log_err(pp: float, qq: float, n: int, m: int) -> float:
    """log p_err for the pair (rho0^m rho1^(n-m), rho1^m rho0^(n-m)) under a
    diagonal two-outcome channel with click rates (pp, qq)."""
    i = np.arange(m + 1)
    j = np.arange(n - m + 1)
    lw = (
        gammaln(m + 1) - gammaln(i + 1) - gammaln(m - i + 1)
    )[:, None] + (gammaln(n - m + 1) - gammaln(j + 1) - gammaln(n - m - j + 1))[None, :]
    l0 = (xlogy(i, pp) + xlogy(m - i, 1 - pp))[:, None] + (xlogy(j, qq) + xlogy(n - m - j, 1 - qq))[None, :]
    l1 = (xlogy(i, qq) + xlogy(m - i, 1 - qq))[:, None] + (xlogy(j, pp) + xlogy(n - m - j, 1 - pp))[None, :]
    with np.errstate(invalid="ignore"):
        terms = lw + np.minimum(l0, l1)
    terms = terms[np.isfinite(terms)]
    if terms.size == 0:
        return -math.inf
    return float(logsumexp(terms) - math.log(2.0))


def sweep_x(p: Povm, n: int, cap: int = 10**5):
    """Error probability against x = m/n for inputs of the form
    (rho0^m rho1^(n-m), rho1^m rho0^(n-m)); exact binomial aggregation.

    Returns a list of (x, p_err, rate) rows for m = 0..n.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n > cap:
        raise ResourceError(f"n = {n} exceeds the aggregation cap {cap}")
    pp, qq = _diag_qubit_rates(p)
    rows = []
    for m in range(n + 1):
        log_err = _block_log_err(pp, qq, n, m)
        p_err = math.exp(log_err) if math.isfinite(log_err) else 0.0
        rate = -log_err / n if math.isfinite(log_err) else math.inf
        rows.append((m / n, p_err, rate))
    return rows


def empirical_rate(p: Povm, n: int, cap: int = 10**5) -> float:
    """Finite-n exponent -(1/n) log p_err for the i.i.d. optimal basis pair."""
    if n < 1:
        raise DomainError("n must be positive")
    if n > cap:
        raise ResourceError(f"n = {n} exceeds the aggregation cap {cap}")
    pp, qq = _diag_qubit_rates(p)
    return -_block_log_err(pp, qq, n, n) / n
