"""Direct enumerations of the exact finite-n quantities, kept as test oracles.

Each one spells out its definition cell by cell or node by node; the library
computes the same numbers with vectorized code.  proper_groupings lists
the outcome groupings that the scans visit, in their order, and basis_scan
and single_shot_scan visit one basis or grouping per step, as the optimizer
did before it stacked them.  phi_closure is the one-line
phi(s) evaluator that the buffered channel._phi_evaluator and its stacked
form must match bit for bit, and chernoff_golden is the Chernoff solve over
it alone, which the solve that prefetches its probes must match bit for
bit.  eig_hermitian_2d decomposes one matrix by itself, as eig_hermitian did
before a matrix became a stack of one, and mixed_line_search is the
golden-section --mixed refinement that the corner check replaced.
restart_sequential is one restart's coordinate-wise golden sections scored
one probe at a time, as optimize._restart ran before it read predicted
probes from one stacked call.
iid_ml_error decides the i.i.d. ML test type by type in exact rational
arithmetic, so its ties are exact, and counts the accepted sequences as an
exact int (multinomial over compositions).  checked_probs checks one flattened
distribution by itself, as the channel did before a ClassicalDistribution
checked every row of a stack, and covariant_zeta_loop scores one Bloch
direction at a time, as covariant_zeta_numeric did before it scored them
all in one row-wise call.  conditional_state applies the d^n x d^n operator
E_h1 x ... x E_hs x I to the joint state and then takes the partial trace,
as the library did before one einsum did both.  dense_adaptive is the
search over the weights of every leaf of the full tree, level by level, that
optimal_adaptive ran before it built the error-tradeoff hull.
partition_scores lists the score of every outcome-sequence partition, and
brute_force_full_sort picks its four leaders by one stable sort of all of
them, as brute_force_grouping did before it selected them in linear time.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from detpower.channel import (
    NEG_CLAMP,
    SUM_TOL,
    ClassicalDistribution,
    ExponentValue,
    chernoff_exponent,
    golden_section_min,
    induced_probs,
)
from detpower.closed_forms import COVARIANT_DIRECTIONS, fibonacci_covariant_discretization
from detpower.core import TOL_HERM, DensityMatrix, eig_hermitian
from detpower.optimize import REFINE_PASSES, REFINE_TOL, _pure_mat, _scorer
from detpower.errors import DomainError, StructuralError


def block_log_err(pp, qq, n, m):
    """log p_err of the block (rho0^m rho1^(n-m), rho1^m rho0^(n-m)) from the
    full (m+1) x (n-m+1) table of click pairs."""
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


def optimal_adaptive(p, candidates, n):
    """(p_err, choices) of the best depth-n tree by depth-first recursion;
    the first pair wins ties and zero-weight branches choose (0, 0)."""
    cands = tuple(candidates)
    m = p.n_outcomes
    singles = [induced_probs(p, c.mat) for c in cands]
    pairs = list(itertools.product(range(len(cands)), repeat=2))

    def search(depth, w0, w1, choices, hist):
        if depth == n:
            return min(w0, w1)
        if w0 == 0.0 and w1 == 0.0:
            choices[hist] = (0, 0)
            for k in range(m):
                search(depth + 1, 0.0, 0.0, choices, hist + (k,))
            return 0.0
        best = math.inf
        best_sub = None
        best_pair = None
        for i, j in pairs:
            sub = {}
            total = 0.0
            for k in range(m):
                total += search(depth + 1, w0 * singles[i][k], w1 * singles[j][k], sub, hist + (k,))
            if total < best:
                best = total
                best_sub = sub
                best_pair = (i, j)
        choices[hist] = best_pair
        choices.update(best_sub)
        return best

    choices = {}
    p_err = 0.5 * search(0, 1.0, 1.0, choices, ())
    return p_err, choices


def pattern_pair_error(p, candidates, pat0, pat1):
    """ML error of the product pair that sends candidate pat0[s] under H0 and
    pat1[s] under H1 in slot s, from the two distributions built with np.kron."""
    singles = [induced_probs(p, c.mat) for c in candidates]
    d0 = np.array([1.0])
    d1 = np.array([1.0])
    for i, j in zip(pat0, pat1):
        d0 = np.kron(d0, singles[i])
        d1 = np.kron(d1, singles[j])
    return 0.5 * float(np.sum(np.minimum(d0, d1)))


def best_product_pair(p, n, candidates):
    """(p_err, (pat0, pat1)) by scoring each pattern pair with
    pattern_pair_error; a later pair wins only if it is lower by more than 1e-15."""
    cands = list(candidates)
    nc = len(cands)
    if nc == 2:
        pattern_pairs = (
            (pat, tuple(1 - i for i in pat)) for pat in itertools.product(range(2), repeat=n)
        )
    else:
        pattern_pairs = itertools.product(
            itertools.product(range(nc), repeat=n), itertools.product(range(nc), repeat=n)
        )
    best = None
    for pat0, pat1 in pattern_pairs:
        p_err = pattern_pair_error(p, cands, pat0, pat1)
        if best is None or p_err < best[0] - 1e-15:
            best = (p_err, (pat0, pat1))
    return best


def phi_closure(p, q):
    """phi(s) = log sum_k P_k^s Q_k^(1-s) on the common support, one temporary per step."""
    mask = (p > 0) & (q > 0)
    lp = np.log(p[mask])
    lq = np.log(q[mask])

    def f(s):
        return min(float(np.log(np.exp(s * lp + (1.0 - s) * lq).sum())), 0.0)

    return f


def chernoff_golden(p, q):
    """(value, optimizer_s) of the golden section over phi_closure on [0, 1],
    the min of its value with phi at s = 0 and 1, clamped at 0, and s* clipped."""
    f = phi_closure(p, q)
    s_star, f_star = golden_section_min(f, 0.0, 1.0, xtol=1e-12)
    f_star = min(f_star, f(0.0), f(1.0))
    return float(max(-f_star, 0.0) + 0.0), float(np.clip(s_star, 0.0, 1.0))


def basis_scan(objective, p, bases):
    """(best ExponentValue, (rho, sigma)) over the ordered eigenvector pairs of
    each basis in turn: the first strict maximum, or the first infinite value."""
    best, best_pair = ExponentValue(-math.inf), None
    for evecs in bases:
        mats = [np.outer(v, v.conj()) for v in evecs.T]
        dists = [ClassicalDistribution(induced_probs(p, mat)) for mat in mats]
        for i, j in itertools.permutations(range(p.dim), 2):
            ev = objective(dists[i], dists[j])
            if ev.value > best.value:
                best, best_pair = ev, (mats[i], mats[j])
                if best.infinite:
                    return best, best_pair
    return best, best_pair


def partition_scores(p0, p1):
    """sum_a (p0 - p1) for every partition a, indexed by its code (bit b is
    sequence b), in brute_force_grouping's meet-in-the-middle sums."""
    diff = p0.probs - p1.probs
    lo_bits = len(diff) // 2
    lo, hi = np.zeros(1), np.zeros(1)
    for b in range(lo_bits):
        lo = np.concatenate((lo, lo + diff[b]))
    for b in range(lo_bits, len(diff)):
        hi = np.concatenate((hi, hi + diff[b]))
    return (lo[None, :] + hi[:, None]).ravel()


def brute_force_full_sort(p0, p1):
    """(p_err, accept) of the first minimum among the first four partitions
    of a full stable sort by score, each re-scored exactly."""
    top = np.argsort(-partition_scores(p0, p1), kind="stable")[:4]
    bits = np.arange(len(p0.probs))
    best = None
    for idx in top:
        accept = (int(idx) >> bits) & 1 == 1
        p_err = 0.5 * float(np.sum(np.where(accept, p1.probs, p0.probs)))
        if best is None or p_err < best[0]:
            best = (p_err, accept)
    return best


def proper_groupings(m):
    """The outcome tuples that hold outcome 0 and not every outcome, by size
    and then lexicographically."""
    subsets = (g for k in range(1, m) for g in itertools.combinations(range(m), k) if g[0] == 0)
    return sorted(subsets, key=lambda g: (len(g), g))


def single_shot_scan(p, groupings):
    """(spread, grouping, eigenvectors) of the first grouping whose spread
    beats every earlier one by more than 1e-15."""
    best = (-1.0, None, None)
    for group in groupings:
        evals, evecs = eig_hermitian(p.grouped_element(group))
        spread = float(evals[0] - evals[-1])
        if spread > best[0] + 1e-15:
            best = (spread, group, evecs)
    return best


def eig_hermitian_2d(mat):
    """(descending eigenvalues, eigenvector columns) of one Hermitian matrix,
    ties ordered by the row of each eigenvector's largest-magnitude entry."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"matrix must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    a = np.ascontiguousarray(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > TOL_HERM * scale:
        raise DomainError("eig_hermitian requires a Hermitian matrix")
    evals, evecs = np.linalg.eigh((a + a.conj().T) / 2)
    order = np.lexsort((np.argmax(np.abs(evecs), axis=0), -evals))
    return evals[order], evecs[:, order]


def mixed_line_search(objective, p, rho_mat, sigma_mat):
    """The ExponentValue of the mixtures ((1 - t) rho + t I/d, (1 - u) sigma + u I/d)
    that two rounds of golden-section line searches reach, over t and then u,
    each search holding the other state's latest mixture fixed."""
    eye = np.eye(p.dim) / p.dim

    def dist(mat):
        return ClassicalDistribution(induced_probs(p, mat))

    def mixed(mat, t):
        return (1 - t) * mat + t * eye

    t_r = t_s = 0.0
    for _ in range(2):
        fixed = dist(mixed(sigma_mat, t_s))
        t_r, _ = golden_section_min(lambda t: -objective(dist(mixed(rho_mat, t)), fixed).value, 0.0, 1.0, 1e-8)
        fixed = dist(mixed(rho_mat, t_r))
        t_s, _ = golden_section_min(lambda t: -objective(fixed, dist(mixed(sigma_mat, t))).value, 0.0, 1.0, 1e-8)
    return objective(fixed, dist(mixed(sigma_mat, t_s)))


def compositions(n, m):
    """Every type (k_1, ..., k_m) of n uses over m outcomes, as the gaps
    between m - 1 bars placed among n + m - 1 slots."""
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1, *bars, n + m - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def multinomial(t):
    """multinom(sum t; t) as an exact int, a product of binomials."""
    count, left = 1, sum(t)
    for k in t:
        count *= math.comb(left, k)
        left -= k
    return count


def iid_ml_error(p, q, n):
    """(p_err, grouping_size) of the ML decision between P^n and Q^n in exact
    arithmetic: each entry is the Fraction of its float, every type t of n
    is visited, and its multinom(n; t) sequences go to H0 when P^t >= Q^t."""
    p = [Fraction(float(x)) for x in p]
    q = [Fraction(float(x)) for x in q]
    p_err, size = Fraction(0), 0
    for t in compositions(n, len(p)):
        count = multinomial(t)
        pt = math.prod(x**k for x, k in zip(p, t))
        qt = math.prod(x**k for x, k in zip(q, t))
        if pt >= qt:
            size += count
        p_err += count * min(pt, qt)
    return p_err / 2, size


def checked_probs(probs):
    """A flat float copy of `probs` checked as a distribution.

    Entries above -NEG_CLAMP are clipped to 0; the sum must be 1 within SUM_TOL.
    """
    p = np.asarray(probs, dtype=float).ravel()
    if not np.all(np.isfinite(p)):
        raise DomainError("distribution has non-finite entries")
    if p.min(initial=0.0) < -NEG_CLAMP:
        raise DomainError(f"negative probability {p.min():.3e}")
    p = np.maximum(p, 0.0)
    if abs(p.sum() - 1.0) > SUM_TOL:
        raise DomainError(f"probabilities sum to {p.sum()}, not 1")
    return p


def covariant_zeta_loop(disc):
    """The Chernoff exponent along each direction in turn, keeping the first
    strict maximum above 0 and stopping at the first infinite value."""
    if disc.m == 2:
        return ExponentValue(math.inf, None)
    dirs = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    extra = fibonacci_covariant_discretization(2 * (COVARIANT_DIRECTIONS - 3)).nodes[0::2]
    dirs.extend(extra[: COVARIANT_DIRECTIONS - 3])
    best = ExponentValue(0.0, None)
    for b in dirs:
        proj = disc.nodes @ b
        p0 = np.clip((1.0 + proj) / disc.m, 0.0, None)
        p1 = np.clip((1.0 - proj) / disc.m, 0.0, None)
        ev = chernoff_exponent(p0, p1)
        if ev.value > best.value:
            best = ev
        if ev.infinite:
            break
    return best


def conditional_state(joint, p, history):
    """(state, weight) of slot s = len(history) given the outcomes so far,
    from the full operator kron(E_h..., I) times the joint state."""
    history = tuple(int(k) for k in history)
    d, n = joint.local_dim, joint.n
    s = len(history)
    op = np.array([1.0 + 0.0j])
    for k in history:
        op = np.kron(op, p.elements[k])
    op = np.kron(op, np.eye(d ** (n - s), dtype=complex))
    t = (op @ joint.mat).reshape((d,) * n + (d,) * n)
    row_labels = [i if i != s else 2 * n for i in range(n)]
    col_labels = [i if i != s else 2 * n + 1 for i in range(n)]
    cond = np.einsum(t, row_labels + col_labels, [2 * n, 2 * n + 1])
    weight = float(np.trace(cond).real)
    if weight <= 1e-15:
        return None, 0.0
    cond = cond / weight
    cond = (cond + cond.conj().T) / 2
    return DensityMatrix(cond), weight


def dense_adaptive(p, candidates, n):
    """(p_err, choices) of the best depth-n tree from the weights of every
    leaf, (|C|^2 m)^n of them, built level by level and reduced bottom-up:
    the outcomes are summed in k order, the first pair wins ties, and
    zero-weight branches choose (0, 0)."""
    cands = tuple(candidates)
    m = p.n_outcomes
    pairs = list(itertools.product(range(len(cands)), repeat=2))
    singles = np.array([induced_probs(p, c.mat) for c in cands])
    f0 = singles[[i for i, _ in pairs]]
    f1 = singles[[j for _, j in pairs]]
    w0, w1 = np.ones(1), np.ones(1)
    for _ in range(n):
        w0 = (w0[:, None, None] * f0).ravel()
        w1 = (w1[:, None, None] * f1).ravel()
    value = np.minimum(w0, w1)
    best = []
    for _ in range(n):
        branch = value.reshape(-1, len(pairs), m)
        total = 0.0
        for k in range(m):
            total = total + branch[:, :, k]
        best.append(np.argmin(total, axis=1))
        value = total.min(axis=1)
    best.reverse()
    choices = {}
    nodes = {(): 0}
    for level in best:
        nxt = {}
        for hist, node in nodes.items():
            pair = int(level[node])
            choices[hist] = pairs[pair]
            for k in range(m):
                nxt[hist + (k,)] = (node * len(pairs) + pair) * m + k
        nodes = nxt
    return 0.5 * float(value[0]), dict(sorted(choices.items()))


def restart_sequential(objective, p, params):
    """(ExponentValue, rho_mat, sigma_mat) of one restart from the angles params,
    refined in place: coordinate-wise golden sections whose every probe is
    scored by objective(P, Q), with -v minimized, +inf as -1e300 and NaN or
    -inf as +1e300, and a NaN start value counted as -inf."""
    d = p.dim
    dist, score = _scorer(objective, p)
    n = 2 * (d - 1)
    halves = (slice(0, n), slice(n, 2 * n))
    cur = score(*(_pure_mat(params[h], d) for h in halves)).value
    if math.isnan(cur):
        cur = -math.inf
    width = math.pi / 2
    for _ in range(REFINE_PASSES):
        improved = 0.0
        for idx in range(2 * n):
            side, k = divmod(idx, n)
            moved = params[halves[side]].copy()
            pair = [None, None]
            pair[1 - side] = dist(_pure_mat(params[halves[1 - side]], d))

            def along(x, side=side, k=k, moved=moved, pair=pair):
                moved[k] = x
                pair[side] = dist(_pure_mat(moved, d))
                v = objective(*pair).value
                if math.isfinite(v):
                    return -v
                return -1e300 if v > 0.0 else 1e300

            x0 = params[idx]
            x, negv = golden_section_min(along, x0 - width, x0 + width, xtol=1e-7)
            if -negv > cur:
                improved += -negv - cur
                cur = -negv
                params[idx] = x
        width *= 0.5
        if improved < REFINE_TOL:
            break
    rho_mat, sigma_mat = (_pure_mat(params[h], d) for h in halves)
    return score(rho_mat, sigma_mat), rho_mat, sigma_mat
