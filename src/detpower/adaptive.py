"""Measurement-feedback protocols: conditional states, strategy evaluation,
and the exact optimal adaptive search on the error-tradeoff hull."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import candidate_probs
from .core import DensityMatrix, Povm
from .errors import DomainError, ResourceError, StructuralError
from .finite import DENSE_CAP

# Work cap of optimal_adaptive, in point visits: a level costs LEVEL_VISITS
# plus the points it forms, (|C|(|C| - 1) m + |C|) |L_{r-1}|, and each of its
# pruning passes costs PASS_VISITS plus the points the pass checks.  A visit
# takes 0.14-0.16 us on a 2-vCPU Xeon, so the cap is about 1.5 s: the bundled
# basis pair reaches n = 52 (1.4 s, 48k vertices) and four random qubit
# candidates n = 38-41 (1.4-1.7 s).  Depths whose levels alone pass the cap,
# n >= 9941 for two candidates on two outcomes, are refused before any
# level is built.
HULL_CAP = 10**7
LEVEL_VISITS = 1000
PASS_VISITS = 200
# points a level forms and prunes in one batch, at least one candidate
# pair's (a batch's work arrays peak near 100 MB)
CHUNK_POINTS = 2**18


def _over_cap() -> ResourceError:
    return ResourceError(f"the adaptive search passes the hull cap of {HULL_CAP} point visits")


@dataclass(frozen=True, eq=False)
class AdaptiveStrategy:
    """Depth-n preparation tree over a finite candidate-state set.

    choices maps each outcome history (0-based tuple, length < depth) to a pair
    of candidate indices: the state sent next under H0 and under H1.  The final
    decision is maximum-likelihood unless an explicit accept-H0 grouping over
    full-length histories is given.
    """

    depth: int
    candidates: tuple
    choices: dict
    grouping: frozenset | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise StructuralError("strategy depth must be at least 1")
        cands = tuple(self.candidates)
        if not cands:
            raise StructuralError("strategy needs at least one candidate state")
        nc = len(cands)
        for hist, (i, j) in self.choices.items():
            if len(hist) >= self.depth:
                raise StructuralError(f"choice at history {hist} is beyond the tree depth")
            if not (0 <= i < nc and 0 <= j < nc):
                raise StructuralError(f"candidate index out of range at history {hist}")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "choices", dict(self.choices))
        if self.grouping is not None:
            grouping = frozenset(self.grouping)
            for hist in grouping:
                if not isinstance(hist, tuple) or len(hist) != self.depth:
                    raise StructuralError(
                        f"grouping entry {hist!r} is not an outcome history of length {self.depth}"
                    )
            object.__setattr__(self, "grouping", grouping)


class AdaptiveSearch(tuple):
    """The (p_err, strategy) pair that optimal_adaptive returns, with the
    size of its final error-tradeoff hull L_n as hull_vertices; strategy is
    None when the tree is beyond the dense cap.  It compares, hashes and
    unpacks as the pair."""

    def __new__(cls, p_err: float, strategy: AdaptiveStrategy | None, hull_vertices: int):
        search = super().__new__(cls, (p_err, strategy))
        search.hull_vertices = hull_vertices
        return search

    def __getnewargs__(self):  # for copy and pickle
        return (*self, self.hull_vertices)

    @property
    def p_err(self) -> float:
        return self[0]

    @property
    def strategy(self) -> AdaptiveStrategy | None:
        return self[1]


@dataclass(frozen=True, eq=False)
class JointState:
    """Density matrix on the n-fold product space."""

    mat: np.ndarray
    local_dim: int
    n: int

    def __post_init__(self):
        dm = DensityMatrix(self.mat)  # validates hermiticity/PSD/trace
        if dm.dim != self.local_dim**self.n:
            raise StructuralError(
                f"joint dimension {dm.dim} is not {self.local_dim}^{self.n}"
            )
        object.__setattr__(self, "mat", dm.mat)


def conditional_state(joint: JointState, p: Povm, history):
    """Alice's step-s preparation given the outcomes so far.

    Returns (state, weight) where weight is the probability of the history and
    state is the normalized conditional reduced state on slot s = len(history)+1.
    Zero-weight histories return (None, 0.0).
    """
    history = tuple(int(k) for k in history)
    d, n = joint.local_dim, joint.n
    if p.dim != d:
        raise StructuralError("POVM dimension does not match the joint state")
    s = len(history)
    if s >= n:
        raise StructuralError("history is already complete")
    for k in history:
        if not 0 <= k < p.n_outcomes:
            raise StructuralError(f"outcome {k} out of range")
    # row slot i of the joint state is label i, column slot i is n + i; E_{h_i}
    # joins the two for i < s, and the slots after s are traced out
    ops = [x for i, k in enumerate(history) for x in (p.elements[k], [n + i, i])]
    cols = [n + i if i <= s else i for i in range(n)]
    cond = np.einsum(*ops, joint.mat.reshape((d,) * (2 * n)), list(range(n)) + cols, [s, n + s])
    weight = float(np.trace(cond).real)
    if weight <= 1e-15:
        return None, 0.0
    cond = cond / weight
    cond = (cond + cond.conj().T) / 2
    return DensityMatrix(cond), weight


def _history_weights(p: Povm, strat: AdaptiveStrategy):
    """Forward recursion: unnormalized probabilities under H0 and H1 of the
    full-length histories that at least one hypothesis can produce."""
    m = p.n_outcomes
    singles = candidate_probs(p, strat.candidates).probs.tolist()
    layer = {(): (1.0, 1.0)}
    for _ in range(strat.depth):
        nxt = {}
        for hist, (w0, w1) in layer.items():
            if hist not in strat.choices:
                raise StructuralError(f"strategy tree has no choice at history {hist}")
            i, j = strat.choices[hist]
            for k in range(m):
                v0, v1 = w0 * singles[i][k], w1 * singles[j][k]
                if v0 or v1:
                    nxt[hist + (k,)] = (v0, v1)
        layer = nxt
    return layer


def evaluate_strategy(p: Povm, strat: AdaptiveStrategy) -> float:
    """Average error probability of the protocol under equal priors.

    Only histories of nonzero weight are visited, so the work grows with the
    strategy's live branches, not with m^depth.  The leaf weights are summed
    with math.fsum, so the sum is correctly rounded however many leaves.
    """
    leaves = _history_weights(p, strat)
    if strat.grouping is not None:
        for h in strat.grouping:
            if not all(k in range(p.n_outcomes) for k in h):
                raise StructuralError(f"grouping history {h} is not an outcome sequence")
        alpha = math.fsum(w0 for h, (w0, w1) in leaves.items() if h not in strat.grouping)
        beta = math.fsum(w1 for h, (w0, w1) in leaves.items() if h in strat.grouping)
        return 0.5 * (alpha + beta)
    return 0.5 * math.fsum(min(w0, w1) for w0, w1 in leaves.values())


def _hull_level(alpha, beta, a, b, sums, budget):
    """(alpha, beta, pruning visits) of the next level of the error-tradeoff
    hull, whose pruning may cost `budget` visits.

    (alpha, beta) is L_{r-1}: h vertices, alpha increasing and beta
    decreasing along a strictly convex chain.  Row q of a and b holds P_i
    and P_j of a candidate pair with i != j (_pair_points); a pair (i, i)
    sums the chain with weights summing to sums[i], so its points are
    sums[i] L_{r-1}.  L_r is the lower-left convex hull of all these points
    (_lower_left_hull), (len(a) m + len(sums)) h of them.  The pairs are
    taken CHUNK_POINTS points at a time, and the points held are pruned
    whenever they pass CHUNK_POINTS, so that memory stays bounded however
    many pairs there are.
    """
    h, m = len(alpha), a.shape[1]
    x, y = np.outer(sums, alpha).ravel(), np.outer(sums, beta).ravel()
    step = max(1, CHUNK_POINTS // (m * h))
    visits = 0
    for lo in range(0, len(a), step):
        px, py = _pair_points(alpha, beta, a[lo : lo + step], b[lo : lo + step])
        x, y = np.concatenate((x, px)), np.concatenate((y, py))
        if len(x) > CHUNK_POINTS:
            keep, cost = _lower_left_hull(x, y, budget - visits)
            x, y, visits = x[keep], y[keep], visits + cost
    keep, cost = _lower_left_hull(x, y, budget - visits)
    return x[keep], y[keep], visits + cost


def _pair_points(alpha, beta, a, b):
    """(alpha, beta) of the m h points that each pair (row of a and b) forms
    from the chain L_{r-1} = (alpha, beta) of h vertices.

    The pair scales the chain by diag(a[q, k], b[q, k]) for each outcome k.
    The Minkowski sum over k is a merge of the scaled chains' edges by slope:
    its point t takes vertex c_k of chain k, where c_k counts chain k's edges
    among the first t.  A chain scaled to a point on an axis keeps its
    vertex nearest the other axis.  The points are formed in blocks of m
    merge steps: at each block boundary directly as (sum_k a[q, k]
    alpha[c_k], sum_k b[q, k] beta[c_k]), inside a block as alpha from the
    block's start plus the edges taken since and beta from the block's end
    plus the edges still to take.  Every term is nonnegative, so no point
    loses more than a sum of 2m terms.
    """
    h = len(alpha)
    npairs, m = a.shape
    active = (a > 0) & (b > 0)
    start = np.where(a > 0, 0, h - 1)
    # edge e joins vertices e and e + 1; a padding step takes edge h - 1, of length 0
    d_alpha, d_beta = np.diff(alpha, append=alpha[-1]), -np.diff(beta, append=beta[-1])
    # edge slopes increase along the chain; accumulate so round-off keeps that order
    slope = np.maximum.accumulate(-d_beta[:-1] / d_alpha[:-1])
    ratio = np.divide(b, a, out=np.zeros_like(a), where=active)
    keys = np.where(active[..., None], ratio[..., None] * slope, np.inf).reshape(npairs, m * (h - 1))
    # each pair's edges in merge order, then one block of padding; a chain
    # scaled to a point sorts last and takes no step
    order = np.argsort(keys, axis=1, kind="stable")
    pad = np.zeros((npairs, m), dtype=np.intp)
    k = np.concatenate((order // max(h - 1, 1), pad), axis=1)
    e = np.concatenate((order % max(h - 1, 1), pad + h - 1), axis=1)
    real = np.take_along_axis(active, k, 1)
    real[:, -m:] = False
    rows = np.arange(npairs)[:, None]
    # c_k[q, k, j] at block boundary j = 0..h
    block = np.arange(h * m) // m
    taken = np.bincount(((rows * m + k) * (h + 1) + block + 1)[real], minlength=npairs * m * (h + 1))
    c = start[..., None] + np.cumsum(taken.reshape(npairs, m, h + 1), axis=2)
    at_a = (a[..., None] * alpha[c]).sum(axis=1)
    at_b = (b[..., None] * beta[c]).sum(axis=1)

    # step u of block j sits at [q, u, j]
    def per_step(w, d):
        return np.where(real, w[rows, k] * d[e], 0.0).reshape(npairs, h, m).transpose(0, 2, 1)

    up, down = per_step(a, d_alpha), per_step(b, d_beta)
    before = np.cumsum(np.concatenate((np.zeros((npairs, 1, h)), up[:, :-1]), axis=1), axis=1)
    after = np.cumsum(down[:, ::-1], axis=1)[:, ::-1]
    return (at_a[:, None, :-1] + before).ravel(), (at_b[:, None, 1:] + after).ravel()


def _lower_left_hull(x, y, budget):
    """(indices, visits): the vertices of the lower-left convex hull of the
    points (x, y) in x order, and what its pruning passes cost.

    In x order, the points below every earlier one in y, and the last of
    each x.  These are linked to their neighbours, and pass after pass a
    point goes when the slope does not increase across it; a pass checks
    only the points next to those the last one dropped, and drops no two
    neighbours at once, so that each link is mended by one assignment.  A
    pass costs the points it checks plus PASS_VISITS; passes that would cost
    more than `budget` raise ResourceError.
    """
    idx = np.argsort(x, kind="stable")
    yy = y[idx]
    idx = idx[yy < np.minimum.accumulate(np.r_[np.inf, yy[:-1]])]
    xx = x[idx]
    idx = idx[np.r_[xx[1:] != xx[:-1], True]]
    xx, yy, n = x[idx], y[idx], len(idx)
    before, after = np.arange(n) - 1, np.arange(n) + 1
    alive, going = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    check, visits = np.arange(1, n - 1), 0
    while check.size:
        visits += check.size + PASS_VISITS
        if visits > budget:
            raise _over_cap()
        lo, hi = before[check], after[check]
        into = (yy[check] - yy[lo]) / (xx[check] - xx[lo])
        bad = check[into >= (yy[hi] - yy[check]) / (xx[hi] - xx[check])]
        going[bad] = True
        gone = bad[~going[before[bad]]]
        going[bad] = False
        lo, hi = before[gone], after[gone]
        after[lo], before[hi] = hi, lo
        alive[gone] = False
        check = np.unique(np.concatenate((bad[alive[bad]], lo, hi)))
        check = check[(check > 0) & (check < n - 1)]
    return idx[alive], visits


def _hull_values(alpha, beta, w0, w1):
    """V(w0, w1) = min over the hull (alpha, beta) of w0 alpha + w1 beta,
    elementwise: the vertex is the one after every edge along which
    w0 alpha + w1 beta falls."""
    slope = np.diff(beta) / np.diff(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.searchsorted(slope, np.where(w1 > 0, -w0 / w1, -np.inf))
    return w0 * alpha[v] + w1 * beta[v]


def optimal_adaptive(p: Povm, candidates, n: int) -> AdaptiveSearch:
    """Exact minimum error over all depth-n strategy trees with ML decision,
    and an optimal tree while it fits the dense cap.

    V_n(w0, w1) = min over trees of sum_leaves min(w0 a, w1 b) is concave
    and 1-homogeneous, so it is the lower envelope of a finite set L_n of
    (type-I, type-II) error pairs of deterministic trees.  L_0 = {(0, 1),
    (1, 0)}; L_r is the lower-left convex hull of the union over candidate
    pairs (i, j) of the Minkowski sums over outcomes k of diag(P_i(k),
    P_j(k)) L_{r-1} (_hull_level); and p_err = 1/2 min over L_n of
    (alpha + beta).  Returns AdaptiveSearch(p_err, strategy, |L_n|), which
    unpacks as (p_err, strategy).

    The tree is built while (max(|C|, 2)^2 m)^n <= finite.DENSE_CAP (2^20),
    the leaves of the full search tree; beyond it strategy is None.  It is
    built top-down from the stored hulls: a node of weights (w0, w1) with r
    uses left takes the first pair (i, j) whose sum over k of V_{r-1}(w0
    P_i(k), w1 P_j(k)) is least, so zero-weight branches take (0, 0).

    n < 1, an empty candidate set and a detector with fewer than 2 outcomes
    are refused with DomainError.  A search whose point visits pass HULL_CAP
    is refused with ResourceError: before any level is built when n levels
    of one-vertex hulls would pass it, and otherwise where it is passed.

    Every pair's points are formed and pruned, so many candidates cost even
    at n = 1, where the dense search over the tree's leaves
    (tests/oracles.dense_adaptive) reduces one array: 724 random qubit
    candidates on two outcomes, 524k pairs, take 0.7-0.8 s and 81 MB (peak
    under tracemalloc) against its 0.17-0.29 s and 76 MB on a 2-vCPU Xeon.
    """
    cands = tuple(candidates)
    if n < 1:
        raise DomainError("depth must be positive")
    if not cands:
        raise DomainError("need at least one candidate state")
    m = p.n_outcomes
    if m < 2:
        raise DomainError("POVM must have at least 2 outcomes")
    nc = len(cands)
    # points formed per vertex of the previous level
    per_vertex = nc * (nc - 1) * m + nc
    if n * (LEVEL_VISITS + per_vertex) > HULL_CAP:
        raise ResourceError(f"depth {n} needs over {HULL_CAP} point visits, the hull cap")
    base = max(nc, 2) ** 2 * m
    # base >= 8, so base^21 > DENSE_CAP and a larger n need not be powered
    tree = base ** min(n, 21) <= DENSE_CAP
    singles = candidate_probs(p, cands).probs
    # pair q = (i, j) = divmod(q, nc), in (i, j) order
    i, j = np.divmod(np.arange(nc * nc), nc)
    a, b, off = singles[i], singles[j], i != j
    sums = singles.sum(axis=1)
    hulls = [(np.array([0.0, 1.0]), np.array([1.0, 0.0]))]
    work = 0
    for _ in range(n):
        work += LEVEL_VISITS + per_vertex * len(hulls[-1][0])
        if work > HULL_CAP:
            raise _over_cap()
        alpha, beta, visits = _hull_level(*hulls[-1], a[off], b[off], sums, HULL_CAP - work)
        work += visits
        # the tree is built from every level, the error from the last
        hulls = (hulls if tree else []) + [(alpha, beta)]
    alpha, beta = hulls[-1]
    p_err = 0.5 * float(np.min(alpha + beta))
    if not tree:
        return AdaptiveSearch(p_err, None, len(alpha))
    # one depth at a time, histories in k_1-most-significant order
    choices: dict = {}
    w0, w1 = np.ones(1), np.ones(1)
    for depth in range(n):
        x = w0[:, None, None] * a
        y = w1[:, None, None] * b
        best = np.argmin(_hull_values(*hulls[n - depth - 1], x, y).sum(axis=2), axis=1)
        rho, sigma = np.divmod(best, nc)
        choices.update(zip(itertools.product(range(m), repeat=depth), zip(rho.tolist(), sigma.tolist())))
        w0 = x[np.arange(len(best)), best].ravel()
        w1 = y[np.arange(len(best)), best].ravel()
    strategy = AdaptiveStrategy(depth=n, candidates=cands, choices=dict(sorted(choices.items())))
    return AdaptiveSearch(p_err, strategy, len(alpha))
