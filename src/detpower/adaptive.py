"""Measurement-feedback protocols: conditional states, strategy evaluation,
and exhaustive search over strategy trees at desk scale."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import candidate_probs
from .core import DensityMatrix, Povm
from .errors import DomainError, ResourceError, StructuralError
from .finite import DENSE_CAP


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
    strategy's live branches, not with m^depth.
    """
    leaves = _history_weights(p, strat)
    if strat.grouping is not None:
        for h in strat.grouping:
            if not all(k in range(p.n_outcomes) for k in h):
                raise StructuralError(f"grouping history {h} is not an outcome sequence")
        alpha = sum(w0 for h, (w0, w1) in leaves.items() if h not in strat.grouping)
        beta = sum(w1 for h, (w0, w1) in leaves.items() if h in strat.grouping)
        return 0.5 * (alpha + beta)
    return 0.5 * sum(min(w0, w1) for w0, w1 in leaves.values())


def optimal_adaptive(p: Povm, candidates, n: int):
    """Exact minimum error over all depth-n strategy trees with ML decision.

    Exhaustive over per-history candidate-pair choices.  n < 1, an empty
    candidate set and a detector with fewer than 2 outcomes are refused with
    DomainError; then a search whose leaf arrays, (max(|C|, 2)^2 m)^n floats,
    exceed finite.DENSE_CAP (2^20) is refused with ResourceError.  At least
    two candidates are counted so that a single candidate cannot admit a
    tree of 2^20 nodes.  The weights of all leaves are built level by level
    and reduced bottom-up; at the budget each leaf array holds 2^20 floats
    (8 MB) and at most three are alive at once.  Measured at the budget on a
    2-vCPU Xeon: 4 candidates at m = 2, n = 4 take 0.08 s and 25 MB above
    the loaded inputs.  The worst shapes measured are 724 candidates at
    m = 2, n = 1 (0.24 s and 77 MB, mostly the list of candidate pairs) and
    one candidate on a 2^18-outcome detector at n = 1 (0.9 s, within the
    memory of the detector itself).  Ties go to the first candidate pair in
    (i, j) order, and zero-weight branches choose (0, 0).
    """
    cands = tuple(candidates)
    if n < 1:
        raise DomainError("depth must be positive")
    if not cands:
        raise DomainError("need at least one candidate state")
    m = p.n_outcomes
    if m < 2:
        raise DomainError("POVM must have at least 2 outcomes")
    base = max(len(cands), 2) ** 2 * m
    # base >= 8, so base^21 > DENSE_CAP and a larger n need not be powered
    if base ** min(n, 21) > DENSE_CAP:
        raise ResourceError(f"strategy search needs {base}^{n} leaves, beyond the dense cap {DENSE_CAP}")
    pairs = list(itertools.product(range(len(cands)), repeat=2))
    singles = candidate_probs(p, cands).probs
    # (pair, outcome) factors of the H0 and H1 weights at every branch
    f0 = singles[[i for i, _ in pairs]]
    f1 = singles[[j for _, j in pairs]]
    # node weights of each level, flattened as (pair, outcome) digits, root first
    w0, w1 = np.ones(1), np.ones(1)
    for _ in range(n):
        w0 = (w0[:, None, None] * f0).ravel()
        w1 = (w1[:, None, None] * f1).ravel()
    value = np.minimum(w0, w1)
    del w0, w1
    # bottom-up: sum the outcomes in k order, then keep the first best pair
    best = []
    for _ in range(n):
        branch = value.reshape(-1, len(pairs), m)
        total = 0.0
        for k in range(m):
            total = total + branch[:, :, k]
        best.append(np.argmin(total, axis=1))
        value = total.min(axis=1)
    best.reverse()
    # top-down: follow the chosen pairs to index each history's node
    choices: dict = {}
    nodes = {(): 0}
    for level in best:
        nxt = {}
        for hist, node in nodes.items():
            pair = int(level[node])
            choices[hist] = pairs[pair]
            for k in range(m):
                nxt[hist + (k,)] = (node * len(pairs) + pair) * m + k
        nodes = nxt
    p_err = 0.5 * float(value[0])
    return p_err, AdaptiveStrategy(depth=n, candidates=cands, choices=dict(sorted(choices.items())))
