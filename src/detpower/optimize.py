"""Optimization over input state pairs for a fixed detector.

single_shot_power is exact (spread formula over all outcome groupings).
The asymptotic exponents are maximized over state pairs by an exhaustive
scan of eigenvector pairs of grouped elements plus seeded random restarts
with coordinate-wise golden-section refinement, so the reported value is a
certified-achievable lower bound on the true exponent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ExponentValue,
    chernoff_exponent,
    golden_section_min,
    hoeffding_exponent,
    induced_probs,
    relative_entropy,
)
from .core import DensityMatrix, GroupingMask, Povm, eig_hermitian
from .errors import DomainError, ResourceError

MAX_OUTCOMES_SINGLE_SHOT = 24
# beyond this many outcomes the 2^(m-1) grouping scan is replaced by
# per-element eigenbases (capped), keeping the search tractable
MAX_OUTCOMES_GROUPING_SCAN = 14
MAX_BASIS_ELEMENTS = 256
# coordinate-wise refinement passes per restart; each pass halves the bracket,
# and a pass that gains less than REFINE_TOL ends the refinement
REFINE_PASSES = 4
REFINE_TOL = 1e-10


@dataclass(frozen=True)
class SearchOptions:
    restarts: int = 64
    seed: int = 0
    mixed: bool = False


@dataclass(frozen=True)
class StatePair:
    rho: DensityMatrix
    sigma: DensityMatrix

    def __post_init__(self):
        if self.rho.dim != self.sigma.dim:
            raise DomainError("state pair must share one dimension")


@dataclass
class PowerReport:
    value: float
    optimizer: StatePair | None
    grouping: GroupingMask | None = None
    s_star: float | None = None
    restarts_used: int = 0


def _proper_groupings(m: int):
    """Non-trivial outcome subsets containing outcome 0 (complements are redundant:
    the spread of I - E^a equals the spread of E^a)."""
    rest = list(range(1, m))
    for size in range(0, m - 1):
        for combo in itertools.combinations(rest, size):
            yield (0,) + combo


def single_shot_power(p: Povm) -> PowerReport:
    """Minimum single-use error probability 1/2 - max_a spread(E^a)/2.

    The scan diagonalizes every one of the 2^(m-1) - 1 proper groupings, so
    its time doubles with each outcome: at d = 2 on a 2-vCPU Xeon it takes
    about 2.5 s at m = 16 and 10 s at m = 18, and so about 11 min at the cap
    of MAX_OUTCOMES_SINGLE_SHOT = 24 outcomes.
    """
    m = p.n_outcomes
    if m > MAX_OUTCOMES_SINGLE_SHOT:
        raise ResourceError(
            f"{m} outcomes means 2^{m - 1} groupings; use the heuristic exponent search instead"
        )
    best_spread = -1.0
    best = None
    for group in _proper_groupings(m):
        ea = p.grouped_element(group)
        evals, evecs = eig_hermitian(ea)
        spread = float(evals[0] - evals[-1])
        if spread > best_spread + 1e-15:
            best_spread = spread
            best = (group, evals, evecs)
    group, evals, evecs = best
    rho = DensityMatrix.pure(evecs[:, 0])
    sigma = DensityMatrix.pure(evecs[:, -1])
    value = min(max(0.5 - best_spread / 2.0, 0.0), 0.5)
    return PowerReport(
        value=value,
        optimizer=StatePair(rho, sigma),
        grouping=GroupingMask(np.isin(np.arange(m), group)),
    )


def _pure_vec(params: np.ndarray, d: int) -> np.ndarray:
    """Unit vector on the complex (d-1)-sphere from 2(d-1) real angles."""
    thetas = params[: d - 1]
    phases = params[d - 1 :]
    amps = np.ones(d)
    for i, th in enumerate(thetas):
        amps[i] *= math.cos(th)
        amps[i + 1 :] *= math.sin(th)
    v = amps.astype(complex)
    v[1:] *= np.exp(1j * phases)
    return v


def _pair_mats(params: np.ndarray, d: int):
    n = 2 * (d - 1)
    v1 = _pure_vec(params[:n], d)
    v2 = _pure_vec(params[n : 2 * n], d)
    return np.outer(v1, v1.conj()), np.outer(v2, v2.conj())


def _candidate_bases(p: Povm):
    """Eigenbases of grouped elements (small m) or of single elements (large m)."""
    if p.n_outcomes <= MAX_OUTCOMES_GROUPING_SCAN:
        ops = [p.grouped_element(g) for g in _proper_groupings(p.n_outcomes)]
    else:
        ops = [np.asarray(e) for e in p.elements[:MAX_BASIS_ELEMENTS]]
    for op in ops:
        _, evecs = eig_hermitian(op)
        yield evecs


def optimize_state_pair(objective, p: Povm, opts: SearchOptions | None = None) -> PowerReport:
    """Maximize objective(rho_mat, sigma_mat) -> (value, s_star) over state pairs.

    Deterministic for a fixed seed: candidates are scanned in a fixed order and
    a restart only replaces the incumbent on strict improvement.
    """
    opts = opts or SearchOptions()
    d = p.dim
    best_val = -math.inf
    best_pair = None
    best_s = None

    def consider(val, s_star, rho_mat, sigma_mat):
        nonlocal best_val, best_pair, best_s
        if val > best_val:
            best_val = val
            best_pair = (rho_mat, sigma_mat)
            best_s = s_star

    # (a) exhaustive orthogonal pure pairs from grouped-element eigenbases
    for evecs in _candidate_bases(p):
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                rho_mat = np.outer(evecs[:, i], evecs[:, i].conj())
                sigma_mat = np.outer(evecs[:, j], evecs[:, j].conj())
                val, s_star = objective(rho_mat, sigma_mat)
                consider(val, s_star, rho_mat, sigma_mat)
                if math.isinf(best_val):
                    return _finish(best_val, best_pair, best_s, 0)

    # (b) random pure-pair restarts with coordinate-wise refinement
    rng = np.random.default_rng(opts.seed)
    n_params = 4 * (d - 1)
    restarts_used = 0
    for _ in range(opts.restarts):
        restarts_used += 1
        params = np.concatenate(
            [
                rng.uniform(0, math.pi / 2, d - 1),
                rng.uniform(0, 2 * math.pi, d - 1),
                rng.uniform(0, math.pi / 2, d - 1),
                rng.uniform(0, 2 * math.pi, d - 1),
            ]
        )

        def eval_params(q):
            rho_mat, sigma_mat = _pair_mats(q, d)
            return objective(rho_mat, sigma_mat)[0]

        cur = eval_params(params)
        width = math.pi / 2
        for _ in range(REFINE_PASSES):
            improved = 0.0
            for idx in range(n_params):
                def along(x, idx=idx):
                    q = params.copy()
                    q[idx] = x
                    v = eval_params(q)
                    return -v if math.isfinite(v) else -1e300

                x0 = params[idx]
                x, negv = golden_section_min(along, x0 - width, x0 + width, xtol=1e-7)
                if -negv > cur:
                    improved += -negv - cur
                    cur = -negv
                    params[idx] = x
            width *= 0.5
            if improved < REFINE_TOL:
                break
        rho_mat, sigma_mat = _pair_mats(params, d)
        val, s_star = objective(rho_mat, sigma_mat)
        consider(val, s_star, rho_mat, sigma_mat)
        if math.isinf(best_val):
            break

    # (c) optional mixed-state refinement toward the maximally mixed state
    if opts.mixed and best_pair is not None and math.isfinite(best_val):
        eye = np.eye(d) / d
        rho_mat, sigma_mat = best_pair

        def mixed_obj(t_rho, t_sigma):
            r = (1 - t_rho) * rho_mat + t_rho * eye
            s = (1 - t_sigma) * sigma_mat + t_sigma * eye
            return objective(r, s)

        t_r = t_s = 0.0
        for _ in range(2):
            t_r, _ = golden_section_min(lambda t: -mixed_obj(t, t_s)[0], 0.0, 1.0, 1e-8)
            t_s, _ = golden_section_min(lambda t: -mixed_obj(t_r, t)[0], 0.0, 1.0, 1e-8)
        val, s_star = mixed_obj(t_r, t_s)
        r = (1 - t_r) * rho_mat + t_r * eye
        s = (1 - t_s) * sigma_mat + t_s * eye
        consider(val, s_star, r, s)

    return _finish(best_val, best_pair, best_s, restarts_used)


def _finish(val, pair, s_star, restarts_used) -> PowerReport:
    optimizer = None
    if pair is not None:
        optimizer = StatePair(DensityMatrix(_hermitize(pair[0])), DensityMatrix(_hermitize(pair[1])))
    return PowerReport(
        value=max(val, 0.0),
        optimizer=optimizer,
        s_star=s_star,
        restarts_used=restarts_used,
    )


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _chernoff_objective(p: Povm):
    def obj(rho_mat, sigma_mat):
        ev = chernoff_exponent(induced_probs(p, rho_mat), induced_probs(p, sigma_mat))
        return ev.value, ev.optimizer_s

    return obj


def _stein_objective(p: Povm):
    def obj(rho_mat, sigma_mat):
        return relative_entropy(induced_probs(p, rho_mat), induced_probs(p, sigma_mat)), None

    return obj


def _hoeffding_objective(p: Povm, r: float):
    def obj(rho_mat, sigma_mat):
        ev = hoeffding_exponent(induced_probs(p, rho_mat), induced_probs(p, sigma_mat), r)
        return ev.value, ev.optimizer_s

    return obj


def zeta_chernoff(p: Povm, opts: SearchOptions | None = None) -> PowerReport:
    """Asymptotic symmetric-error exponent of the detector (dual Chernoff)."""
    return optimize_state_pair(_chernoff_objective(p), p, opts)


def zeta_stein(p: Povm, opts: SearchOptions | None = None) -> PowerReport:
    """Dual Stein exponent: max over pairs of D(P||Q)."""
    return optimize_state_pair(_stein_objective(p), p, opts)


def zeta_hoeffding(p: Povm, r: float, opts: SearchOptions | None = None) -> PowerReport:
    """Dual Hoeffding exponent at type-I rate constraint r >= 0."""
    if r < 0:
        raise DomainError("rate r must be nonnegative")
    return optimize_state_pair(_hoeffding_objective(p, r), p, opts)
