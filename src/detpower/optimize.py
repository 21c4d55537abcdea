"""Optimization over input state pairs for a fixed detector.

single_shot_power is exact (spread formula over all outcome groupings).
On a commuting detector, one whose elements share an eigenbasis
(core.joint_eigenbasis), the detector is classical: every state induces a
mixture of the basis states' outcome distributions.  The single shot is
then the vertex formula over pairs of basis states, and zeta_chernoff,
zeta_stein and zeta_hoeffding score the basis's d(d-1) ordered pairs, which
is exact because the three exponents are jointly convex; restarts and
--mixed corners are not run there, and the report has exact = True.
On other detectors, and in optimize_state_pair for any objective, the
exponents are maximized over state pairs by an exhaustive scan of
eigenvector pairs of grouped elements plus seeded random restarts with
coordinate-wise golden-section refinement, so the reported value is a
certified-achievable lower bound on the true exponent.  With
SearchOptions.mixed the incumbent (rho, sigma) is also compared with the
other three corners of its square of mixtures ((1-t) rho + t I/d,
(1-u) sigma + u I/d): (I/d, sigma), (rho, I/d) and (I/d, I/d).  The Chernoff,
Stein and Hoeffding exponents are jointly convex in the state pair, so no
point of that square beats its best corner.

Both scans read the proper outcome groupings as membership rows with
their grouped elements diagonalized, from one generator, _grouping_scan,
that makes one stacked eig_hermitian call per chunk: single_shot_power takes
the spread of each, and the basis scan the eigenbases, whose projectors it
converts in one stacked induced_probs call and scores in one row-wise call,
rows(P_stack, Q_stack, floor) -> (values, s), with the incumbent as floor.
zeta_chernoff's row form, channel.chernoff_rows, screens every row with one
cut rule and runs its s-solver only on the rows whose certified upper bound
reaches the cut: max(incumbent, inf if some row's supports are disjoint,
best certified lower bound) less a margin far above round-off; the others
score -inf.  A dropped row's value lies below the incumbent, which a chunk
must beat, or below the chunk's first largest value, so no report changes.
The other row forms ignore floor.  On a detector with at most
MAX_OUTCOMES_GROUPING_SCAN outcomes, where both scans visit the same
groupings, the scan runs once per Povm: _scanned_groupings keeps its rows,
eigenvalues and eigenvectors as read-only arrays in a WeakKeyDictionary
keyed by the Povm, so single_shot_power and every zeta_* call on that
detector share one diagonalization, and the entry dies with the detector;
above that cap the basis scan's element eigenbases are kept there the same
way, at most MAX_BASIS_ELEMENTS 16 d^2 bytes.
It holds 2^(m-1) - 1 groupings of m + 8d + 16d^2 bytes each, at most
8191 (m + 8d + 16d^2) bytes: 2.5 MB at d = 4 and 35 MB at d = 16 (m = 14).  A
basis scan that stops at its first infinite value has still diagonalized
every grouping, at most the cost of one full scan.  A single shot above that
cap streams the scan and keeps nothing.  Every float, and so every result,
is the one a scan of one grouping or basis at a time gives, whatever the
chunk size and whether or not the scan was kept.  A chunk is SCAN_CHUNK =
384 d x d matrices (SCAN_CHUNK // d bases), and its arrays come on top of
the kept scan: at their peak about 0.8 MB at d = 4, m = 11 and 10 MB at
d = 16, m = 14.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .channel import (
    ClassicalDistribution,
    ExponentValue,
    _pair_rows,
    chernoff_exponent,
    chernoff_rows,
    golden_section_min,
    hoeffding_exponent,
    induced_probs,
    induced_sum_tol,
    relative_entropy,
    relative_entropy_rows,
)
from .core import DensityMatrix, GroupingMask, Povm, eig_hermitian, joint_eigenbasis
from .errors import DomainError, ResourceError

MAX_OUTCOMES_SINGLE_SHOT = 24
# beyond this many outcomes the 2^(m-1) grouping scan is replaced by
# per-element eigenbases (capped), keeping the search tractable
MAX_OUTCOMES_GROUPING_SCAN = 14
MAX_BASIS_ELEMENTS = 256
# d x d matrices built per stacked call of the grouping scans: grouped
# elements diagonalized by _grouping_scan, projectors in the basis scan.  It
# bounds their memory (see the module docstring); the results do not depend
# on it.  Each chunk pays a fixed cost of some hundred numpy calls (eigh, the
# trace kernel, the row forms), a third as often as with 128.
SCAN_CHUNK = 384
# coordinate-wise refinement passes per restart; each pass halves the bracket,
# and a pass that gains less than REFINE_TOL ends the refinement
REFINE_PASSES = 4
REFINE_TOL = 1e-10


@dataclass(frozen=True)
class SearchOptions:
    restarts: int = 64
    seed: int = 0
    mixed: bool = False

    def __post_init__(self):
        if self.restarts < 0:
            raise DomainError(f"restarts must be >= 0, got {self.restarts}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


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
    # True when value is the optimum itself, not only an achievable lower bound
    exact: bool = False


def _grouping_scan(p: Povm, size: int):
    """The proper outcome groupings, `size` at a time, with their grouped elements diagonalized.

    Yields (rows, ops, evals, evecs) per chunk: rows is an (n, m) bool array
    whose row r marks the outcomes of one grouping, ops the (n, d, d) stack of
    their grouped elements, and (evals, evecs) = eig_hermitian(ops).  A proper
    grouping holds outcome 0 and not every outcome (a complement adds nothing:
    the spread of I - E^a equals the spread of E^a); the groupings come by
    size, then lexicographically.  E_k is added in increasing k to the sums
    whose row holds k, starting from zeros, so each sum has grouped_element's
    floats.  Up to MAX_OUTCOMES_GROUPING_SCAN outcomes the scans read it
    through _scanned_groupings, once per detector; above, only
    single_shot_power reads it, a chunk at a time, and keeps nothing.
    """
    m = p.n_outcomes
    rest = (c for k in range(m - 1) for c in itertools.combinations(range(1, m), k))
    while chunk := list(itertools.islice(rest, size)):
        rows = np.zeros((len(chunk), m), dtype=bool)
        rows[:, 0] = True
        at = np.repeat(np.arange(len(chunk)), [len(c) for c in chunk])
        rows[at, list(itertools.chain.from_iterable(chunk))] = True
        ops = np.zeros((len(chunk), p.dim, p.dim), dtype=complex)
        for k, e in enumerate(p.elements):
            ops[rows[:, k]] += e
        yield rows, ops, *eig_hermitian(ops)


# Povm -> (rows, evals, evecs) of its grouping scan, or above
# MAX_OUTCOMES_GROUPING_SCAN outcomes its _element_bases; a Povm hashes by identity
_SCANS = weakref.WeakKeyDictionary()


def _scanned_groupings(p: Povm):
    """(rows, evals, evecs) of every proper grouping of p, diagonalized once per detector.

    The _grouping_scan chunks, copied into read-only arrays without the
    grouped elements, are kept for as long as p lives (see the module
    docstring for their size), so later calls on p read them instead of
    diagonalizing again.  Each chunk is copied as it comes, so building them
    takes their size plus one chunk.  For detectors with at most
    MAX_OUTCOMES_GROUPING_SCAN outcomes.
    """
    scan = _SCANS.get(p)
    if scan is None:
        m, d = p.n_outcomes, p.dim
        n = 2 ** (m - 1) - 1
        scan = np.empty((n, m), dtype=bool), np.empty((n, d)), np.empty((n, d, d), dtype=complex)
        at = 0
        for rows, _, *eig in _grouping_scan(p, SCAN_CHUNK):
            for kept, part in zip(scan, (rows, *eig)):
                kept[at : at + len(rows)] = part
            at += len(rows)
        for a in scan:
            a.setflags(write=False)
        _SCANS[p] = scan
    return scan


def single_shot_power(p: Povm) -> PowerReport:
    """Minimum single-use error probability 1/2 - max_a spread(E^a)/2.

    On a commuting detector with joint basis u_i and row table A
    (core.joint_eigenbasis) the largest spread is
    max_{i != j} sum_k (A_ik - A_jk)_+, the gap P(a) - Q(a) of the inputs
    (u_i, u_j) on the grouping a = {k : A_ik > A_jk}.  The ordered pairs are
    taken in itertools.permutations order, and the first whose gap beats
    every earlier one by more than 1e-15 gives the inputs and the grouping:
    O(d^2 m) work, with no outcome cap.

    Otherwise the scan diagonalizes every one of the 2^(m-1) - 1 proper
    groupings as _grouping_scan yields them, SCAN_CHUNK per stacked
    eig_hermitian call; the first grouping whose spread beats every earlier
    one by more than 1e-15 wins, and its membership row is the reported
    grouping, with the top and bottom eigenvectors as inputs.  Up to
    MAX_OUTCOMES_GROUPING_SCAN = 14 outcomes the diagonalized groupings are
    _scanned_groupings(p), shared with the zeta_* basis scans on the same
    Povm and kept while it lives (at most 8191 (m + 8d + 16d^2) bytes);
    above, the scan streams and keeps nothing.  The time doubles with each
    outcome: at d = 2 on a 2-vCPU Xeon with BLAS on one thread it takes
    about 0.2 s at m = 16, 0.9 s at m = 18 and 70 s at the cap of
    MAX_OUTCOMES_SINGLE_SHOT = 24 outcomes.
    """
    _require_two_outcomes(p)
    joint = joint_eigenbasis(p)
    if joint is not None:
        u, a = joint
        spread = -1.0
        for i, j in itertools.permutations(range(len(a)), 2) if len(a) > 1 else [(0, 0)]:
            s = float(np.maximum(a[i] - a[j], 0.0).sum())  # P(a) - Q(a) on a = {k : a[i, k] > a[j, k]}
            if s > spread + 1e-15:
                spread, row, rho, sigma = s, a[i] > a[j], u[:, i], u[:, j]
    else:
        m = p.n_outcomes
        if m > MAX_OUTCOMES_SINGLE_SHOT:
            raise ResourceError(
                f"{m} outcomes means 2^{m - 1} groupings; use the heuristic exponent search instead"
            )
        if m <= MAX_OUTCOMES_GROUPING_SCAN:
            scans = [_scanned_groupings(p)]
        else:
            scans = ((rows, evals, evecs) for rows, _, evals, evecs in _grouping_scan(p, SCAN_CHUNK))
        spread = -1.0
        for rows, evals, evecs in scans:
            for r, s in enumerate((evals[:, 0] - evals[:, -1]).tolist()):
                if s > spread + 1e-15:
                    spread, row, rho, sigma = s, rows[r], evecs[r][:, 0], evecs[r][:, -1]
    return PowerReport(
        value=min(max(0.5 - spread / 2.0, 0.0), 0.5),
        optimizer=StatePair(DensityMatrix.pure(rho), DensityMatrix.pure(sigma)),
        grouping=GroupingMask(row),
        exact=True,
    )


def _require_two_outcomes(p: Povm):
    if p.n_outcomes < 2:  # no proper grouping exists, and no pair can be told apart
        raise DomainError("POVM must have at least 2 outcomes")


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


def _pure_mat(params: np.ndarray, d: int) -> np.ndarray:
    """The projector onto _pure_vec(params, d)."""
    v = _pure_vec(params, d)
    return np.outer(v, v.conj())


def _candidate_bases(p: Povm):
    """Eigenbases of grouped elements (small m) or of single elements (large m).

    Yields (n, d, d) stacks of eigenvector columns of up to
    max(1, SCAN_CHUNK // d) bases: about SCAN_CHUNK projectors, sliced from
    _scanned_groupings(p) or _element_bases(p), each diagonalized once per
    detector.
    """
    size = max(1, SCAN_CHUNK // p.dim)
    evecs = _scanned_groupings(p)[2] if p.n_outcomes <= MAX_OUTCOMES_GROUPING_SCAN else _element_bases(p)
    for i in range(0, len(evecs), size):
        yield evecs[i : i + size]


def _element_bases(p: Povm):
    """The eigenbases of p's first MAX_BASIS_ELEMENTS elements, diagonalized once per detector.

    For detectors with more than MAX_OUTCOMES_GROUPING_SCAN outcomes: one
    stacked eig_hermitian call per SCAN_CHUNK elements, kept in _SCANS as a
    read-only (n, d, d) array, at most MAX_BASIS_ELEMENTS 16 d^2 bytes.
    """
    evecs = _SCANS.get(p)
    if evecs is None:
        elems = p.stacked()[:MAX_BASIS_ELEMENTS]
        evecs = np.concatenate([eig_hermitian(elems[i : i + SCAN_CHUNK])[1] for i in range(0, len(elems), SCAN_CHUNK)])
        evecs.setflags(write=False)
        _SCANS[p] = evecs
    return evecs


def _best_basis_pair(objective, p: Povm, evecs, floor: float = -math.inf):
    """The first best-scoring ordered pair of eigenvectors over a stack of bases.

    evecs is an (n, d, d) stack of eigenvector columns, scored as
    optimize_state_pair describes; floor, the incumbent, goes to the rows.
    Returns (ExponentValue, (rho_mat, sigma_mat)) of the first largest
    value, NaN never counting, or (ExponentValue(-inf), None) when no pair
    scores a number.
    """
    d = p.dim
    rows = getattr(objective, "rows", None) or _pair_rows(objective)
    pairs = np.array(list(itertools.permutations(range(d), 2)), dtype=int).reshape(-1, 2)
    vecs = evecs.swapaxes(-1, -2)
    proj = vecs[..., :, None] * vecs.conj()[..., None, :]  # proj[b, i] = np.outer(v_i, v_i*)
    states = ClassicalDistribution(induced_probs(p, proj.reshape(-1, d, d)), induced_sum_tol(d))
    at = np.arange(len(proj))[:, None] * d
    stacks = states[(at + pairs[:, 0]).ravel()], states[(at + pairs[:, 1]).ravel()]
    values, s = rows(*stacks, floor)
    if not len(values):  # d = 1: a basis holds no ordered pair
        return ExponentValue(-math.inf), None
    t = int(np.argmax(np.fmax(values, -math.inf)))  # the first maximum; fmax ranks NaN as -inf
    if math.isnan(values[t]):
        return ExponentValue(-math.inf), None
    b, (i, j) = t // len(pairs), pairs[t % len(pairs)]
    return ExponentValue(float(values[t]), None if math.isnan(s[t]) else float(s[t])), (proj[b, i], proj[b, j])


def optimize_state_pair(objective, p: Povm, opts: SearchOptions | None = None) -> PowerReport:
    """Maximize objective(P, Q) -> ExponentValue over input state pairs.

    The detector is fixed, so the objective sees the states only through the
    classical pair it induces, P_k = tr(E_k rho) and Q_k = tr(E_k sigma), each
    a ClassicalDistribution.  Every state is converted and checked once, and
    nothing downstream checks it again, since every functional trusts a
    ClassicalDistribution: a candidate basis costs d distributions for its
    d(d-1) ordered pairs, and each restart state and --mixed corner is one
    distribution; the restart refinement converts only the state it moves,
    since each line search holds the other state fixed.

    The basis scan takes the candidate bases a chunk at a time, as
    _candidate_bases yields them, and _best_basis_pair scores each chunk.  Up
    to MAX_OUTCOMES_GROUPING_SCAN outcomes the bases are the grouped
    elements' eigenbases of _scanned_groupings(p), diagonalized by the first
    scan or single shot of this Povm and read again by every later one.  The
    chunk's projectors are converted in one stacked induced_probs call and
    checked as one ClassicalDistribution stack; a state that is not a
    distribution raises its own DomainError there, before the chunk is
    scored.  All the chunk's
    ordered pairs are then scored in one call on two stacks indexed from that
    one, rows(P_stack, Q_stack, floor) -> (values, s), with the incumbent as
    floor: two float arrays whose row k holds objective(P_k, Q_k)'s value
    and optimizer_s, with NaN for a None optimizer_s, or -inf where the row
    cannot beat floor or the chunk's first largest value.  rows is the
    objective's `rows` attribute (zeta_chernoff and zeta_stein carry the
    channel row forms), or else channel._pair_rows, which calls the
    objective once per pair on the stacks' rows and ignores floor.  The
    incumbent is the first largest value of a chunk that beats the incumbent
    so far; NaN never counts.  So, as in a scan of one pair at a time in
    (basis, itertools.permutations) order, it is the first strict maximum,
    and the scan ends at the first infinite value; the grouped elements
    are all diagonalized by then, which costs at most one full scan.

    With opts.mixed, the incumbent (rho, sigma) is then compared, in this
    order, with (I/d, sigma), (rho, I/d) and (I/d, I/d), the other corners of
    the square of mixtures with I/d.  For a jointly convex objective, as all
    three zeta_* objectives are, the best corner is the maximum over the
    whole square; for any objective the result is still an achievable value.

    Deterministic for a fixed seed: candidates are scanned in a fixed order and
    a restart or corner only replaces the incumbent on strict improvement.
    This search runs on any detector and objective; the zeta_* searches call
    it only for detectors whose elements do not commute.
    """
    _require_two_outcomes(p)
    opts = opts or SearchOptions()
    d = p.dim
    sum_tol = induced_sum_tol(d)
    best = ExponentValue(-math.inf)
    best_pair = None

    def dist(mat):
        return ClassicalDistribution(induced_probs(p, mat), sum_tol)

    def score(rho_mat, sigma_mat):
        return objective(dist(rho_mat), dist(sigma_mat))

    def consider(ev, rho_mat, sigma_mat):
        nonlocal best, best_pair
        if ev.value > best.value:
            best, best_pair = ev, (rho_mat, sigma_mat)

    # (a) exhaustive orthogonal pure pairs from grouped-element eigenbases,
    # a chunk of bases at a time
    for evecs in _candidate_bases(p):
        ev, pair = _best_basis_pair(objective, p, evecs, best.value)
        if ev.value > best.value:
            best, best_pair = ev, pair
            if best.infinite:
                return _finish(best, best_pair, 0)

    # (b) random pure-pair restarts with coordinate-wise refinement
    rng = np.random.default_rng(opts.seed)
    n = 2 * (d - 1)
    halves = (slice(0, n), slice(n, 2 * n))  # rho's angles, then sigma's
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
        cur = score(*(_pure_mat(params[h], d) for h in halves)).value
        width = math.pi / 2
        for _ in range(REFINE_PASSES):
            improved = 0.0
            for idx in range(2 * n):
                side, k = divmod(idx, n)  # side 0 moves rho, side 1 sigma
                moved = params[halves[side]].copy()
                pair = [None, None]
                pair[1 - side] = dist(_pure_mat(params[halves[1 - side]], d))

                def along(x, side=side, k=k, moved=moved, pair=pair):
                    moved[k] = x
                    pair[side] = dist(_pure_mat(moved, d))
                    v = objective(*pair).value
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
        rho_mat, sigma_mat = (_pure_mat(params[h], d) for h in halves)
        consider(score(rho_mat, sigma_mat), rho_mat, sigma_mat)
        if best.infinite:
            break

    # (c) --mixed: the incumbent and I/d span a square of mixtures, and a
    # jointly convex objective peaks at one of its corners
    if opts.mixed and best_pair is not None and math.isfinite(best.value):
        eye = np.eye(d, dtype=complex) / d
        rho_mat, sigma_mat = best_pair
        for r, s in ((eye, sigma_mat), (rho_mat, eye), (eye, eye)):
            consider(score(r, s), r, s)

    return _finish(best, best_pair, restarts_used)


def _finish(best: ExponentValue, pair, restarts_used, exact=False) -> PowerReport:
    optimizer = None
    if pair is not None:
        optimizer = StatePair(DensityMatrix(_hermitize(pair[0])), DensityMatrix(_hermitize(pair[1])))
    return PowerReport(
        value=max(best.value, 0.0),
        optimizer=optimizer,
        s_star=best.optimizer_s,
        restarts_used=restarts_used,
        exact=exact,
    )


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _row_scored(pair, rows):
    """The objective pair(P, Q), carrying its row form for the basis scan.

    The scan calls rows(P_stack, Q_stack, floor) with the incumbent as
    floor.  rows may give -inf for a row whose value lies below floor or
    below the stack's first largest value (as chernoff_rows does), since
    neither changes what the scan keeps, or it may ignore floor.
    """

    def objective(P, Q):
        return pair(P, Q)

    objective.rows = rows
    return objective


def _convex_search(objective, p: Povm, opts: SearchOptions | None) -> PowerReport:
    """optimize_state_pair for an objective jointly convex in (P, Q), exact on commuting detectors.

    When the elements commute (core.joint_eigenbasis), the P a state induces
    ranges over the hull of the rows A_i of the joint basis, and so does Q.
    A jointly convex objective then peaks at a vertex pair (A_i, A_j), so
    the joint basis's d(d-1) ordered pairs, scored as the scan scores one
    basis, give the maximum itself: no other basis, restart or --mixed corner
    is scored, and the report has restarts_used = 0 and exact = True.  The
    joint basis is E_0's eigenbasis, the scan's first, whenever that basis
    diagonalizes every element.  Other detectors go to optimize_state_pair.
    """
    _require_two_outcomes(p)
    joint = joint_eigenbasis(p)
    if joint is None:
        return optimize_state_pair(objective, p, opts)
    return _finish(*_best_basis_pair(objective, p, joint[0][None]), 0, exact=True)


def zeta_chernoff(p: Povm, opts: SearchOptions | None = None) -> PowerReport:
    """Asymptotic symmetric-error exponent of the detector (dual Chernoff)."""
    return _convex_search(_row_scored(chernoff_exponent, chernoff_rows), p, opts)


def zeta_stein(p: Povm, opts: SearchOptions | None = None) -> PowerReport:
    """Dual Stein exponent: max over pairs of D(P||Q)."""
    return _convex_search(
        _row_scored(
            lambda P, Q: ExponentValue(relative_entropy(P, Q)),
            lambda P, Q, floor: (relative_entropy_rows(P, Q), np.full(len(P), math.nan)),
        ),
        p,
        opts,
    )


def zeta_hoeffding(p: Povm, r: float, opts: SearchOptions | None = None) -> PowerReport:
    """Dual Hoeffding exponent at type-I rate constraint r >= 0."""
    if not r >= 0.0:  # also refuses NaN
        raise DomainError(f"rate r must be nonnegative, got {r}")
    return _convex_search(lambda P, Q: hoeffding_exponent(P, Q, r), p, opts)
