"""Optimization over input state pairs for a fixed detector.

single_shot_power is exact (spread formula over all outcome groupings);
on a non-commuting qubit it diagonalizes only the vertex groupings of the
zonotope of the elements' Bloch vectors (_zonotope_groupings), O(m^2) of
them, in the order and with the floats of the scan below, and keeps nothing.
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
the spread of each (on d >= 3), and the basis scan the eigenbases, whose
projectors it converts in one stacked induced_probs call and scores in one
row-wise call, rows(P_stack, Q_stack, floor) -> (values, s), with the
incumbent as floor.
zeta_chernoff's row form, channel.chernoff_rows, screens every row with one
cut rule and scores, with chernoff_exponent's own solver, only the rows
whose certified upper bound reaches the cut: max(incumbent, inf if some
row's supports are disjoint, best certified lower bound) less a margin far
above round-off; the others score -inf.  A dropped row's value lies below
the incumbent, which a chunk must beat, or below the chunk's first largest
value, so no report changes.  The other row forms ignore floor.  On a
detector with at most MAX_OUTCOMES_GROUPING_SCAN outcomes, where both
scans visit the same groupings, the scan runs once per Povm:
_scanned_groupings keeps its rows,
eigenvalues and eigenvectors as read-only arrays in a WeakKeyDictionary
keyed by the Povm, so single_shot_power (d >= 3) and every zeta_* call on
that detector share one diagonalization, and the entry dies with the detector;
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
# the qubit single shot scores O(m^2) vertex groupings with O(m^3) work (see
# _zonotope_groupings); at this cap it takes about 0.2 s and 6-15 MB
MAX_OUTCOMES_QUBIT_SINGLE_SHOT = 256
# a Bloch vector no longer than this counts as 0, and one within this distance
# of a plane or line through 0 as lying in it: far above the round-off of the
# vectors (about 1e-16) and of the unit directions built from them
BLOCH_TIE_TOL = 1e-13
# a qubit candidate whose closed-form spread lies more than this below the
# widest is not diagonalized: far above the round-off of either spread, so the
# dropped groupings are never the scan's first strict maximum
SPREAD_SCREEN = 1e-10
# vertex directions times Bloch vectors per block of _zonotope_groupings; it
# bounds the blocks' memory (about 2 MB), and the results do not depend on it
ZONOTOPE_BLOCK = 1 << 15
# beyond this many outcomes the 2^(m-1) grouping scan is replaced by
# per-element eigenbases (capped), keeping the search tractable
MAX_OUTCOMES_GROUPING_SCAN = 14
MAX_BASIS_ELEMENTS = 256
# d x d matrices built per stacked call of the grouping scans: grouped
# elements diagonalized by _grouping_scan, projectors in the basis scan.  It
# bounds their memory (see the module docstring); the results do not depend
# on it.  Each chunk pays a fixed cost of some hundred numpy calls (eigh, the
# trace kernel, the row forms' support blocks and screen).
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
    single_shot_power (d >= 3) reads it, a chunk at a time, and keeps nothing.
    """
    m = p.n_outcomes
    rest = (c for k in range(m - 1) for c in itertools.combinations(range(1, m), k))
    while chunk := list(itertools.islice(rest, size)):
        rows = np.zeros((len(chunk), m), dtype=bool)
        rows[:, 0] = True
        at = np.repeat(np.arange(len(chunk)), [len(c) for c in chunk])
        rows[at, list(itertools.chain.from_iterable(chunk))] = True
        ops = _grouped_elements(p, rows)
        yield rows, ops, *eig_hermitian(ops)


def _grouped_elements(p: Povm, rows: np.ndarray) -> np.ndarray:
    """The (n, d, d) grouped elements of (n, m) membership rows, with grouped_element's floats.

    E_k is added in increasing k to the sums whose row holds k, starting
    from zeros.
    """
    ops = np.zeros((len(rows), p.dim, p.dim), dtype=complex)
    for k, e in enumerate(p.elements):
        ops[rows[:, k]] += e
    return ops


def _bloch_vectors(p: Povm) -> np.ndarray:
    """The (m, 3) Bloch vectors b_k of a qubit detector's Hermitian parts, E_k = a_k I + b_k . sigma."""
    s = p.stacked()
    off = (s[:, 1, 0] + s[:, 0, 1].conj()) / 2
    return np.stack([off.real, off.imag, (s[:, 0, 0].real - s[:, 1, 1].real) / 2], axis=1)


def _lex_cells(d1, d2, d3) -> np.ndarray:
    """Membership rows of the cells around flags of directions (w, x, e).

    d1, d2 and d3 are (F, n) tables of b_k . w, b_k . x and b_k . e for F
    orthonormal frames.  Vector k lies in the cell of the direction
    w + t x + t^2 s3 e, for small t > 0, when its first coordinate beyond
    BLOCH_TIE_TOL is positive, d3 deciding by its sign alone; the four rows
    per frame take x as +x and -x, and s3 as +1 and -1.  Returns (4F, n).
    """
    tie1, tie2, pos1 = np.abs(d1) <= BLOCH_TIE_TOL, np.abs(d2) <= BLOCH_TIE_TOL, d1 > BLOCH_TIE_TOL
    cells = []
    for lvl2 in (d2 > BLOCH_TIE_TOL, d2 < -BLOCH_TIE_TOL):
        for lvl3 in (d3 > 0, d3 < 0):
            cells.append(pos1 | tie1 & (lvl2 | tie2 & lvl3))
    return np.concatenate(cells)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (n, 3) arrays: np.cross's floats without its
    axis handling, which costs more than the products at a dozen outcomes."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _vertex_cells(b: np.ndarray, norms: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Membership rows over b of the cells that touch the vertex directions w = b_i x b_j / |b_i x b_j|.

    The planes b_k . u = 0 that hold w cross the tangent plane at w in
    lines; the cells around w are its sectors.  Each sector has a boundary
    ray x = w x b_j / |b_j| for some vector b_j of the plane that is not
    parallel to the smallest-index vector there, so the pairs i < j visit
    every sector.  Along the ray the vectors parallel to b_j tie again and
    e = b_j / |b_j| splits them.  The pair's own ties are set exactly.  The
    cells around -w are the antipodes of these, which _proper_rows covers.
    """
    w = _cross(b[i], b[j])
    w /= np.linalg.norm(w, axis=1)[:, None]
    e = b[j] / norms[j, None]
    d1, d2, d3 = (f @ b.T for f in (w, _cross(w, e), e))
    r = np.arange(len(i))
    d1[r, i] = d1[r, j] = d2[r, j] = 0.0
    return _lex_cells(d1, d2, d3)


def _zonotope_groupings(b: np.ndarray) -> np.ndarray:
    """Membership rows of the qubit single shot's candidate groupings, in the scan's order.

    With E_k = a_k I + b_k . sigma, spread(E^a) = 2 |sum_{k in a} b_k|, so
    the widest grouping is a vertex of the zonotope sum_k [0, b_k]: the set
    {k : b_k . u > 0} of a direction u inside a cell of the arrangement of
    the planes b_k . u = 0.  Every cell touches a vertex direction
    +-(b_i x b_j) (_vertex_cells); if all vectors are parallel, the cells
    are the two sides of their line.  Vectors no longer than BLOCH_TIE_TOL
    lie on every plane and are left out of the cells; _proper_rows maps the
    cells to proper groupings with and without them.  {0}, the scan's first
    grouping, is added, so that one always exists.  Only groupings whose
    closed-form spread lies within SPREAD_SCREEN of the widest are kept,
    without repeats, ordered as _grouping_scan orders them: by size, then
    lexicographically.  The cells come ZONOTOPE_BLOCK vector products at a
    time; O(m^3) work for the m(m-1)/2 vertex pairs.
    """
    m = len(b)
    norms = np.linalg.norm(b, axis=1)
    live = norms > BLOCH_TIE_TOL
    bl, nl = b[live], norms[live]
    i, j = np.triu_indices(len(bl), 1)
    apart = np.linalg.norm(_cross(bl[i], bl[j]), axis=1) > BLOCH_TIE_TOL * np.maximum(nl[i], nl[j])
    i, j = i[apart], j[apart]
    step = max(1, ZONOTOPE_BLOCK // max(1, len(bl)))
    if len(i):
        cells = (_vertex_cells(bl, nl, i[a : a + step], j[a : a + step]) for a in range(0, len(i), step))
    elif len(bl):  # every vector on one line
        cells = [_lex_cells(*np.zeros((2, 1, len(bl))), (bl @ bl[np.argmax(nl)])[None])]
    else:
        cells = []
    first = np.zeros((1, m), dtype=bool)
    first[0, 0] = True
    kept, best = [~np.packbits(first, axis=1)], -math.inf
    for rows in _proper_rows(cells, live):
        spread = 2.0 * np.linalg.norm(rows @ b, axis=1)
        best = max(best, spread.max(initial=-math.inf))
        # complemented packed rows ascend as the groupings' index tuples do at one size
        kept.append(~np.packbits(rows[spread >= best - SPREAD_SCREEN], axis=1))
    keys = np.concatenate(kept)
    keys = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))).ravel())  # sorted as bytes
    rows = np.unpackbits(~keys.view(np.uint8).reshape(len(keys), -1), axis=1, count=m).astype(bool)
    spread = 2.0 * np.linalg.norm(rows @ b, axis=1)
    rows = rows[spread >= spread.max() - SPREAD_SCREEN]
    return rows[np.argsort(rows.sum(axis=1), kind="stable")]


def _proper_rows(cells, live: np.ndarray):
    """Each block of cell rows over the live vectors as proper groupings over every outcome.

    A cell maps to a grouping that holds outcome 0: if b_0 is live, the cell
    or its antipode, live minus the cell, whichever holds 0 (their grouped
    elements E^a and about I - E^a spread alike); else 0 joins both.  Each
    grouping comes without and, if some other vector is not live, with every
    such vector.  The full grouping is dropped.
    """
    others = ~live
    others[0] = False
    for cell in cells:
        if live[0]:
            cell[~cell[:, 0]] ^= True
        else:
            cell = np.concatenate([cell, ~cell])
        rows = np.zeros((len(cell), len(live)), dtype=bool)
        rows[:, live] = cell
        rows[:, 0] = True
        if others.any():
            rows = np.concatenate([rows, rows | others])
        yield rows[~rows.all(axis=1)]


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

    On any other qubit (d = 2), E_k = a_k I + b_k . sigma and
    spread(E^a) = 2 |sum_{k in a} b_k|, so the widest grouping is a vertex
    of the zonotope of the Bloch vectors b_k.  Only the candidates of
    _zonotope_groupings are diagonalized, O(m^2) groupings of which the
    closed-form screen keeps the near-widest, in one stacked eig_hermitian
    call.  They come in the scan's order and are built with its floats
    (_grouped_elements), and the scan's rule below picks among them, so the
    value, grouping and states are the scan's whenever no grouping left out
    spreads within 1e-15 of the widest; tests/oracles.single_shot_scan checks
    them to the bit on random, symmetric, coplanar and degenerate qubits.
    O(m^3) work: about 0.6 ms at m = 12, 12 ms at m = 100 and 0.2 s at the
    cap of MAX_OUTCOMES_QUBIT_SINGLE_SHOT = 256 outcomes, with a peak of
    6 MB (15 MB when every cell is near the widest, as on a regular polygon
    of Bloch vectors), on a 2-vCPU Xeon with BLAS on one thread; a larger
    qubit detector is refused with ResourceError before any work.  Nothing is
    kept in _SCANS, so a later zeta_* call on the same Povm diagonalizes its
    groupings on first use.

    On d >= 3 the scan diagonalizes every one of the 2^(m-1) - 1 proper
    groupings as _grouping_scan yields them, SCAN_CHUNK per stacked
    eig_hermitian call; the first grouping whose spread beats every earlier
    one by more than 1e-15 wins, and its membership row is the reported
    grouping, with the top and bottom eigenvectors as inputs.  Up to
    MAX_OUTCOMES_GROUPING_SCAN = 14 outcomes the diagonalized groupings are
    _scanned_groupings(p), shared with the zeta_* basis scans on the same
    Povm and kept while it lives (at most 8191 (m + 8d + 16d^2) bytes);
    above, the scan streams and keeps nothing.  The time doubles with each
    outcome: at d = 3 on the same box about 0.1 s at m = 16 and 0.5 s at
    m = 18, up to the cap of MAX_OUTCOMES_SINGLE_SHOT = 24 outcomes.
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
        if p.dim == 2:
            if m > MAX_OUTCOMES_QUBIT_SINGLE_SHOT:
                raise ResourceError(
                    f"{m} outcomes exceeds the qubit single-shot cap of {MAX_OUTCOMES_QUBIT_SINGLE_SHOT}"
                )
        elif m > MAX_OUTCOMES_SINGLE_SHOT:
            raise ResourceError(
                f"{m} outcomes means 2^{m - 1} groupings; use the heuristic exponent search instead"
            )
        if p.dim == 2:
            rows = _zonotope_groupings(_bloch_vectors(p))
            scans = [(rows, *eig_hermitian(_grouped_elements(p, rows)))]
        elif m <= MAX_OUTCOMES_GROUPING_SCAN:
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
        optimizer=StatePair(DensityMatrix._pure(rho), DensityMatrix._pure(sigma)),
        grouping=GroupingMask(row),
        exact=True,
    )


def _require_two_outcomes(p: Povm):
    if p.n_outcomes < 2:  # no proper grouping exists, and no pair can be told apart
        raise DomainError("POVM must have at least 2 outcomes")


def _pure_vec(params: np.ndarray, d: int) -> np.ndarray:
    """Unit vector on the complex (d-1)-sphere from 2(d-1) real angles."""
    amps = [1.0] * d
    for i, th in enumerate(params[: d - 1].tolist()):
        amps[i] *= math.cos(th)
        sin = math.sin(th)
        for j in range(i + 1, d):
            amps[j] *= sin
    v = np.array(amps, dtype=complex)
    v[1:] *= np.exp(1j * params[d - 1 :])  # a complex exp: kept in numpy, whose rounding libm may not share
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
