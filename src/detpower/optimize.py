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
The restarts are independent: on a POSIX system with several CPUs in the
process's affinity mask, and no Python thread but the main one alive,
they are split over os.fork workers, one per CPU, and merged in restart
order, so every report is the one a sequential loop gives, for any number
of CPUs.  Within a restart, a line search of an objective with a surrogate
(zeta_chernoff's and zeta_stein's) is predicted on the surrogate, scored at
its predicted probes in one stacked call and replayed on those values
(_predicted_values), so it visits the probes and keeps the floats of the
line search scored one probe at a time.

Both scans read the proper outcome groupings as membership rows with
their grouped elements diagonalized, from one generator, _grouping_scan,
that makes one stacked eig_hermitian call per chunk: single_shot_power takes
the spread of each (on d >= 3), and the basis scan the eigenbases, whose
projectors it converts in one stacked induced_probs call and scores in one
row-wise call, rows(P_stack, Q_stack, floor) -> (values, s), with the
incumbent as floor.
zeta_chernoff's row form, channel.chernoff_rows, screens every row with one
cut rule and scores, with chernoff_exponent's floats (in lockstep for a
support-size block of at least channel.LOCKSTEP_ROWS kept rows), only the
rows whose certified upper bound reaches the cut: max(incumbent, inf if some
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

import gc
import itertools
import math
import mmap
import numbers
import os
import pickle
import signal
import threading
import traceback
import weakref
from dataclasses import dataclass

import numpy as np

from .channel import (
    ClassicalDistribution,
    ExponentValue,
    _chernoff_estimator,
    _pair_rows,
    _relative_entropy,
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
# each line search's golden-section tolerance on its angle
LINE_XTOL = 1e-7


@dataclass(frozen=True)
class SearchOptions:
    restarts: int = 64
    seed: int = 0
    mixed: bool = False

    def __post_init__(self):
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            # numbers.Integral holds Python and numpy integers; bool is refused
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")


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


def _pure_mats(params: np.ndarray, d: int) -> np.ndarray:
    """The (L, d, d) projectors _pure_mat(params[r], d) of the rows of an (L, 2(d-1)) array, with its bytes.

    _pure_vec's products in its order, one column at a time, with its libm
    cosines and sines, then its complex exp and the outer products, each an
    elementwise ufunc that rounds every entry as the one-row call does.
    """
    amps = np.ones((len(params), d))
    for i in range(d - 1):
        th = params[:, i].tolist()
        amps[:, i] *= [math.cos(t) for t in th]
        amps[:, i + 1 :] *= np.array([math.sin(t) for t in th])[:, None]
    v = amps.astype(complex)
    v[:, 1:] *= np.exp(1j * params[:, d - 1 :])
    return v[:, :, None] * v.conj()[:, None, :]


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

    The restarts start from angles drawn up front from the seeded rng
    (_start_angles), each refined by _restart's line searches, one angle at
    a time, which take NaN and -inf as the worst values and +inf as the
    best (_descent).  When the objective carries a surrogate, as
    zeta_chernoff's and zeta_stein's do, each line search is predicted on
    it, its predicted probes are scored exactly in one stacked call and it
    is replayed on those values, scoring a probe the prediction missed by
    itself; other objectives are scored one probe at a time.  Either way
    every value is objective(P, Q)'s.  They run on up to one
    worker per CPU in the process's affinity mask (_map_restarts: this
    process and os.fork children, no option; limit them with taskset), and
    their outcomes are merged in restart order, ending once the best value
    is infinite or at the first restart that raised, whose exception is
    raised here (a worker's traceback rides along as a note).  So value,
    s_star, optimizer and restarts_used are those of one sequential loop,
    for any number of CPUs.  The objective must therefore be a pure
    function of (P, Q): whatever it records in a worker stays there.  Only
    a second Python thread keeps the restarts in this process; native
    threads, such as a BLAS pool, do not, and on Python 3.12+ os.fork then
    emits a DeprecationWarning about a multi-threaded process, which is
    expected.

    Deterministic for a fixed seed: candidates are scanned in a fixed order and
    a restart or corner only replaces the incumbent on strict improvement.
    This search runs on any detector and objective; the zeta_* searches call
    it only for detectors whose elements do not commute.
    """
    _require_two_outcomes(p)
    opts = opts or SearchOptions()
    d = p.dim
    best = ExponentValue(-math.inf)
    best_pair = None

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

    # (b) random pure-pair restarts with coordinate-wise refinement, run on up
    # to one worker per CPU and merged in restart order
    starts = _start_angles(opts.seed, d, opts.restarts)
    restarts_used = 0
    for outcome in _map_restarts(lambda params: _restart(objective, p, params), starts):
        restarts_used += 1
        if isinstance(outcome, Exception):
            raise outcome
        consider(*outcome)
        if best.infinite:
            break

    # (c) --mixed: the incumbent and I/d span a square of mixtures, and a
    # jointly convex objective peaks at one of its corners
    if opts.mixed and best_pair is not None and math.isfinite(best.value):
        eye = np.eye(d, dtype=complex) / d
        rho_mat, sigma_mat = best_pair
        score = _scorer(objective, p)[1]
        for r, s in ((eye, sigma_mat), (rho_mat, eye), (eye, eye)):
            consider(score(r, s), r, s)

    return _finish(best, best_pair, restarts_used)


def _scorer(objective, p: Povm):
    """(dist, score): a state matrix's checked ClassicalDistribution on p, and
    objective(dist(rho_mat), dist(sigma_mat))."""
    sum_tol = induced_sum_tol(p.dim)

    def dist(mat):
        return ClassicalDistribution(induced_probs(p, mat), sum_tol)

    def score(rho_mat, sigma_mat):
        return objective(dist(rho_mat), dist(sigma_mat))

    return dist, score


def _start_angles(seed, d: int, n: int) -> list:
    """The n restarts' start angles, drawn from default_rng(seed) in restart order.

    Each is rho's 2(d-1) angles of _pure_vec, then sigma's: d - 1 polar
    angles in [0, pi/2), then d - 1 phases in [0, 2 pi).
    """
    rng = np.random.default_rng(seed)
    return [
        np.concatenate(
            [
                rng.uniform(0, math.pi / 2, d - 1),
                rng.uniform(0, 2 * math.pi, d - 1),
                rng.uniform(0, math.pi / 2, d - 1),
                rng.uniform(0, 2 * math.pi, d - 1),
            ]
        )
        for _ in range(n)
    ]


def _restart(objective, p: Povm, params: np.ndarray):
    """One restart: coordinate-wise golden sections from the start angles params.

    params holds rho's 2(d-1) angles of _pure_vec, then sigma's; it is
    refined in place.  Returns (ExponentValue, rho_mat, sigma_mat) of the
    refined pair.  Each line search minimizes _descent of the objective's
    value along one angle.  When the objective carries a surrogate, the
    search first reads its values from _predicted_values, the exact values
    at the probes it is predicted to visit; a probe it visits off the
    prediction is scored on its own, as is every probe when the prediction
    raised.  Every probe's value is objective(P, Q)'s, so every float, and
    any exception, is that of the line searches without a prediction.
    """
    d = p.dim
    dist, score = _scorer(objective, p)
    surrogate = getattr(objective, "surrogate", None)
    n = 2 * (d - 1)
    halves = (slice(0, n), slice(n, 2 * n))  # rho's angles, then sigma's
    cur = score(*(_pure_mat(params[h], d) for h in halves)).value
    if math.isnan(cur):  # NaN never counts, so any value improves on it
        cur = -math.inf
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
                return _descent(objective(*pair).value)

            x0 = params[idx]
            line = along
            if surrogate is not None:
                try:
                    known = _predicted_values(objective, p, pair[1 - side], side, moved, k, x0 - width, x0 + width)
                except Exception:  # a probe the search may never visit: those it visits raise in along
                    known = {}

                def line(x, known=known, along=along):
                    v = known.get(x)
                    return along(x) if v is None else v

            x, negv = golden_section_min(line, x0 - width, x0 + width, xtol=LINE_XTOL)
            if -negv > cur:
                improved += -negv - cur
                cur = -negv
                params[idx] = x
        width *= 0.5
        if improved < REFINE_TOL:
            break
    rho_mat, sigma_mat = (_pure_mat(params[h], d) for h in halves)
    return score(rho_mat, sigma_mat), rho_mat, sigma_mat


def _descent(v: float) -> float:
    """The value a line search minimizes for an objective value v: -v, with
    +inf as -1e300, the best, and NaN or -inf as +1e300, the worst."""
    if math.isfinite(v):
        return -v
    return -1e300 if v > 0.0 else 1e300


def _line_form(p: Povm, angles: np.ndarray, k: int) -> np.ndarray:
    """(6, m) coefficients A with induced_probs(p, state(x)) = b(x) @ A, up to round-off.

    state(x) is the projector onto _pure_vec(angles with angle k at x).
    Along any one angle, polar or phase, that vector is u0 + u1 cos x +
    u2 sin x, read off at x = 0, pi/2 and pi, so P_j(x) = c^T G_j c with
    c = (1, cos x, sin x) and G_j = Re(u^dagger E_j u), and
    b(x) = (1, cos x, sin x, cos^2 x, sin^2 x, cos x sin x).
    """
    d = p.dim
    at = angles.copy()
    ends = []
    for x in (0.0, math.pi / 2, math.pi):
        at[k] = x
        ends.append(_pure_vec(at, d))
    v0, v1, v2 = ends
    u = np.array([(v0 + v2) / 2, (v0 - v2) / 2, v1 - (v0 + v2) / 2])  # u0, u1, u2
    g = np.einsum("ia,kab,jb->kij", u.conj(), p.stacked(), u).real
    return np.stack([g[:, 0, 0], 2 * g[:, 0, 1], 2 * g[:, 0, 2], g[:, 1, 1], g[:, 2, 2], 2 * g[:, 1, 2]])


def _predicted_values(objective, p: Povm, fixed, side: int, moved: np.ndarray, k: int, a, b) -> dict:
    """{x: _descent(objective(P, Q).value)} at the probes of golden_section_min on [a, b]
    as objective.surrogate predicts them.

    The moving state, side 0 (rho) or 1 (sigma), has the angles moved with
    angle k at x; the other state's distribution is fixed.  predict:
    golden_section_min runs on the surrogate's estimate, with the moving
    state's distribution from its closed form along the line (_line_form)
    and the fixed one as it is.  batch: the probes' states are built in one
    stack (_pure_mats), converted in one induced_probs call, checked as one
    ClassicalDistribution stack with the fixed row, and scored in one
    objective.rows call.  Each value is the objective's own float, whatever
    the surrogate returned.
    """
    form = _line_form(p, moved, k)
    other = fixed.probs
    estimate = objective.surrogate()
    probes = []

    def predict(x):
        probes.append(x)
        c, s = math.cos(x), math.sin(x)
        moving = np.maximum(np.array([1.0, c, s, c * c, s * s, c * s]) @ form, 0.0)
        return _descent(estimate(moving, other) if side == 0 else estimate(other, moving))

    golden_section_min(predict, a, b, xtol=LINE_XTOL)
    angles = np.repeat(moved[None], len(probes), axis=0)
    angles[:, k] = probes
    states = induced_probs(p, _pure_mats(angles, p.dim))
    both = ClassicalDistribution(np.concatenate([states, other[None]]), induced_sum_tol(p.dim))
    stacks = [None, None]
    stacks[side], stacks[1 - side] = both[: len(probes)], both[np.full(len(probes), len(probes))]
    values = objective.rows(*stacks, None)[0]
    return dict(zip(probes, map(_descent, values.tolist())))


def _restart_workers(n: int) -> int:
    """Workers for n restarts: one per CPU in the process's affinity mask, at most n.

    1 (run in this process) when n < 2, when the platform has no os.fork or
    os.sched_getaffinity, or when another Python thread is alive, since
    forking with threads running is unsafe.  Native threads are not seen
    (see optimize_state_pair).
    """
    if n < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def _run_share(run, starts: list, first: int, step: int, stops) -> list:
    """run(starts[i]) for i = first, first + step, ... in turn; a list of outcomes.

    A share ends after a restart that raised an Exception or reached +inf,
    and marks that restart in stops, one byte per restart shared by every
    worker.  It also ends before restart i once any earlier restart is
    marked.  A merge in restart order ends at or before a marked restart
    (+inf is never improved on, and an Exception is raised), so the
    restarts a share skips are never read.
    """
    outcomes = []
    for i in range(first, len(starts), step):
        if stops.find(b"\1", 0, i) >= 0:
            break
        try:
            outcome = run(starts[i])
        except Exception as exc:
            outcome = exc
        outcomes.append(outcome)
        if isinstance(outcome, Exception) or outcome[0].value == math.inf:
            stops[i] = 1
            break
    return outcomes


def _map_restarts(run, starts: list) -> list:
    """_run_share(run, ...) on W = _restart_workers(len(starts)) workers; a list by restart.

    Worker w takes starts w, w + W, ...: this process runs share 0 and an
    os.fork child runs each other share, sends its outcomes back as one
    pickle through a pipe and leaves by os._exit.  A child's Exception
    carries its traceback as a note, since pickling drops it.  Every child
    is read and reaped before this returns or raises, and killed first if
    this process's own share was interrupted; a share that could not be
    forked runs here.  When a share ends early, the others stop before
    their next restart past it, so the wait is at most one restart per
    child.  Entry i is restart i's (ExponentValue, rho_mat, sigma_mat), the
    Exception it raised, or None if it was not run.  A child that exits
    without a report (its outcome could not be pickled, or it was killed)
    leaves a RuntimeError at its first restart.  So a merge in restart
    order that stops at the first +inf value or Exception reads only run
    outcomes, and sees what one sequential loop sees.
    """
    n = len(starts)
    workers = _restart_workers(n)
    outcomes = [None] * n
    # one byte per restart, zero-filled; the anonymous map is shared with the children
    stops = bytearray(n) if workers < 2 else mmap.mmap(-1, n)
    local, children, reports = [0], [], []
    done = False
    try:
        for w in range(1, workers):
            fd_in, fd_out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd_in)
                os.close(fd_out)
                local.append(w)
                continue
            if pid == 0:  # the child: never returns
                status = 1
                try:
                    os.close(fd_in)
                    gc.disable()  # no finalizer of the parent's garbage runs twice
                    share = _run_share(run, starts, w, workers, stops)
                    if share and isinstance(share[-1], Exception):
                        exc, i = share[-1], w + (len(share) - 1) * workers
                        text = "".join(traceback.format_exception(exc))
                        exc.__notes__ = [*getattr(exc, "__notes__", []), f"raised in the worker of restart {i}:\n{text}"]
                    data = pickle.dumps(share, pickle.HIGHEST_PROTOCOL)
                    with open(fd_out, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(fd_out)
            children.append((w, pid, fd_in))
        for w in local:
            for i, outcome in zip(range(w, n, workers), _run_share(run, starts, w, workers, stops)):
                outcomes[i] = outcome
        done = True
    finally:
        for w, pid, fd_in in children:
            if not done:
                os.kill(pid, signal.SIGKILL)
            with open(fd_in, "rb") as fh:
                data = fh.read()
            reports.append((w, data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for w, data, status in reports:
        if status == 0:
            got = pickle.loads(data)
        else:
            got = [RuntimeError(f"the worker of restart {w} exited with status {status} without a report")]
        for i, outcome in zip(range(w, n, workers), got):
            outcomes[i] = outcome
    return outcomes


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


def _row_scored(pair, rows, surrogate=None):
    """The objective pair(P, Q), carrying its row form and its surrogate.

    The basis scan calls rows(P_stack, Q_stack, floor) with the incumbent as
    floor.  rows may give -inf for a row whose value lies below floor or
    below the stack's first largest value (as chernoff_rows does), since
    neither changes what the scan keeps, or it may ignore floor; with floor
    None it scores every row.  surrogate(), if given, makes a cheap estimate
    f(p, q) of pair's value on raw 1-D arrays, with which the restarts' line
    searches predict their probes (_predicted_values).
    """

    def objective(P, Q):
        return pair(P, Q)

    objective.rows = rows
    objective.surrogate = surrogate
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
    return _convex_search(_row_scored(chernoff_exponent, chernoff_rows, _chernoff_estimator), p, opts)


def zeta_stein(p: Povm, opts: SearchOptions | None = None) -> PowerReport:
    """Dual Stein exponent: max over pairs of D(P||Q)."""
    return _convex_search(
        _row_scored(
            lambda P, Q: ExponentValue(relative_entropy(P, Q)),
            lambda P, Q, floor: (relative_entropy_rows(P, Q), np.full(len(P), math.nan)),
            lambda: _relative_entropy,
        ),
        p,
        opts,
    )


def zeta_hoeffding(p: Povm, r: float, opts: SearchOptions | None = None) -> PowerReport:
    """Dual Hoeffding exponent at type-I rate constraint r >= 0."""
    if not r >= 0.0:  # also refuses NaN
        raise DomainError(f"rate r must be nonnegative, got {r}")
    return _convex_search(lambda P, Q: hoeffding_exponent(P, Q, r), p, opts)
