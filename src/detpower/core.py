"""States, POVMs and the LAPACK-backed Hermitian eigendecomposition.

Everything here is plain double-precision numpy.  Objects are validated on
construction and treated as immutable afterwards; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError, StructuralError

TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-10
TOL_COMPLETE = 1e-9
# largest off-diagonal entry a joint eigenbasis may leave in an element,
# relative to the largest entry of any element (round-off leaves about 1e-16)
TOL_COMMUTE = 1e-12
# largest d^n that sequence_operator builds (a 4096 x 4096 complex matrix is 256 MB)
SEQUENCE_OPERATOR_MAX_DIM = 4096

# Pauli matrices, used by the qubit helpers.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_square_complex(mat, what: str) -> np.ndarray:
    """A private C-ordered complex copy of `mat`, a nonempty square matrix with finite entries."""
    m = np.array(mat, dtype=complex, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError(f"{what} must be a square matrix, got shape {m.shape}")
    if not m.size:
        raise StructuralError(f"{what} has dimension 0")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{what} has non-finite entries")
    return m


def herm_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _check_hermitian_unit_trace(m: np.ndarray) -> None:
    """The density-matrix checks that need no eigendecomposition."""
    if herm_deviation(m) > TOL_HERM:
        raise DomainError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(m).real - 1.0) > TOL_TRACE or abs(np.trace(m).imag) > TOL_TRACE:
        raise DomainError("density matrix trace differs from 1")


def _unit_outer(vec) -> np.ndarray:
    """u u^dagger for u = v/|v|, the vector v flattened, as a new C-ordered array.

    A 2-norm that overflows, or whose square is subnormal (a sum of squares
    with too few significant bits for v/|v| to have unit norm) or 0, is
    taken after dividing v by its largest real or imaginary part; every
    vector whose squared norm is normal keeps the floats of v/|v|.  The zero
    vector and non-finite entries are refused.
    """
    v = np.asarray(vec, dtype=complex).ravel()
    if not np.all(np.isfinite(v)):
        raise DomainError("pure state vector has non-finite entries")
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if n * n < np.finfo(float).tiny or n == np.inf:
        top = np.abs(v.view(float)).max(initial=0.0)
        if top == 0.0:
            raise DomainError("cannot build a pure state from the zero vector")
        # divide the parts: complex v / top multiplies by 1/top, inf for a subnormal top
        v = (v.view(float) / top).view(complex)
        n = np.linalg.norm(v)
    v = v / n
    return np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.mat, "density matrix")
        _check_hermitian_unit_trace(m)
        evals, _ = eig_hermitian(m)
        if evals.min() < -TOL_PSD:
            raise DomainError(f"density matrix has negative eigenvalue {evals.min():.3e}")
        object.__setattr__(self, "mat", m)
        self.mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        """|v><v| / <v|v> for a nonzero vector v with finite entries.

        A vector whose 2-norm underflows to 0 or overflows is rescaled first
        (_unit_outer).  The state then gets every check of the constructor:
        Hermitian within TOL_HERM, unit trace and, by an eigendecomposition,
        positive within TOL_PSD.  The library builds its own pure states with
        _pure, which gives the same bytes and skips only that
        eigendecomposition, since u u^dagger cannot fail it.
        """
        return cls(_unit_outer(vec))

    @classmethod
    def _pure(cls, vec) -> "DensityMatrix":
        """pure(vec), the same bytes, without the positivity test's eigendecomposition.

        u u^dagger for a unit vector u has eigenvalues |u|^2 and 0, and
        round-off moves them by about 1e-16, far inside TOL_PSD, so that test
        cannot fail.  Every check that can fail still runs: finite entries
        and a usable norm (_unit_outer), Hermiticity within TOL_HERM and
        unit trace.  The library's own pure states, eigenvectors it has just
        computed, are built here.
        """
        m = _unit_outer(vec)
        _check_hermitian_unit_trace(m)
        m.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", m)
        return rho


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.norm > 1 + 1e-12:
            raise DomainError(f"Bloch vector norm {self.norm} exceeds 1")

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


def bloch_to_density(b: BlochVector) -> DensityMatrix:
    """Qubit state (I + b.sigma)/2; pure iff |b| = 1."""
    m = 0.5 * (np.eye(2, dtype=complex) + b.x * PAULI_X + b.y * PAULI_Y + b.z * PAULI_Z)
    # round-off can push the top eigenvalue of a pure state past 1 by ~1e-17
    return DensityMatrix((m + m.conj().T) / 2)


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered list of outcome operators on a common d-dimensional space.

    The constructor enforces only structural consistency; physical validity
    (Hermiticity, positivity, completeness) is checked by validate_povm.  The
    elements are held as one read-only (m, d, d) stack, and `elements` is the
    tuple of its read-only views.
    """

    elements: tuple

    def __post_init__(self):
        elems = tuple(_as_square_complex(e, f"POVM element {k}") for k, e in enumerate(self.elements))
        if not elems:
            raise StructuralError("POVM needs at least one element")
        d = elems[0].shape[0]
        for k, e in enumerate(elems):
            if e.shape[0] != d:
                raise StructuralError(f"POVM element {k} has dimension {e.shape[0]}, expected {d}")
        stack = np.stack(elems)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "elements", tuple(stack))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def stacked(self) -> np.ndarray:
        """All elements as one read-only (m, d, d) array."""
        return self._stack

    def grouped_element(self, indices) -> np.ndarray:
        """Sum of the elements selected by an outcome grouping."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in indices:
            out = out + self.elements[k]
        return out


@dataclass(frozen=True, eq=False)
class GroupingMask:
    """Outcomes (or outcome sequences) accepted as hypothesis H0.

    `accept` is a read-only 1-D bool array: accept[k] is True when index k is
    decided as H0.  Equality is identity, since comparing arrays with == does
    not give one bool.
    """

    accept: np.ndarray

    def __post_init__(self):
        a = np.array(self.accept, dtype=bool)
        if a.ndim != 1:
            raise StructuralError(f"grouping mask must be 1-D, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "accept", a)


@dataclass
class ValidationReport:
    valid: bool
    dim: int
    n_outcomes: int
    herm_deviations: list = field(default_factory=list)
    min_eigenvalues: list = field(default_factory=list)
    completeness_residual: float = 0.0
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def validate_povm(p: Povm) -> ValidationReport:
    """Check Hermiticity, positivity and completeness of every element."""
    rep = ValidationReport(valid=True, dim=p.dim, n_outcomes=p.n_outcomes)
    if p.n_outcomes < 2:
        rep.problems.append("POVM must have at least 2 outcomes")
    s = p.stacked()
    sh = s.conj().swapaxes(-1, -2)
    devs = np.max(np.abs(s - sh), axis=(-2, -1)).tolist()
    lam_mins = eig_hermitian((s + sh) / 2)[0].min(axis=-1).tolist()
    total = np.zeros((p.dim, p.dim), dtype=complex)
    for k, e in enumerate(p.elements):
        rep.herm_deviations.append(devs[k])
        if devs[k] > TOL_HERM:
            rep.problems.append(f"element {k} deviates from Hermitian by {devs[k]:.3e}")
        rep.min_eigenvalues.append(lam_mins[k])
        if lam_mins[k] < -TOL_PSD:
            rep.problems.append(f"element {k} has negative eigenvalue {lam_mins[k]:.3e}")
        if np.max(np.abs(e)) == 0.0:
            rep.warnings.append(f"element {k} is identically zero")
        total += e
    rep.completeness_residual = float(np.max(np.abs(total - np.eye(p.dim))))
    if rep.completeness_residual > TOL_COMPLETE:
        rep.problems.append(f"completeness residual {rep.completeness_residual:.3e}")
    rep.valid = not rep.problems
    return rep


def eig_hermitian(mat):
    """Eigendecomposition of a Hermitian matrix, or of a stack of them, by LAPACK.

    A (d, d) matrix gives (eigenvalues, eigenvectors): eigenvalues sorted
    descending and eigenvectors as orthonormal columns.  Columns with equal
    eigenvalues are ordered by the row of each eigenvector's largest-magnitude
    entry, so a diagonal input keeps its diagonal order.  A (..., d, d) stack
    gives (..., d) and (..., d, d) from one numpy.linalg.eigh call, each
    matrix checked, decomposed and ordered in the same way; a 2-D matrix is
    the stack of one.
    """
    a = np.asarray(mat, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise StructuralError(f"matrix must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    ah = a.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    if np.any(np.max(np.abs(a - ah), axis=(-2, -1), initial=0.0) > TOL_HERM * scale):
        raise DomainError("eig_hermitian requires a Hermitian matrix")
    evals, evecs = np.linalg.eigh((a + ah) / 2)
    order = np.lexsort((np.argmax(np.abs(evecs), axis=-2), -evals), axis=-1)
    return np.take_along_axis(evals, order, -1), np.take_along_axis(evecs, order[..., None, :], -1)


def joint_eigenbasis(p: Povm):
    """(U, A) when the elements commute: a joint eigenbasis and its row table; else None.

    U's columns u_i are orthonormal and U^dagger E_k U has no off-diagonal
    entry above TOL_COMMUTE times the largest entry of any element, for every
    k.  A is the real (d, m) table A[i, k] = <u_i|E_k|u_i>: row i is the
    outcome distribution of u_i.  U is eig_hermitian's eigenbasis of E_0 (as
    the grouped element of outcome 0, the scan's first basis) when that basis
    diagonalizes every element, and else that of the generic combination
    G = sum_k cos(k(1 + sqrt 5)) E_k, whose eigenvalues tell distinct rows of
    A apart unless the coefficients happen to balance them (then None, and
    the caller takes its general path).  A detector with an element that
    does not commute with G, within 2 d TOL_COMMUTE times the largest entries
    of the elements and of G, gets None before any eigendecomposition.  A
    two-outcome detector commutes only when E_1 = I - E_0 to within this
    tolerance: validate_povm accepts completeness residuals up to
    TOL_COMPLETE, far above it, and an E_1 off I - E_0 by 1e-11 off the
    diagonal gets None.
    """
    s = p.stacked()
    m, d = s.shape[:2]
    tol = TOL_COMMUTE * np.abs(s).max()
    g = (np.cos(np.arange(m) * (1.0 + 5**0.5)) @ s.reshape(m, -1)).reshape(d, d)
    if np.abs(s @ g - g @ s).max() > 2 * d * tol * np.abs(g).max():
        return None
    for op in (p.grouped_element((0,)), g):
        u = eig_hermitian(op)[1]
        t = u.conj().T @ s @ u
        a = np.diagonal(t, axis1=-2, axis2=-1)
        if np.abs(t - a[..., None] * np.eye(d)).max() <= tol:
            return u, np.ascontiguousarray(a.real.T)
    return None


def sequence_operator(p: Povm, seq) -> np.ndarray:
    """Tensor product E_{k_1} x ... x E_{k_n} for an outcome sequence (0-based)."""
    seq = tuple(int(k) for k in seq)
    if not seq:
        raise StructuralError("outcome sequence must be non-empty")
    for k in seq:
        if k < 0 or k >= p.n_outcomes:
            raise StructuralError(f"outcome index {k} out of range 0..{p.n_outcomes - 1}")
    if p.dim ** len(seq) > SEQUENCE_OPERATOR_MAX_DIM:
        raise ResourceError(
            f"product dimension {p.dim}^{len(seq)} exceeds cap {SEQUENCE_OPERATOR_MAX_DIM}"
        )
    out = p.elements[seq[0]]
    for k in seq[1:]:
        out = np.kron(out, p.elements[k])
    return out
