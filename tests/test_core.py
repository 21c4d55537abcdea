import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from detpower import (
    AdaptiveStrategy,
    BlochVector,
    ClassicalDistribution,
    DensityMatrix,
    DomainError,
    GroupingMask,
    JointState,
    Povm,
    ProductInput,
    ResourceError,
    SequenceDistribution,
    StatePair,
    StructuralError,
    bloch_to_density,
    eig_hermitian,
    fibonacci_covariant_discretization,
    joint_eigenbasis,
    sequence_operator,
    validate_povm,
)
from detpower import core
from detpower.channel import induced_distribution, induced_probs
from conftest import commuting_detectors, random_density, random_povm, random_unitary
import oracles


class TestValidate:
    def test_diag_povm_valid(self, diag_povm):
        report = validate_povm(diag_povm)
        assert report.valid
        assert report.dim == 2
        assert report.n_outcomes == 2
        assert report.completeness_residual < 1e-12

    def test_incomplete_rejected(self):
        p = Povm((np.diag([0.4, 0.2]).astype(complex), np.diag([0.5, 0.8]).astype(complex)))
        report = validate_povm(p)
        assert not report.valid
        assert abs(report.completeness_residual - 0.1) < 1e-12

    def test_negative_element_rejected(self):
        p = Povm((np.diag([1.2, 0.5]).astype(complex), np.diag([-0.2, 0.5]).astype(complex)))
        assert not validate_povm(p).valid

    def test_non_hermitian_rejected(self):
        e = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        p = Povm((e, np.eye(2) - e))
        assert not validate_povm(p).valid

    def test_single_outcome_rejected(self):
        report = validate_povm(Povm((np.eye(2, dtype=complex),)))
        assert not report.valid

    def test_mismatched_dims_rejected(self):
        with pytest.raises(StructuralError):
            Povm((np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex)))

    def test_zero_element_warns_but_valid(self):
        p = Povm((np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
        report = validate_povm(p)
        assert report.valid
        assert report.warnings

    def test_random_povms_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = rng.integers(2, 5)
            m = rng.integers(2, 6)
            assert validate_povm(random_povm(rng, d, m)).valid

    @pytest.mark.parametrize("kind", ["random", "bad"])
    def test_report_matches_per_element_checks(self, monkeypatch, kind):
        # one stacked eig_hermitian call, with each element's report floats,
        # problems and warnings as checking the elements one at a time gives
        rng = np.random.default_rng(5)
        elems = list(random_povm(rng, 3, 5).elements)
        if kind == "bad":
            elems[1] = elems[1] + np.diag([0.0, 0.0, 1e-6j])  # not Hermitian
            elems[2] = np.diag([0.5, -0.2, 0.1]).astype(complex)  # not positive
            elems[4] = np.zeros((3, 3), dtype=complex)
        calls = []

        def counted(mat):
            calls.append(np.shape(mat))
            return eig_hermitian(mat)

        monkeypatch.setattr(core, "eig_hermitian", counted)
        rep = validate_povm(Povm(tuple(elems)))
        assert calls == [(5, 3, 3)]
        problems, warnings, total = [], [], np.zeros((3, 3), dtype=complex)
        for k, e in enumerate(elems):
            dev = float(np.max(np.abs(e - e.conj().T)))
            assert rep.herm_deviations[k] == dev
            if dev > core.TOL_HERM:
                problems.append(f"element {k} deviates from Hermitian by {dev:.3e}")
            lam = float(oracles.eig_hermitian_2d((e + e.conj().T) / 2)[0].min())
            assert rep.min_eigenvalues[k] == lam
            if lam < -core.TOL_PSD:
                problems.append(f"element {k} has negative eigenvalue {lam:.3e}")
            if not e.any():
                warnings.append(f"element {k} is identically zero")
            total += e
        residual = float(np.max(np.abs(total - np.eye(3))))
        if residual > core.TOL_COMPLETE:
            problems.append(f"completeness residual {residual:.3e}")
        assert (rep.problems, rep.warnings, rep.completeness_residual) == (problems, warnings, residual)
        assert rep.valid == (kind == "random")

    def test_probabilities_sum_to_one(self):
        # sum_k tr(E_k rho) = 1 for every valid POVM and state
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            p = random_povm(rng, d, int(rng.integers(2, 6)))
            rho = random_density(rng, d)
            total = sum(np.trace(e @ rho.mat).real for e in p.elements)
            assert abs(total - 1.0) < 1e-9


class TestDensityMatrix:
    def test_pure_state(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert rho.dim == 2

    def test_trace_enforced(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_psd_enforced(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_hermitian_enforced(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))


# a pure-state vector entry: 0, or a mantissa in [1, 10) of either sign times 10^e, |e| <= 100
_SCALED = st.builds(
    lambda sign, mantissa, e: sign * mantissa * 10.0**e,
    st.sampled_from((-1.0, 0.0, 1.0)),
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-100, 100),
)


@st.composite
def scaled_vectors(draw):
    d = draw(st.integers(1, 6))
    parts = np.array(draw(st.lists(_SCALED, min_size=2 * d, max_size=2 * d)))
    v = parts[:d] + 1j * parts[d:]
    assume(v.any())
    return v


class TestPureState:
    """DensityMatrix.pure and _pure, its path without the eigendecomposition."""

    BUILDS = pytest.mark.parametrize("build", [DensityMatrix.pure, DensityMatrix._pure], ids=["pure", "_pure"])

    @given(v=scaled_vectors())
    def test_outer_product_of_the_unit_vector(self, v):
        u = v / np.linalg.norm(v)
        want = np.outer(u, u.conj()).tobytes()
        rho = DensityMatrix._pure(v)
        assert rho.mat.tobytes() == want and DensityMatrix.pure(v).mat.tobytes() == want
        assert rho.mat.flags.c_contiguous and not rho.mat.flags.writeable
        # the full check, eigendecomposition included, accepts what _pure skipped
        assert DensityMatrix(rho.mat).mat.tobytes() == want

    def test_private_path_runs_no_eigendecomposition(self, monkeypatch):
        def refuse(mat):
            raise AssertionError("eig_hermitian called")

        monkeypatch.setattr(core, "eig_hermitian", refuse)
        assert DensityMatrix._pure([1.0, 1j]).dim == 2

    @BUILDS
    def test_norm_that_underflows(self, build):
        # |v|^2 = 1e-400 rounds to 0; v is rescaled by its largest part first
        assert build([1e-200, 0.0]).mat.tobytes() == build([1.0, 0.0]).mat.tobytes()
        assert build([1e-200j, 5e-201]).mat.tobytes() == build([1j, 0.5]).mat.tobytes()
        # a subnormal |v|^2 has too few bits for unit trace, and subnormal
        # parts have too few for 1/x: down to 1e-320, v is divided by x first
        for x in 10.0 ** -np.arange(150.0, 321.0):
            assert build([x, 0.0]).mat.tobytes() == build([1.0, 0.0]).mat.tobytes()
            y = 0.3 * x  # 0.3 to the few bits a subnormal x leaves
            np.testing.assert_allclose(build([x, y * 1j]).mat, build([1.0, y / x * 1j]).mat, rtol=0, atol=1e-15)

    @BUILDS
    def test_norm_that_overflows(self, build):
        # |v|^2 = 2e400 overflows; numpy's RuntimeWarning would be an error here
        assert build([1e200, 1e200]).mat.tobytes() == build([1.0, 1.0]).mat.tobytes()
        assert build([-1e308, 1e308j]).mat.tobytes() == build([-1.0, 1j]).mat.tobytes()

    @BUILDS
    def test_zero_and_non_finite_vectors_refused(self, build):
        for v in ([0.0, 0.0], [0j], []):
            with pytest.raises(DomainError, match="zero vector"):
                build(v)
        for v in ([np.nan, 1.0], [np.inf, 0.0], [complex(0.0, -np.inf), 1.0]):
            with pytest.raises(DomainError, match="non-finite"):
                build(v)


class TestOwnCopy:
    """States and POVMs keep a read-only copy; the caller's array is left alone."""

    def test_density_matrix_copies(self):
        a = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(a)
        a[0, 0] = 1.0  # still writable
        assert rho.mat[0, 0] == 0.5 and not rho.mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rho.mat[0, 0] = 1.0

    def test_povm_copies(self):
        elems = [np.diag([0.4, 0.2]).astype(complex), np.diag([0.6, 0.8]).astype(complex)]
        p = Povm(tuple(elems))
        elems[0][0, 0] = 1.0
        assert p.elements[0][0, 0] == 0.4
        assert not any(e.flags.writeable for e in p.elements)

    @pytest.mark.parametrize(
        "build",
        [lambda z: Povm((z, z)), DensityMatrix],
        ids=["povm", "state"],
    )
    def test_zero_dimension_refused(self, build):
        with pytest.raises(StructuralError, match="dimension 0"):
            build(np.zeros((0, 0), dtype=complex))


class TestLayout:
    """A matrix in Fortran layout (a transpose, say) is accepted and stored in C order."""

    def test_transposed_inputs_accepted(self):
        r = random_density(np.random.default_rng(8), 3).mat.conj()  # r.T is then the original state
        rho = DensityMatrix(r.T)
        assert rho.mat.flags.c_contiguous and np.array_equal(rho.mat, r.T)
        evals, evecs = eig_hermitian(r.T)
        want = eig_hermitian(np.ascontiguousarray(r.T))
        assert evals.tobytes() == want[0].tobytes() and evecs.tobytes() == want[1].tobytes()
        p = random_povm(np.random.default_rng(9), 3, 4)
        q = Povm(tuple(np.asfortranarray(e) for e in p.elements))
        assert all(e.flags.c_contiguous for e in q.elements)
        assert q.stacked().tobytes() == p.stacked().tobytes()

    def test_non_finite_entry_refused_in_either_layout(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = complex(0.0, np.nan)
        for mat in (m, m.T):
            with pytest.raises(DomainError, match="non-finite"):
                DensityMatrix(mat)

    def test_equal_states_induce_equal_floats(self):
        # induced_probs's einsum sums in an order set by the memory layout
        rng = np.random.default_rng(10)
        for d in (2, 3, 5, 8):
            p = random_povm(rng, d, 7)
            r = random_density(rng, d).mat
            rho_c, rho_f = DensityMatrix(r), DensityMatrix(np.asfortranarray(r))
            assert induced_distribution(p, rho_c).probs.tobytes() == induced_distribution(p, rho_f).probs.tobytes()
            assert induced_probs(p, r).tobytes() == induced_probs(p, np.asfortranarray(r)).tobytes()


class TestBloch:
    def test_axes(self):
        up = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
        assert np.allclose(up.mat, np.diag([1.0, 0.0]))
        x = bloch_to_density(BlochVector(1.0, 0.0, 0.0))
        assert np.allclose(x.mat, np.full((2, 2), 0.5))

    def test_mixed_interior(self):
        rho = bloch_to_density(BlochVector(0.3, 0.0, 0.4))
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            BlochVector(1.0, 1.0, 0.0)


class TestEig:
    def test_diagonal(self):
        evals, evecs = eig_hermitian(np.diag([0.2, 0.9, 0.5]).astype(complex))
        assert np.allclose(evals, [0.9, 0.5, 0.2])
        assert np.allclose(np.abs(evecs), np.eye(3)[:, [1, 2, 0]])

    @pytest.mark.parametrize(
        "diag, order",
        [
            ([0.5, 0.2, 0.5], [0, 2, 1]),
            ([0.3, 0.3, 0.3, 0.1], [0, 1, 2, 3]),
            ([1 / 3] * 3, [0, 1, 2]),
        ],
    )
    def test_degenerate_diagonal_keeps_diagonal_order(self, diag, order):
        # the grouped-element basis scan visits columns in this order, so ties
        # among equal eigenvalues decide which optimizer is reported
        evals, evecs = eig_hermitian(np.diag(diag).astype(complex))
        assert np.allclose(evals, np.asarray(diag)[order], atol=1e-15)
        assert np.allclose(np.abs(evecs), np.eye(len(diag))[:, order])

    def test_degenerate_rotated_projector(self):
        # the basis inside a degenerate eigenspace is arbitrary; its projector is not
        rng = np.random.default_rng(13)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        h = u @ np.diag([0.7, 0.7, 0.2, -0.1]) @ u.conj().T
        evals, evecs = eig_hermitian(h)
        assert np.allclose(evals, [0.7, 0.7, 0.2, -0.1], atol=1e-12)
        top = evecs[:, :2]
        assert np.allclose(top @ top.conj().T, u[:, :2] @ u[:, :2].conj().T, atol=1e-10)
        assert np.allclose(evecs.conj().T @ evecs, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize(
        "mat",
        [
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            np.diag([np.nan, 1.0]).astype(complex),
        ],
        ids=["non-hermitian", "nan"],
    )
    def test_bad_input_rejected(self, mat):
        with pytest.raises(DomainError):
            eig_hermitian(mat)

    def test_matches_numpy_random(self):
        # independent oracle: numpy's LAPACK-backed eigensolver
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.choice([2, 3, 4, 5, 6, 8, 16]))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = g + g.conj().T
            evals, evecs = eig_hermitian(h)
            ref = np.sort(np.linalg.eigvalsh(h))[::-1]
            assert np.allclose(evals, ref, atol=1e-9)
            # eigenvector residual ||H v - lambda v||
            for i in range(d):
                resid = h @ evecs[:, i] - evals[i] * evecs[:, i]
                assert np.linalg.norm(resid) < 1e-8

    def test_descending_order(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(5, 5))
        h = (h + h.T).astype(complex)
        evals, _ = eig_hermitian(h)
        assert np.all(np.diff(evals) <= 1e-12)


def _hermitian_matrix(rng, d, kind):
    """A d x d Hermitian matrix: random, diagonal, a projector, or with a repeated eigenvalue."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "random":
        return g + g.conj().T
    if kind == "diagonal":
        return np.diag(rng.choice([0.0, 0.25, 0.5, 1.0], size=d) + rng.uniform(0, 1e-3, d) * rng.integers(0, 2, d))
    u, _ = np.linalg.qr(g)
    if kind == "projector":
        v = u[:, 0]
        return np.outer(v, v.conj())
    evals = rng.choice([0.3, 0.7], size=d)  # "degenerate": each eigenvalue repeated
    return u @ np.diag(evals) @ u.conj().T


@st.composite
def hermitian_stacks(draw):
    """A (n, d, d) stack, n in 0-6 and d in 1-6, of one kind of Hermitian matrix."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["random", "diagonal", "projector", "degenerate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([_hermitian_matrix(rng, d, kind) for _ in range(n)], dtype=complex).reshape(n, d, d)


def _same(a, b) -> bool:
    """Equal shapes and equal bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _oracle_stack(stack):
    """eig_hermitian of each matrix of a (..., d, d) stack by oracles.eig_hermitian_2d."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    pairs = [oracles.eig_hermitian_2d(m) for m in flat]
    evals = np.array([e for e, _ in pairs], dtype=float).reshape(stack.shape[:-1])
    evecs = np.array([v for _, v in pairs], dtype=complex).reshape(stack.shape)
    return evals, evecs


class TestEigStack:
    """A stack is decomposed in one call, and a matrix is a stack of one; every
    matrix gets the floats of the one-matrix reference, tied and diagonal too."""

    @given(stack=hermitian_stacks())
    def test_matches_per_matrix_calls(self, stack):
        evals, evecs = eig_hermitian(stack)
        want = _oracle_stack(stack)
        assert _same(evals, want[0]) and _same(evecs, want[1])
        for mat in stack:
            assert all(map(_same, eig_hermitian(mat), oracles.eig_hermitian_2d(mat)))

    def test_degenerate_diagonal_stack_keeps_diagonal_order(self):
        stack = np.array([np.diag(x) for x in ([0.5, 0.2, 0.5], [0.3, 0.3, 0.1], [1 / 3] * 3)], dtype=complex)
        evals, evecs = eig_hermitian(stack)
        for k, order in enumerate(([0, 2, 1], [0, 1, 2], [0, 1, 2])):
            assert np.allclose(np.abs(evecs[k]), np.eye(3)[:, order])
        assert all(map(_same, (evals, evecs), _oracle_stack(stack)))

    def test_higher_stack_dimensions(self):
        rng = np.random.default_rng(3)
        stack = np.array([_hermitian_matrix(rng, 3, "random") for _ in range(6)]).reshape(2, 3, 3, 3)
        assert all(map(_same, eig_hermitian(stack), _oracle_stack(stack)))

    @given(stack=hermitian_stacks(), where=st.integers(0, 5), bad=st.sampled_from(["non-hermitian", "nan", "inf"]))
    def test_one_bad_slice_raises_the_2d_error(self, stack, where, bad):
        if len(stack) == 0:
            stack = np.eye(2, dtype=complex)[None]
        stack = stack.copy()
        k = where % len(stack)
        d = stack.shape[-1]
        if bad == "non-hermitian":
            if d == 1:
                stack[k, 0, 0] += 1j  # a 1 x 1 matrix is Hermitian only when real
            else:
                stack[k, 0, d - 1] += 1.0
        else:
            stack[k, d // 2, 0] = complex(np.nan if bad == "nan" else np.inf, 0.0)
        with pytest.raises(DomainError) as alone:
            oracles.eig_hermitian_2d(stack[k])
        for mat in (stack[k], stack):
            with pytest.raises(DomainError, match=re.escape(str(alone.value))):
                eig_hermitian(mat)

    def test_non_square_stack_refused(self):
        for shape in [(2, 3, 2), (2, 3), (3,), ()]:
            with pytest.raises(StructuralError, match=re.escape(f"matrix must be a square matrix, got shape {shape}")):
                eig_hermitian(np.zeros(shape, dtype=complex))


class TestSequenceOperator:
    def test_single(self, diag_povm):
        op = sequence_operator(diag_povm, (0,))
        assert np.allclose(op, diag_povm.elements[0])

    def test_triple_diag(self, diag_povm):
        op = sequence_operator(diag_povm, (1, 1, 1))
        assert abs(op[0, 0] - 0.6**3) < 1e-14
        assert abs(op[-1, -1] - 0.8**3) < 1e-14

    def test_completeness(self, diag_povm):
        import itertools

        total = sum(
            sequence_operator(diag_povm, seq)
            for seq in itertools.product(range(2), repeat=3)
        )
        assert np.allclose(total, np.eye(8))

    def test_cap(self, diag_povm):
        with pytest.raises(ResourceError):
            sequence_operator(diag_povm, (0,) * 13)


class TestGroupingMask:
    @pytest.mark.parametrize("accept", [[[True, False]], np.zeros((2, 2), dtype=bool), True])
    def test_not_1d(self, accept):
        with pytest.raises(StructuralError, match="must be 1-D"):
            GroupingMask(accept)

    @pytest.mark.parametrize("indices", [set(), {0}, {3}, {0, 1, 2, 3}])
    def test_in_range(self, indices):
        # a mask over 4 outcomes holds exactly the accepted indices, read-only,
        # in its own copy of the caller's array
        accept = np.isin(np.arange(4), sorted(indices))
        mask = GroupingMask(accept)
        accept[:] = ~accept
        assert mask.accept.dtype == bool
        assert set(np.flatnonzero(mask.accept).tolist()) == indices
        with pytest.raises(ValueError):
            mask.accept[0] = True


def _qubit():
    return DensityMatrix(np.eye(2, dtype=complex) / 2)


class TestIdentityEquality:
    """Types that hold arrays compare and hash by identity: == between two
    equal instances neither raises nor compares the arrays."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ClassicalDistribution([0.5, 0.5]),
            _qubit,
            lambda: Povm((np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)),
            lambda: SequenceDistribution(2, 1, [0.5, 0.5]),
            lambda: JointState(np.eye(4, dtype=complex) / 4, local_dim=2, n=2),
            lambda: fibonacci_covariant_discretization(4),
            lambda: AdaptiveStrategy(depth=1, candidates=(_qubit(),), choices={(): (0, 0)}),
            lambda: StatePair(_qubit(), _qubit()),
            lambda: ProductInput((_qubit(),)),
        ],
        ids=[
            "ClassicalDistribution", "DensityMatrix", "Povm", "SequenceDistribution", "JointState",
            "CovariantDiscretization", "AdaptiveStrategy", "StatePair", "ProductInput",
        ],
    )
    def test_equal_twins_are_distinct(self, make):
        a, twin = make(), make()
        assert a == a
        assert a != twin
        assert hash(a) == hash(a)
        assert a in {a} and len({a, twin}) == 2


def _row_gap(a, b) -> float:
    """Largest distance from a row of either table to the nearest row of the other."""
    dist = np.abs(a[:, None, :] - b[None, :, :]).max(axis=-1)
    return float(max(dist.min(axis=0).max(), dist.min(axis=1).max()))


class TestJointEigenbasis:
    def test_diagonal_detector(self, diag_povm):
        u, a = joint_eigenbasis(diag_povm)
        assert np.array_equal(u, np.eye(2))
        assert a.tolist() == [[0.4, 0.6], [0.2, 0.8]]

    @given(case=commuting_detectors())
    def test_recovers_the_rows(self, case):
        p, want = case
        u, a = joint_eigenbasis(p)
        assert np.allclose(u.conj().T @ u, np.eye(p.dim), rtol=0.0, atol=1e-14)
        assert a.shape == want.shape and _row_gap(a, want) < 1e-14
        # the basis is E_0's, in eig_hermitian's order, whenever that one diagonalizes every element
        if len(set(np.round(want[:, 0], 12))) == p.dim:
            assert np.array_equal(u, eig_hermitian(p.elements[0])[1])

    def test_degenerate_first_element(self):
        # E_0 = I/2 leaves its basis arbitrary; the generic combination fixes it
        u = random_unitary(np.random.default_rng(4), 3)
        rows = np.array([[0.5, 0.1, 0.4], [0.5, 0.3, 0.2], [0.5, 0.4, 0.1]])
        p = Povm(tuple(u @ np.diag(col) @ u.conj().T for col in rows.T))
        assert _row_gap(joint_eigenbasis(p)[1], rows) < 1e-14

    @pytest.mark.parametrize("d, m", [(2, 3), (3, 4), (4, 11)])
    def test_non_commuting_detector(self, d, m):
        assert joint_eigenbasis(random_povm(np.random.default_rng(d * m), d, m)) is None

    def test_every_two_outcome_detector_commutes(self):
        rng = np.random.default_rng(6)
        assert all(joint_eigenbasis(random_povm(rng, d, 2)) is not None for d in (2, 3, 4, 5))

    @pytest.mark.parametrize("eps, commutes", [(1e-14, True), (1e-9, False), (1e-6, False)])
    def test_tolerance(self, eps, commutes):
        # eps moves weight between two outcomes along a direction that is not diagonal
        h = np.array([[0.0, 1.0], [1.0, 0.0]]) * eps
        elems = [np.diag(c).astype(complex) for c in ([0.5, 0.1], [0.2, 0.3], [0.3, 0.6])]
        p = Povm((elems[0] + h, elems[1] - h, elems[2]))
        assert (joint_eigenbasis(p) is not None) == commutes
        assert core.TOL_COMMUTE <= min(core.TOL_HERM, core.TOL_TRACE, core.TOL_PSD, core.TOL_COMPLETE)
