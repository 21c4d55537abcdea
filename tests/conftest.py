import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from detpower import DensityMatrix, Povm

# every property test runs without a deadline and derandomized, so that each
# tier-1 run checks the same examples
settings.register_profile("detpower", deadline=None, derandomize=True)
settings.load_profile("detpower")


@pytest.fixture
def diag_povm():
    """The two-outcome commuting qubit detector used throughout the examples."""
    return Povm((np.diag([0.4, 0.2]).astype(complex), np.diag([0.6, 0.8]).astype(complex)))


@pytest.fixture
def basis_states():
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    rho1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    return rho0, rho1


def assert_log_count(log_size, count):
    """A log count is math.log of the exact count (-inf for none) within 1e-13 relative."""
    assert math.isclose(log_size, math.log(count) if count else -math.inf, rel_tol=1e-13)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_povm(rng, d, m):
    """Random full-rank POVM: normalize random PSD operators by their sum."""
    mats = []
    for _ in range(m):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    return Povm(tuple(inv_sqrt @ a @ inv_sqrt for a in mats))


def random_distribution(rng, m):
    p = rng.uniform(0.05, 1.0, size=m)
    return p / p.sum()


def diag_detector(pp, qq):
    """Two-outcome qubit detector diag(pp, qq) / diag(1 - pp, 1 - qq)."""
    return Povm((np.diag([pp, qq]).astype(complex), np.diag([1 - pp, 1 - qq]).astype(complex)))


def candidate_pool(rng):
    """The computational basis states and two random pure qubit states."""
    basis = [DensityMatrix(np.diag(e).astype(complex)) for e in ([1.0, 0.0], [0.0, 1.0])]
    return basis + [DensityMatrix(np.outer(v, v.conj())) for v in (random_pure(rng, 2), random_pure(rng, 2))]


# click rates, with the edge values that empty a binomial's support drawn often
rates = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def rate_pairs(draw):
    """(pp, qq) with pp >= qq; equal rates are drawn on purpose."""
    a = draw(rates)
    b = draw(st.one_of(st.just(a), rates))
    return max(a, b), min(a, b)


def random_unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


@st.composite
def commuting_detectors(draw, min_outcomes=2):
    """(detector, A): a commuting detector with d in 2-4 and m in min_outcomes-6
    whose elements are U diag(A[:, k]) U^dagger in a random unitary frame U.

    Row i of A, the outcome distribution of U's column i, has entries of at
    least 0.05/6.  "repeated" copies row 0 to row 1; "degenerate" gives row 1
    row 0's entries in another order with the first kept, so E_0 has a
    repeated eigenvalue (the rows differ when m > 2).
    """
    d, m = draw(st.integers(2, 4)), draw(st.integers(min_outcomes, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(0.05, 1.0, size=(d, m))
    a /= a.sum(axis=1, keepdims=True)
    kind = draw(st.sampled_from(["distinct", "repeated", "degenerate"]))
    if kind == "repeated":
        a[1] = a[0]
    elif kind == "degenerate":
        a[1] = a[0, [0, *range(m - 1, 0, -1)]]
    u = random_unitary(rng, d)
    return Povm(tuple(u @ np.diag(col) @ u.conj().T for col in a.T)), a
