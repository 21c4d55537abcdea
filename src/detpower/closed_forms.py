"""Analytic benchmark values: covariant qubit POVM, noisy Stern-Gerlach,
commuting-qubit rates, and the mixing bounds for merged detectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ClassicalDistribution, ExponentValue, chernoff_rows
from .core import PAULI_X, PAULI_Y, PAULI_Z, Povm
from .errors import DomainError, StructuralError
from .optimize import SearchOptions, zeta_chernoff

# Bloch directions sampled by covariant_zeta_numeric: the three axes plus
# Fibonacci-sphere nodes
COVARIANT_DIRECTIONS = 24


@dataclass(frozen=True)
class MixingBounds:
    lower: float
    upper: float
    p: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise DomainError("mixing lower bound exceeds upper bound")


@dataclass(frozen=True, eq=False)
class CovariantDiscretization:
    """Antipodally closed set of unit Bloch vectors; nodes come in (v, -v)
    pairs stored adjacently so their sum cancels exactly."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or nodes.shape[0] % 2:
            raise StructuralError("nodes must be an even-length list of 3-vectors")
        norms = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise StructuralError("nodes must be unit vectors")
        pair_sums = nodes.reshape(-1, 2, 3).sum(axis=1)
        if np.max(np.abs(pair_sums)) != 0.0:
            raise StructuralError("nodes must cancel in adjacent antipodal pairs")
        object.__setattr__(self, "nodes", nodes)
        self.nodes.setflags(write=False)

    @property
    def m(self) -> int:
        return self.nodes.shape[0]

    def to_povm(self) -> Povm:
        """Elements (I + n_i . sigma)/M; completeness is exact by antipodality."""
        eye = np.eye(2, dtype=complex)
        elems = [
            (eye + nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z) / self.m
            for nx, ny, nz in self.nodes
        ]
        return Povm(tuple(elems))


def fibonacci_covariant_discretization(m: int) -> CovariantDiscretization:
    """Fibonacci lattice of m/2 directions plus exact antipodes."""
    if m < 2 or m % 2:
        raise DomainError("node count must be an even integer >= 2")
    half = m // 2
    if half == 1:
        pts = np.array([[0.0, 0.0, 1.0]])
    else:
        i = np.arange(half)
        golden = (1 + math.sqrt(5)) / 2
        z = 1 - (2 * i + 1) / half
        theta = 2 * math.pi * i / golden
        r = np.sqrt(np.clip(1 - z * z, 0.0, None))
        pts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    nodes = np.empty((m, 3))
    nodes[0::2] = pts
    nodes[1::2] = -pts
    return CovariantDiscretization(nodes)


def covariant_c_s(s: float) -> float:
    """Chernoff overlap of the covariant qubit POVM at antipodal inputs:
    s(1-s)*pi/sin(s*pi), with the removable endpoints set to 1."""
    if not 0.0 <= s <= 1.0:
        raise DomainError("s must lie in [0, 1]")
    if s == 0.0 or s == 1.0:
        return 1.0
    return s * (1.0 - s) * math.pi / math.sin(s * math.pi)


def covariant_zeta_numeric(disc: CovariantDiscretization) -> ExponentValue:
    """Chernoff exponent of the discretized covariant POVM, maximized over
    antipodal pure Bloch pairs along COVARIANT_DIRECTIONS deterministic
    directions.

    All directions are scored in one chernoff_rows call, with floor 0: a
    direction that cannot reach the largest value gives -inf there, which
    changes neither the first maximum nor whether it lies above 0.  The
    result is the first infinite value, else the first strict maximum above
    0, else 0.
    """
    dirs = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    extra = fibonacci_covariant_discretization(2 * (COVARIANT_DIRECTIONS - 3)).nodes[0::2]
    dirs.extend(extra[: COVARIANT_DIRECTIONS - 3])
    proj = np.array([disc.nodes @ b for b in dirs])
    p0 = ClassicalDistribution(np.clip((1.0 + proj) / disc.m, 0.0, None))
    p1 = ClassicalDistribution(np.clip((1.0 - proj) / disc.m, 0.0, None))
    values, s = chernoff_rows(p0, p1, floor=0.0)
    t = int(np.argmax(values))  # the first maximum, so the first inf if there is one
    if not values[t] > 0.0:
        return ExponentValue(0.0, None)
    return ExponentValue(float(values[t]), None if math.isnan(s[t]) else float(s[t]))


def noisy_sg_povm(r: float) -> Povm:
    """Stern-Gerlach of purity r: elements (I +/- r sigma_z)/2."""
    if not 0.0 <= r <= 1.0:
        raise DomainError("purity r must lie in [0, 1]")
    eye = np.eye(2, dtype=complex)
    return Povm(((eye + r * PAULI_Z) / 2, (eye - r * PAULI_Z) / 2))


def noisy_sg_zeta(r: float) -> float:
    """Chernoff exponent -(1/2) log(1 - r^2) of the noisy Stern-Gerlach."""
    if not 0.0 <= r <= 1.0:
        raise DomainError("purity r must lie in [0, 1]")
    if r == 1.0:
        return math.inf
    return -0.5 * math.log1p(-r * r)


def equivalent_sg_purity(zeta: float) -> float:
    """Purity of the Stern-Gerlach with the same Chernoff exponent."""
    if zeta < 0:
        raise DomainError("exponent must be nonnegative")
    if math.isinf(zeta):
        return 1.0
    return math.sqrt(-math.expm1(-2.0 * zeta))


def _binary_kl(a: float, b: float) -> float:
    return a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))


def commuting_gamma(p: float, q: float) -> float:
    """Crossover type gamma(p, q) where the two binomial deviation costs balance."""
    if not 0.0 < q < p < 1.0:
        raise DomainError("need 1 > p > q > 0 (p = q is a useless detector)")
    num = math.log((1 - q) / (1 - p))
    return num / (num + math.log(p / q))


def commuting_zeta(p: float, q: float) -> float:
    """Asymptotic rate D(gamma || p) of a commuting two-outcome qubit POVM
    with element eigenvalues (p, q)."""
    g = commuting_gamma(p, q)
    return _binary_kl(g, p)


def c_functional(p: Povm, opts: SearchOptions | None = None) -> float:
    """Minimum Chernoff overlap C = exp(-zeta_CB) of the detector."""
    report = zeta_chernoff(p, opts)
    return math.exp(-report.value) if math.isfinite(report.value) else 0.0


def mixing_bounds(c_e: float, c_g: float, z_e: float, z_g: float, p: float) -> MixingBounds:
    """Chernoff-exponent bounds for the p-weighted merge of two POVMs."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("mixing weight must lie in [0, 1]")
    for c, z in ((c_e, z_e), (c_g, z_g)):
        if not 0.0 < c <= 1.0:
            raise DomainError("overlap values must lie in (0, 1]")
        if abs(z + math.log(c)) > 1e-9:
            raise DomainError("inconsistent (overlap, exponent) input pair")
    upper = p * z_e + (1.0 - p) * z_g
    lower = -math.log(min(p * c_e + (1.0 - p), p + (1.0 - p) * c_g))
    return MixingBounds(lower=lower, upper=upper, p=p)


def stein_mixing_bounds(z_e: float, z_g: float, p: float) -> MixingBounds:
    """Stein-exponent bounds for the p-weighted merge of two POVMs."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("mixing weight must lie in [0, 1]")
    if z_e < 0 or z_g < 0:
        raise DomainError("exponents must be nonnegative")
    return MixingBounds(
        lower=max(p * z_e, (1.0 - p) * z_g),
        upper=p * z_e + (1.0 - p) * z_g,
        p=p,
    )


def mixed_povm(e: Povm, g: Povm, p: float) -> Povm:
    """Merge two POVMs into one device that applies E with probability p."""
    if e.dim != g.dim:
        raise StructuralError("POVMs to be mixed must share one dimension")
    if not 0.0 <= p <= 1.0:
        raise DomainError("mixing weight must lie in [0, 1]")
    elems = tuple(p * np.asarray(x) for x in e.elements) + tuple(
        (1.0 - p) * np.asarray(x) for x in g.elements
    )
    return Povm(elems)


def hoeffding_mixing_upper(z_e: float, z_g: float, p: float) -> float:
    """Upper bound p*z_E + (1-p)*z_G; no matching lower bound is available."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("mixing weight must lie in [0, 1]")
    return p * z_e + (1.0 - p) * z_g
