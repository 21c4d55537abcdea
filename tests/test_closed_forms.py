import math

import numpy as np
import pytest

from detpower import (
    ClassicalDistribution,
    DomainError,
    Povm,
    SearchOptions,
    c_functional,
    chernoff_exponent,
    commuting_gamma,
    commuting_zeta,
    covariant_c_s,
    covariant_zeta_numeric,
    equivalent_sg_purity,
    fibonacci_covariant_discretization,
    hoeffding_mixing_upper,
    mixed_povm,
    mixing_bounds,
    noisy_sg_povm,
    noisy_sg_zeta,
    phi,
    stein_mixing_bounds,
    validate_povm,
    zeta_chernoff,
)

import oracles

LN_4_OVER_PI = math.log(4.0 / math.pi)


class TestCovariant:
    def test_c_half_is_quarter_pi(self):
        assert covariant_c_s(0.5) == 0.5 * 0.5 * math.pi / math.sin(0.5 * math.pi)
        assert abs(covariant_c_s(0.5) - math.pi / 4.0) < 1e-16

    def test_endpoints(self):
        assert covariant_c_s(0.0) == 1.0
        assert covariant_c_s(1.0) == 1.0

    def test_symmetry_in_s(self):
        for s in (0.1, 0.25, 0.4):
            assert abs(covariant_c_s(s) - covariant_c_s(1 - s)) < 1e-14

    def test_quadrature_oracle(self):
        # independent check: Riemann sum of (1/2) int (1+u)^(1-s) (1-u)^s du
        u = np.linspace(-1.0, 1.0, 2_000_001)
        for s in (0.25, 0.5, 0.75):
            ref = 0.5 * np.trapezoid((1 + u) ** (1 - s) * (1 - u) ** s, u)
            assert abs(covariant_c_s(s) - ref) < 1e-7

    def test_discretized_phi_matches_c_s(self):
        # phi of the discretized covariant POVM at antipodal inputs converges
        # to log C_s
        disc = fibonacci_covariant_discretization(100_000)
        proj = disc.nodes @ np.array([0.0, 0.0, 1.0])
        p0 = ClassicalDistribution(np.clip((1 + proj) / disc.m, 0.0, None))
        p1 = ClassicalDistribution(np.clip((1 - proj) / disc.m, 0.0, None))
        for s in (0.25, 0.5, 0.75):
            assert abs(phi(s, p0, p1) - math.log(covariant_c_s(s))) < 1e-4

    def test_discretization_structure(self):
        disc = fibonacci_covariant_discretization(1000)
        assert disc.m == 1000
        # adjacent antipodal pairs cancel exactly, so the POVM is complete
        rep = validate_povm(disc.to_povm())
        assert rep.valid
        assert rep.completeness_residual < 1e-12

    def test_odd_count_rejected(self):
        with pytest.raises(DomainError):
            fibonacci_covariant_discretization(999)

    def test_numeric_zeta_converges(self):
        disc = fibonacci_covariant_discretization(10_000)
        val = covariant_zeta_numeric(disc)
        assert abs(val.value - LN_4_OVER_PI) < 1e-3

    @pytest.mark.parametrize("m", [2, 4, 6, 12, 40])
    def test_rows_match_the_direction_loop(self, m):
        disc = fibonacci_covariant_discretization(m)
        got, want = covariant_zeta_numeric(disc), oracles.covariant_zeta_loop(disc)
        assert got.value.hex() == want.value.hex()
        assert (got.optimizer_s is None) == (want.optimizer_s is None)
        if got.optimizer_s is not None:
            assert got.optimizer_s.hex() == want.optimizer_s.hex()

    def test_two_nodes_perfect(self):
        disc = fibonacci_covariant_discretization(2)
        assert covariant_zeta_numeric(disc).infinite

    def test_error_shrinks_with_refinement(self):
        errs = [
            abs(covariant_zeta_numeric(fibonacci_covariant_discretization(m)).value - LN_4_OVER_PI)
            for m in (1000, 4000, 16000, 64000)
        ]
        assert errs[-1] < errs[0]
        assert all(e < 1e-2 for e in errs)


class TestNoisySG:
    def test_povm_structure(self):
        p = noisy_sg_povm(0.62)
        assert validate_povm(p).valid
        assert abs(p.elements[0][0, 0].real - 0.81) < 1e-12

    def test_zeta_values(self):
        assert noisy_sg_zeta(0.0) == 0.0
        assert math.isinf(noisy_sg_zeta(1.0))
        assert abs(noisy_sg_zeta(0.62) - 0.24257893850870652) < 1e-12

    def test_matches_full_search(self):
        opts = SearchOptions(restarts=8, seed=0)
        for r in (0.3, 0.9):
            rep = zeta_chernoff(noisy_sg_povm(r), opts)
            assert abs(rep.value - noisy_sg_zeta(r)) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            noisy_sg_zeta(1.2)

    def test_purity_roundtrip(self):
        for r in (0.1, 0.5, 0.62, 0.95):
            assert abs(equivalent_sg_purity(noisy_sg_zeta(r)) - r) < 1e-12

    def test_covariant_equivalent_purity(self):
        r = equivalent_sg_purity(LN_4_OVER_PI)
        assert 0.615 <= r <= 0.625

    def test_purity_limits(self):
        assert equivalent_sg_purity(0.0) == 0.0
        assert equivalent_sg_purity(math.inf) == 1.0


class TestCommuting:
    def test_gamma_value(self):
        assert abs(commuting_gamma(0.4, 0.2) - 0.2933049473885763) < 1e-12

    def test_gamma_balances_deviation_costs(self):
        # independent oracle: gamma is the root of D(g||p) = D(g||q)
        rng = np.random.default_rng(51)
        for _ in range(200):
            q = rng.uniform(0.02, 0.6)
            p = rng.uniform(q + 0.05, 0.97)
            g = commuting_gamma(p, q)
            assert q < g < p
            kl_p = g * math.log(g / p) + (1 - g) * math.log((1 - g) / (1 - p))
            kl_q = g * math.log(g / q) + (1 - g) * math.log((1 - g) / (1 - q))
            assert abs(kl_p - kl_q) < 1e-12

    def test_symmetric_case(self):
        assert abs(commuting_gamma(0.7, 0.3) - 0.5) < 1e-14

    def test_zeta_value(self):
        assert abs(commuting_zeta(0.4, 0.2) - 0.024666131263401) < 1e-12

    def test_zeta_matches_chernoff(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            q = rng.uniform(0.02, 0.6)
            p = rng.uniform(q + 0.05, 0.97)
            direct = chernoff_exponent(
                ClassicalDistribution(np.array([p, 1 - p])),
                ClassicalDistribution(np.array([q, 1 - q])),
            ).value
            assert abs(commuting_zeta(p, q) - direct) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            commuting_gamma(0.3, 0.3)


class TestCFunctional:
    def test_noisy_sg(self):
        opts = SearchOptions(restarts=4, seed=0)
        for r in (0.3, 0.62):
            c = c_functional(noisy_sg_povm(r), opts)
            assert abs(c - math.sqrt(1 - r * r)) < 1e-8

    def test_useless_detector(self):
        p = Povm((np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2))
        assert abs(c_functional(p, SearchOptions(restarts=2)) - 1.0) < 1e-12

    def test_projective(self):
        p = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        assert c_functional(p, SearchOptions(restarts=2)) == 0.0

    def test_covariant_quarter_pi(self):
        povm = fibonacci_covariant_discretization(10_000).to_povm()
        c = c_functional(povm, SearchOptions(restarts=0))
        assert abs(c - math.pi / 4.0) < 1e-3


class TestMixing:
    def test_trivial_weights(self):
        z_e, z_g = 0.3, 0.1
        b = mixing_bounds(math.exp(-z_e), math.exp(-z_g), z_e, z_g, 1.0)
        assert abs(b.lower - z_e) < 1e-12 and abs(b.upper - z_e) < 1e-12
        b = mixing_bounds(math.exp(-z_e), math.exp(-z_g), z_e, z_g, 0.0)
        assert abs(b.lower - z_g) < 1e-12 and abs(b.upper - z_g) < 1e-12

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(DomainError):
            mixing_bounds(0.9, 0.8, 0.3, 0.1, 0.5)

    def test_mixed_povm_structure(self, diag_povm):
        g = noisy_sg_povm(0.62)
        mixed = mixed_povm(diag_povm, g, 0.3)
        assert mixed.n_outcomes == 4
        assert validate_povm(mixed).valid

    def test_mixed_exponent_within_bounds(self, diag_povm):
        g = Povm((np.diag([0.3, 0.1]).astype(complex), np.diag([0.7, 0.9]).astype(complex)))
        z_e = commuting_zeta(0.4, 0.2)
        z_g = commuting_zeta(0.3, 0.1)
        for p in (0.25, 0.5, 0.75):
            mixed = mixed_povm(diag_povm, g, p)
            d0 = ClassicalDistribution(
                np.array([e[0, 0].real for e in mixed.elements])
            )
            d1 = ClassicalDistribution(
                np.array([e[1, 1].real for e in mixed.elements])
            )
            z = chernoff_exponent(d0, d1).value
            b = mixing_bounds(math.exp(-z_e), math.exp(-z_g), z_e, z_g, p)
            assert b.lower - 1e-9 <= z <= b.upper + 1e-9

    def test_stein_bounds(self):
        b = stein_mixing_bounds(0.4, 0.1, 0.5)
        assert abs(b.lower - 0.2) < 1e-12
        assert abs(b.upper - 0.25) < 1e-12

    def test_hoeffding_upper(self):
        assert abs(hoeffding_mixing_upper(0.4, 0.1, 0.25) - 0.175) < 1e-12
        with pytest.raises(DomainError):
            hoeffding_mixing_upper(0.4, 0.1, 1.5)
