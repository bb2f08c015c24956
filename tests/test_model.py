import numpy as np
import pytest
from numpy.testing import assert_allclose

from adsorb.errors import DomainError
from adsorb.model import (
    REASON_ADMISSIBLE,
    REASON_INCREASING,
    REASON_INTERIOR,
    DimensionlessParameters,
    PhysicalParameters,
    RawKinetics,
    ReactionOrders,
    alpha_from_qe,
    analyze_equilibria,
    convert_raw_rates,
    equilibrium_fraction_from_masses,
    equilibrium_polynomial,
    nondimensionalize,
    qe_from_alpha,
    sips_isotherm,
)
from adsorb.model import _rate_law, _uptake

from conftest import column_physical, equilibrium_polynomial_direct, params_for


class TestReactionOrders:
    def test_accepts_positive_integers(self):
        o = ReactionOrders(2, 3)
        assert (o.m, o.n) == (2, 3) and o.admissible
        assert ReactionOrders(1, 1).admissible
        assert not ReactionOrders(3, 2).admissible

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-1, 2), (1.5, 1), (1, True)])
    def test_rejects_non_positive_or_non_integer(self, m, n):
        with pytest.raises(DomainError):
            ReactionOrders(m, n)


class TestSipsIsotherm:
    def test_saturation_limit(self):
        o = ReactionOrders(1, 1)
        assert sips_isotherm(1e12, 1.0, 0.358, o) == pytest.approx(0.358, rel=1e-10)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2)])
    def test_half_loading_point(self, m, n):
        # k_l c^m = 1 puts the equilibrium exactly at half the capacity
        c = 2.0
        k_l = 1.0 / c ** m
        assert sips_isotherm(c, k_l, 0.5, ReactionOrders(m, n)) == pytest.approx(0.25, rel=1e-13)

    def test_reference_column_loading(self):
        # frozen from a direct evaluation with the reference column values
        q_e = sips_isotherm(2.835, 1.13 / 2.173e-4, 0.358, ReactionOrders(1, 1))
        assert q_e == pytest.approx(0.3579757181490678, rel=1e-12)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(DomainError):
            sips_isotherm(0.0, 1.0, 0.3, ReactionOrders(1, 1))
        with pytest.raises(DomainError):
            sips_isotherm(1.0, -2.0, 0.3, ReactionOrders(1, 1))


class TestEquilibriumFromMasses:
    @pytest.mark.parametrize("m_f,m_i,expected", [
        (10.0, 10.0, 0.0),
        (10.5, 10.0, 0.05),
        (13.58, 10.0, 0.358),
    ])
    def test_values(self, m_f, m_i, expected):
        assert equilibrium_fraction_from_masses(m_f, m_i) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_masses(self):
        with pytest.raises(DomainError):
            equilibrium_fraction_from_masses(10.0, 0.0)
        with pytest.raises(DomainError):
            equilibrium_fraction_from_masses(9.0, 10.0)


class TestConvertRawRates:
    def test_first_order_in_adsorbent_is_identity(self):
        raw = RawKinetics(kappa_ad=2.7, kappa_de=0.3, c_sat=4.0)
        k_ad, k_de = convert_raw_rates(raw, rho_b=200.0, epsilon=0.4,
                                       orders=ReactionOrders(2, 1))
        assert k_ad == pytest.approx(2.7)
        assert k_de == pytest.approx(4.0 ** 2 * 0.3)

    def test_hand_computed_case(self):
        raw = RawKinetics(kappa_ad=2.0, kappa_de=1.0, c_sat=3.0)
        k_ad, k_de = convert_raw_rates(raw, rho_b=100.0, epsilon=0.5,
                                       orders=ReactionOrders(1, 2))
        assert k_ad == pytest.approx(400.0)
        assert k_de == pytest.approx(600.0)

    def test_pure_adsorption(self):
        raw = RawKinetics(kappa_ad=1.0, kappa_de=0.0, c_sat=3.0)
        _, k_de = convert_raw_rates(raw, rho_b=100.0, epsilon=0.5,
                                    orders=ReactionOrders(1, 2))
        assert k_de == 0.0

    def test_rejects_bad_void_fraction(self):
        raw = RawKinetics(kappa_ad=1.0, kappa_de=1.0, c_sat=1.0)
        with pytest.raises(DomainError):
            convert_raw_rates(raw, rho_b=100.0, epsilon=1.0, orders=ReactionOrders(1, 1))


class TestNondimensionalize:
    def test_reference_column(self):
        p = nondimensionalize(column_physical(), pe=0.1)
        # frozen from an independent evaluation of the defining formulas
        assert p.time_scale == pytest.approx(0.3121325322222997, rel=1e-12)
        assert p.length_scale == pytest.approx(2.859397396089196e-4, rel=1e-12)
        assert p.da == pytest.approx(7.046802980996702e-3, rel=1e-12)
        assert p.alpha == pytest.approx(0.999932173600748, rel=1e-12)
        assert p.ell == pytest.approx(18.885097983881472, rel=1e-12)
        assert p.pe == 0.1

    def test_da_shortcut(self):
        # Da reduces to eps c_in / (rho_b q_max), independent of the kinetics
        phys = column_physical()
        p = nondimensionalize(phys, pe=0.1)
        shortcut = phys.epsilon * phys.c_in / (phys.rho_b * phys.q_max)
        assert p.da == pytest.approx(shortcut, rel=1e-12)
        slow = PhysicalParameters(
            epsilon=phys.epsilon, u_in=phys.u_in, k_ad=0.02, k_de=1e-3,
            c_in=phys.c_in, q_max=phys.q_max, rho_b=phys.rho_b,
            column_length=phys.column_length, orders=phys.orders)
        assert nondimensionalize(slow, pe=0.1).da == pytest.approx(shortcut, rel=1e-12)

    def test_vanishing_desorption_gives_alpha_one(self):
        phys = column_physical()
        fast = PhysicalParameters(
            epsilon=phys.epsilon, u_in=phys.u_in, k_ad=phys.k_ad, k_de=1e-14,
            c_in=phys.c_in, q_max=phys.q_max, rho_b=phys.rho_b,
            column_length=phys.column_length, orders=phys.orders)
        assert nondimensionalize(fast, pe=0.1).alpha == pytest.approx(1.0, abs=1e-12)

    def test_pe_from_diffusion(self):
        phys = column_physical()
        with_d = PhysicalParameters(
            epsilon=phys.epsilon, u_in=phys.u_in, k_ad=phys.k_ad, k_de=phys.k_de,
            c_in=phys.c_in, q_max=phys.q_max, rho_b=phys.rho_b,
            column_length=phys.column_length, orders=phys.orders,
            diffusion=3.7172166149159553e-06)
        assert nondimensionalize(with_d).pe == pytest.approx(0.1, rel=1e-12)
        with pytest.raises(DomainError):
            nondimensionalize(phys)  # no diffusion given and no pe override

    def test_output_satisfies_isotherm_link(self):
        for n in (1, 2, 3):
            p = nondimensionalize(column_physical(n=n), pe=0.2)
            assert alpha_from_qe(p.q_e, n) == pytest.approx(p.alpha, rel=1e-12)


class TestIsothermInversion:
    def test_first_order_is_identity(self):
        for alpha in (0.1, 0.5, 0.9, 0.999932):
            assert qe_from_alpha(alpha, 1) == pytest.approx(alpha, rel=1e-12)

    def test_symmetric_point(self):
        for n in (1, 2, 3, 5):
            assert qe_from_alpha(0.5, n) == pytest.approx(0.5, rel=1e-13)

    def test_second_order_value(self):
        assert qe_from_alpha(0.999932, 2) == pytest.approx(0.9918209567748376, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_on_grid(self, n):
        for alpha in np.arange(0.01, 0.995, 0.01):
            assert abs(alpha_from_qe(qe_from_alpha(alpha, n), n) - alpha) < 1e-12

    def test_round_trip_random_draws(self):
        rng = np.random.default_rng(20240915)
        for _ in range(256):
            alpha = float(rng.uniform(0.001, 0.999))
            n = int(rng.integers(1, 7))
            assert abs(alpha_from_qe(qe_from_alpha(alpha, n), n) - alpha) < 1e-12

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                qe_from_alpha(bad, 1)
            with pytest.raises(DomainError):
                alpha_from_qe(bad, 2)


class TestDimensionlessParameters:
    def test_alpha_rounding_to_one_is_named(self):
        # R = (q_e / (1 - q_e))^4 is about 4e16 > 2^53, so R / (1 + R) is 1.0
        with pytest.raises(DomainError, match=r"rounds to 1 .*q_e = 0\.99993, n = 4"):
            DimensionlessParameters.from_qe(0.99993, da=0.007, pe=0.1,
                                            orders=ReactionOrders(1, 4))
        # R = 1e350 leaves the doubles
        with pytest.raises(DomainError, match=r"rounds to 1 .*q_e = 0\.9999999, n = 50"):
            alpha_from_qe(0.9999999, 50)

    def test_rejects_inconsistent_alpha_qe(self):
        with pytest.raises(DomainError):
            DimensionlessParameters(da=0.1, pe=0.0, alpha=0.6, q_e=0.7,
                                    orders=ReactionOrders(1, 1))

    def test_velocity(self):
        p = params_for(0.7, da=0.1, pe=0.0, m=1, n=1)
        assert p.velocity == pytest.approx(1.25, rel=1e-14)

    def test_extreme_qe_still_consistent(self):
        # q_e -> 1 squeezes 1 - q_e; the alpha-space link must still validate
        p = params_for(0.999932173600748, da=0.007, pe=0.5, m=1, n=1)
        assert 0.0 < p.alpha < 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(da=0.0, pe=0.1), dict(da=-1.0, pe=0.1), dict(da=0.1, pe=-0.1),
    ])
    def test_rejects_bad_numbers(self, kwargs):
        with pytest.raises(DomainError):
            params_for(0.7, m=1, n=1, **kwargs)

    def test_from_alpha_matches_from_qe(self):
        a = DimensionlessParameters.from_alpha(0.844827, da=0.1, pe=0.2,
                                               orders=ReactionOrders(2, 2))
        b = params_for(a.q_e, da=0.1, pe=0.2, m=2, n=2)
        assert b.alpha == pytest.approx(a.alpha, rel=1e-12)


class TestEquilibriumPolynomial:
    def test_zero_at_both_states_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(64):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            q_e = float(rng.uniform(0.05, 0.95))
            p = params_for(q_e, da=0.1, pe=0.0, m=m, n=n)
            assert equilibrium_polynomial(0.0, p) == 0.0
            assert equilibrium_polynomial(1.0, p) == 0.0

    def test_physisorption_reduces_to_logistic_form(self):
        p = params_for(0.7, da=0.1, pe=0.0, m=1, n=1)
        assert equilibrium_polynomial(0.5, p) == pytest.approx(-0.175, abs=1e-15)
        x = np.linspace(0.0, 1.0, 21)
        assert_allclose(equilibrium_polynomial(x, p), p.alpha * x * (x - 1.0),
                        rtol=1e-12, atol=1e-16)

    def test_factored_and_direct_forms_agree(self):
        x = np.linspace(0.0, 1.0, 97)
        for (m, n) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (2, 1)]:
            p = params_for(0.7, da=0.1, pe=0.0, m=m, n=n)
            a = equilibrium_polynomial(x, p)
            b = equilibrium_polynomial_direct(x, p)
            assert_allclose(a, b, rtol=1e-10, atol=1e-14)

    def test_negative_inside_unit_interval_when_admissible(self):
        x = np.linspace(0.0, 1.0, 130)[1:-1]  # 128 interior points
        for (m, n) in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4)]:
            p = params_for(0.7, da=0.1, pe=0.0, m=m, n=n)
            assert np.all(equilibrium_polynomial(x, p) < 0.0)

    def test_positive_near_zero_when_inadmissible(self):
        for (m, n) in [(2, 1), (3, 1), (3, 2)]:
            p = params_for(0.7, da=0.1, pe=0.0, m=m, n=n)
            assert np.any(equilibrium_polynomial(np.logspace(-8, -1, 30), p) > 0.0)

    def test_interior_root_quadratic_case(self):
        p = params_for(0.7, da=0.1, pe=0.0, m=2, n=1)
        root = 1.0 / 0.7 - 1.0
        assert abs(equilibrium_polynomial(root, p)) < 1e-14


class TestRateLawPartial:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4), (2, 1)])
    @pytest.mark.parametrize("q_e", [0.3, 0.7, 0.99])
    def test_q_partial_matches_central_differences(self, m, n, q_e):
        p = params_for(q_e, da=0.1, pe=0.0, m=m, n=n)
        c, q = np.meshgrid(np.linspace(0.0, 1.0, 11), np.linspace(0.05, 0.95, 13))
        h = 1e-6
        central = (_uptake(c, q + h, p) - _uptake(c, q - h, p)) / (2.0 * h)
        assert_allclose(_rate_law(p)[1](c, q), central, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4), (2, 1)])
    @pytest.mark.parametrize("q_e", [0.3, 0.7, 0.99])
    def test_c_partial_matches_central_differences(self, m, n, q_e):
        p = params_for(q_e, da=0.1, pe=0.0, m=m, n=n)
        c, q = np.meshgrid(np.linspace(0.05, 1.0, 11), np.linspace(0.0, 0.95, 13))
        h = 1e-6
        central = (_uptake(c + h, q, p) - _uptake(c - h, q, p)) / (2.0 * h)
        assert_allclose(_rate_law(p)[2](c, q), central, rtol=1e-7, atol=1e-9)


class TestAnalyzeEquilibria:
    def test_physisorption_is_admissible(self):
        report = analyze_equilibria(params_for(0.7, da=0.1, pe=0.0, m=1, n=1))
        assert report.admissible and report.reason == REASON_ADMISSIBLE
        assert report.interior_equilibrium is None
        assert sorted(r.value for r in report.roots_in_unit_interval) == [0.0, 1.0]

    def test_admissible_iff_m_le_n(self):
        for m in range(1, 4):
            for n in range(1, 4):
                report = analyze_equilibria(params_for(0.6, da=0.2, pe=0.0, m=m, n=n))
                assert report.admissible == (m <= n)

    def test_interior_equilibrium_matches_quadratic_oracle(self):
        report = analyze_equilibria(params_for(0.7, da=0.1, pe=0.0, m=2, n=1))
        a = 1.0 / 0.7
        oracle = min(np.roots([1.0, -a, a - 1.0]))
        assert not report.admissible and report.reason == REASON_INTERIOR
        assert report.interior_equilibrium == pytest.approx(oracle, abs=1e-12)
        values = sorted(r.value for r in report.roots_in_unit_interval)
        assert values == pytest.approx([0.0, oracle, 1.0], abs=1e-12)

    def test_increasing_solutions_branch(self):
        report = analyze_equilibria(params_for(0.4, da=0.1, pe=0.0, m=2, n=1))
        assert not report.admissible and report.reason == REASON_INCREASING
        assert report.interior_equilibrium is None

    # For (m, n) = (2, 1) the threshold a = m/(m - n) is 2, i.e. q_e = 1/2, and
    # the interior equilibrium is a - 1, which merges with x = 1 there.
    @pytest.mark.parametrize("shift", [0.0, 1e-12, -1e-12])
    def test_threshold_within_roundoff_is_a_double_root(self, shift):
        report = analyze_equilibria(params_for(0.5 * (1.0 + shift), da=0.1, pe=0.0, m=2, n=1))
        assert report.reason == REASON_INCREASING and report.interior_equilibrium is None
        assert [(r.value, r.multiplicity) for r in report.roots_in_unit_interval] == \
            [(0.0, 1), (1.0, 2)]

    def test_a_just_above_threshold_gives_increasing_solutions(self):
        report = analyze_equilibria(params_for(0.5 * (1.0 - 1e-6), da=0.1, pe=0.0, m=2, n=1))
        assert report.reason == REASON_INCREASING and report.interior_equilibrium is None
        assert [(r.value, r.multiplicity) for r in report.roots_in_unit_interval] == \
            [(0.0, 1), (1.0, 1)]

    def test_a_just_below_threshold_gives_interior_equilibrium(self):
        q_e = 0.5 * (1.0 + 1e-3)
        report = analyze_equilibria(params_for(q_e, da=0.1, pe=0.0, m=2, n=1))
        assert report.reason == REASON_INTERIOR
        assert report.interior_equilibrium == pytest.approx(1.0 / q_e - 1.0, abs=1e-12)

    # the root a - 1 lies 2 eps below x = 1, where the factored polynomial's
    # sign is lost to roundoff; within 1e-9 of the threshold it is reported
    # merged with x = 1
    @pytest.mark.parametrize("eps", [3e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
    def test_interior_root_next_to_the_threshold(self, eps):
        q_e = 0.5 * (1.0 + eps)
        report = analyze_equilibria(params_for(q_e, da=0.1, pe=0.0, m=2, n=1))
        assert report.reason == REASON_INTERIOR
        assert abs(report.interior_equilibrium - (1.0 / q_e - 1.0)) <= 1e-12

    def test_zero_root_multiplicity(self):
        report = analyze_equilibria(params_for(0.7, da=0.1, pe=0.0, m=2, n=3))
        zero = next(r for r in report.roots_in_unit_interval if r.value == 0.0)
        assert zero.multiplicity == 2
