import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adsorb.errors import (
    CoverageError,
    DegenerateStatesError,
    DivergenceError,
    DomainError,
    ExistenceError,
)
from adsorb.model import (
    DimensionlessParameters,
    ReactionOrders,
    alpha_from_qe,
    equilibrium_polynomial_direct,
)
from adsorb.pde import step_kinetics
from adsorb.wave import (
    FarFieldStates,
    WaveProfile,
    WaveSolverSettings,
    closed_form_wave_11,
    full_system_rhs,
    g_from_f,
    leading_order_rhs,
    slow_set,
    solve_full_wave,
    solve_full_waves,
    solve_leading_order,
    wave_velocity_general,
)

ADMISSIBLE_FAMILIES = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4)]


def params_for(q_e=0.7, da=0.1, pe=0.0, m=1, n=1):
    return DimensionlessParameters.from_qe(q_e, da=da, pe=pe, orders=ReactionOrders(m, n))


@pytest.fixture(scope="module")
def lead_11():
    return solve_leading_order(params_for())


@pytest.fixture(scope="module")
def full_11_pe01():
    return solve_full_wave(params_for(pe=0.1))


class TestVelocity:
    def test_clean_bed_states(self):
        p = params_for()
        states = FarFieldStates.clean_bed(p)
        assert wave_velocity_general(states, p.da) == pytest.approx(1.25, rel=1e-14)
        assert wave_velocity_general(states, p.da) == pytest.approx(p.velocity, rel=1e-14)

    def test_zero_numerator(self):
        states = FarFieldStates(f0=0.5, g0=0.6, f_inf=0.5, g_inf=0.1)
        assert wave_velocity_general(states, 0.3) == 0.0

    def test_degenerate_states(self):
        states = FarFieldStates(f0=1.0, g0=0.0, f_inf=0.0, g_inf=1.0)
        with pytest.raises(DegenerateStatesError):
            wave_velocity_general(states, 1.0)

    def test_clean_bed_states_satisfy_isotherm(self):
        for n in (1, 2, 3):
            p = params_for(q_e=0.6, n=n)
            s = FarFieldStates.clean_bed(p)
            lhs = p.alpha / (1.0 - p.alpha) * s.f0 ** p.m
            rhs = (s.g0 / (1.0 - s.g0)) ** p.n
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert s.f_inf == 0.0 and s.g_inf == 0.0


class TestPointwiseFormulas:
    def test_g_from_f_far_fields(self):
        p = params_for(pe=0.1)
        assert g_from_f(1.0, 0.0, p) == pytest.approx(p.q_e, rel=1e-14)
        assert g_from_f(0.0, 0.0, p) == 0.0

    def test_g_from_f_reduced_relation(self):
        p = params_for(pe=0.0)
        assert g_from_f(0.5, -0.14, p) == pytest.approx(0.35, rel=1e-14)

    def test_leading_rhs_equilibria_and_midpoint(self):
        p = params_for()
        assert abs(leading_order_rhs(0.0, p)) < 1e-15
        assert abs(leading_order_rhs(1.0, p)) < 1e-15
        assert leading_order_rhs(0.5, p) == pytest.approx(-0.14, rel=1e-12)

    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_leading_rhs_negative_inside(self, m, n):
        # down to 1 - F = 1e-12, in the near-saturation corner too
        f = np.concatenate((np.linspace(0.0, 1.0, 101)[1:-1], 1.0 - 10.0 ** -np.arange(3, 13)))
        for q_e in (0.7, 0.99, 0.9999):
            assert np.all(leading_order_rhs(f, params_for(q_e=q_e, m=m, n=n)) < 0.0), q_e

    def test_slow_set_matches_leading_rhs(self):
        # h0, the slow set and the PDE rate on q = q_e F against the expanded
        # polynomial (1 - alpha) F^n - alpha F^m (1/q_e - F)^n
        x = np.linspace(0.0, 1.0, 257)
        for (m, n) in ADMISSIBLE_FAMILIES:
            p = params_for(m=m, n=n)
            direct = p.q_e ** (n - 1) * equilibrium_polynomial_direct(x, p)
            reduced_flow = (p.q_e + p.da) * direct
            assert_allclose(leading_order_rhs(x, p), reduced_flow, rtol=1e-10, atol=1e-14)
            assert_allclose(slow_set(x, p), reduced_flow, rtol=1e-10, atol=1e-14)
            assert_allclose(step_kinetics(x, p.q_e * x, p), -p.q_e * direct,
                            rtol=1e-10, atol=1e-14)

    def test_slow_set_values(self):
        p = params_for()
        assert slow_set(0.0, p) == 0.0
        assert slow_set(1.0, p) == 0.0
        assert slow_set(0.5, p) == pytest.approx(-0.14, rel=1e-12)
        x = np.linspace(0.0, 1.0, 101)[1:-1]
        assert np.all(slow_set(x, p) < 0.0)


class TestFullSystemField:
    @pytest.mark.parametrize("pe", [1e-4, 0.01, 0.1, 0.5, 1.5])
    def test_rest_states_are_exact(self, pe):
        for (m, n) in [(1, 1), (2, 3)]:
            p = params_for(pe=pe, m=m, n=n)
            assert full_system_rhs(0.0, 0.0, p) == (0.0, 0.0)
            assert full_system_rhs(1.0, 0.0, p) == (0.0, 0.0)

    def test_first_component_is_definitional(self):
        p = params_for(pe=0.1)
        y = float(slow_set(0.5, p))
        assert full_system_rhs(0.5, y, p)[0] == y

    def test_bounded_on_slow_set_as_pe_vanishes(self):
        # the fast term cancels against the reduced relation, leaving O(1)
        values = []
        for pe in (1e-3, 1e-5, 1e-7, 1e-10):
            p = params_for(pe=pe)
            y = float(slow_set(0.5, p))
            values.append(abs(full_system_rhs(0.5, y, p)[1]))
        assert max(values) < 10.0

    def test_zero_pe_rejected(self):
        with pytest.raises(DomainError):
            full_system_rhs(0.5, -0.1, params_for(pe=0.0))


class TestClosedForm:
    def test_normalization_and_far_fields(self):
        p = params_for()
        assert closed_form_wave_11(p, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert closed_form_wave_11(p, 1e4) == pytest.approx(0.0, abs=1e-30)
        assert closed_form_wave_11(p, -1e4) == pytest.approx(1.0, abs=1e-15)

    def test_analytic_inversion(self):
        p = params_for()
        eta = np.log(99.0) / 0.56
        assert closed_form_wave_11(p, eta) == pytest.approx(0.01, rel=1e-12)

    def test_rejects_wrong_orders_and_pe(self):
        with pytest.raises(DomainError):
            closed_form_wave_11(params_for(m=1, n=2), 0.0)
        with pytest.raises(DomainError):
            closed_form_wave_11(params_for(pe=0.1), 0.0)


class TestLeadingOrderSolver:
    def test_matches_closed_form(self, lead_11):
        p = params_for()
        oracle = closed_form_wave_11(p, lead_11.eta)
        assert np.max(np.abs(lead_11.f - oracle)) < 1e-6

    def test_profile_metadata(self, lead_11):
        p = params_for()
        assert lead_11.pe == 0.0
        assert lead_11.normalized
        assert lead_11.velocity == pytest.approx(1.0 / (p.q_e + p.da), rel=1e-14)
        assert_allclose(lead_11.g, p.q_e * lead_11.f, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_strictly_decreasing_with_far_field_endpoints(self, m, n):
        prof = solve_leading_order(params_for(m=m, n=n))
        assert np.all(np.diff(prof.f) < 0.0)
        assert prof.f[0] > 1.0 - 1e-4 and prof.f[-1] < 1e-4
        assert prof.window[0] <= -20.0 and prof.window[1] >= 20.0

    def test_refuses_inadmissible_orders(self):
        with pytest.raises(ExistenceError) as err:
            solve_leading_order(params_for(m=2, n=1))
        report = err.value.report
        assert report is not None and not report.admissible
        assert report.interior_equilibrium == pytest.approx(1.0 / 0.7 - 1.0, abs=1e-10)


class TestFullWaveSolver:
    def test_zero_pe_redirects(self):
        with pytest.raises(DomainError):
            solve_full_wave(params_for(pe=0.0))

    def test_small_pe_stays_near_reduced_front(self, lead_11):
        w = solve_full_wave(params_for(pe=1e-4))
        grid = np.linspace(-20.0, 20.0, 2001)
        assert np.max(np.abs(w.f_at(grid) - lead_11.f_at(grid))) < 1e-2

    def test_moderate_pe_profile_invariants(self, full_11_pe01):
        w = full_11_pe01
        p = params_for(pe=0.1)
        assert np.all(np.diff(w.f) < 0.0)
        assert w.f[0] > 1.0 - 1e-4 and w.f[-1] < 1e-4
        assert abs(float(w.f_at(0.0)) - 0.5) < 1e-8
        assert w.velocity == pytest.approx(p.velocity, rel=1e-14)
        assert w.g.min() > -1e-9
        assert w.g.max() < p.q_e + 1e-6

    @pytest.mark.parametrize("pe", [0.01, 1.5])
    def test_other_orders_profiles(self, pe):
        for (m, n) in [(2, 2), (3, 4)]:
            w = solve_full_wave(params_for(pe=pe, m=m, n=n))
            assert np.all(np.diff(w.f) < 0.0)
            assert w.window[0] <= -20.0 and w.window[1] >= 20.0

    def test_refuses_inadmissible_orders(self):
        with pytest.raises(ExistenceError):
            solve_full_wave(params_for(pe=0.1, m=3, n=2))

    def test_wrong_seed_direction_diverges(self):
        settings = WaveSolverSettings(seed_delta=-1e-6)
        with pytest.raises(DivergenceError):
            solve_full_wave(params_for(pe=0.1), settings)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2)])
    def test_seed_beyond_anchor_split(self, m, n):
        # a seed at F = 2e-2 hands more of the tail to the reduced flow, but
        # the anchor and the head must not move
        p = params_for(pe=0.5, m=m, n=n)
        settings = WaveSolverSettings(seed_delta=2e-2)
        w = solve_full_wave(p, settings)
        assert np.all(np.diff(w.f) < 0.0)
        assert abs(float(w.f_at(0.0)) - 0.5) < 1e-8
        assert w.window[0] <= -settings.eta_span and w.window[1] >= settings.eta_span
        assert w.eta_at(0.9) == pytest.approx(solve_full_wave(p).eta_at(0.9), abs=1e-4)

    def test_slow_manifold_attraction_improves_with_small_pe(self):
        def manifold_distance(pe):
            p = params_for(pe=pe)
            w = solve_full_wave(p)
            mask = (w.eta >= -15.0) & (w.eta <= 15.0) & (w.f >= 0.05) & (w.f <= 0.95)
            y = (p.q_e * w.f[mask] - w.g[mask]) / (pe * (p.q_e + p.da))
            return np.max(np.abs(y - slow_set(w.f[mask], p)))

        assert manifold_distance(0.01) < manifold_distance(0.1)


@st.composite
def admissible_params(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    # alpha = R / (1 + R) with R = (q_e / (1 - q_e))^n rounds to 1 for n = 4 once
    # q_e > 0.9999, and DimensionlessParameters rejects alpha = 1
    q_e = draw(st.floats(0.05, 0.99993).filter(lambda q: alpha_from_qe(q, n) < 1.0))
    da = draw(st.floats(0.005, 2.0))
    pe = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)))
    return params_for(q_e=q_e, da=da, pe=pe, m=m, n=n)


class TestBatchedFullWaves:
    @pytest.mark.parametrize("m,n,pe", [(1, 1, 0.1), (2, 3, 0.5)])
    def test_one_pe_batch_is_the_single_solve(self, m, n, pe):
        # the batch takes its Pe from pe_values, not from params
        batch = solve_full_waves(params_for(pe=0.3, m=m, n=n), (pe,))[0]
        single = solve_full_wave(params_for(pe=pe, m=m, n=n))
        for name in ("eta", "f", "g"):
            assert np.array_equal(getattr(batch, name), getattr(single, name))
        assert (batch.pe, batch.velocity, batch.window) == \
            (single.pe, single.velocity, single.window)

    def test_members_keep_their_pe_and_match_single_solves(self):
        pe_values = (0.01, 0.1, 1.5)
        batch = solve_full_waves(params_for(m=2, n=2), pe_values)
        assert [w.pe for w in batch] == list(pe_values)
        grid = np.linspace(-20.0, 20.0, 2001)
        for w in batch:
            single = solve_full_wave(params_for(pe=w.pe, m=2, n=2))
            assert np.max(np.abs(w.f_at(grid) - single.f_at(grid))) < 1e-8

    @pytest.mark.parametrize("pe_values", [(), (0.0, 0.1)])
    def test_rejects_empty_or_zero_pe(self, pe_values):
        with pytest.raises(DomainError):
            solve_full_waves(params_for(), pe_values)


class TestFrontProperties:
    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(admissible_params())
    @hypothesis.example(params_for(q_e=0.99993, da=0.007, pe=0.1))   # reference column corner
    @hypothesis.example(params_for(q_e=0.99993, da=0.007, pe=0.0))
    @hypothesis.example(params_for(q_e=0.2127, da=0.1041, pe=0.0, m=4, n=4))
    @hypothesis.example(params_for(q_e=0.9805, da=1.4255, pe=0.0054))  # head stops at z limit
    @hypothesis.example(params_for(q_e=0.9999, da=0.1, pe=0.0, m=3, n=4))  # h0 < 0 up to F = 1
    def test_every_admissible_front_is_well_formed(self, p):
        span = WaveSolverSettings().eta_span
        w = solve_leading_order(p) if p.pe == 0.0 else solve_full_wave(p)
        assert w.velocity == pytest.approx(1.0 / (p.q_e + p.da), rel=1e-14)
        assert np.all(np.diff(w.f) < 0.0)
        assert abs(float(w.f_at(0.0)) - 0.5) <= 1e-8
        assert w.window[1] >= span
        assert w.window[0] <= -span or 1.0 - w.f[0] <= 1e-12


class TestLegsJoinUp:
    @pytest.mark.parametrize("pe", [0.0, 0.01, 0.5, 1.5])
    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_logit_slope_has_no_jumps(self, m, n, pe):
        # a leg placed off its neighbour shows as a jump of the secant slope of
        # z = ln(F / (1 - F)); a smooth front changes it by a few percent per step
        p = params_for(pe=pe, m=m, n=n)
        w = solve_leading_order(p) if pe == 0.0 else solve_full_wave(p)
        z = np.log(w.f) - np.log1p(-w.f)
        slope = np.diff(z) / np.diff(w.eta)
        ratio = slope[1:] / slope[:-1]
        assert 0.5 <= ratio.min() and ratio.max() <= 2.0


class TestWaveProfileValidation:
    def build(self, **overrides):
        eta = np.linspace(-30.0, 30.0, 1201)
        f = 1.0 / (1.0 + np.exp(0.56 * eta))
        fields = dict(eta=eta, f=f, g=0.7 * f, velocity=1.25, pe=0.0,
                      normalized=True, window=(float(eta[0]), float(eta[-1])))
        fields.update(overrides)
        return WaveProfile(**fields)

    def test_accepts_logistic_samples(self):
        prof = self.build()
        assert prof.eta.size == 1201

    def test_rejects_non_monotone_eta(self):
        eta = np.linspace(-30.0, 30.0, 1201)
        eta[5] = eta[7]
        with pytest.raises(DomainError):
            self.build(eta=eta)

    def test_rejects_increasing_f(self):
        eta = np.linspace(-30.0, 30.0, 1201)
        with pytest.raises(DomainError):
            self.build(f=1.0 / (1.0 + np.exp(-0.56 * eta)))

    def test_rejects_incomplete_span(self):
        eta = np.linspace(-3.0, 3.0, 301)
        f = 1.0 / (1.0 + np.exp(0.56 * eta))
        with pytest.raises(DomainError):
            WaveProfile(eta=eta, f=f, g=0.7 * f, velocity=1.25, pe=0.0,
                        normalized=True, window=(-3.0, 3.0))

    def test_rejects_off_center_normalization(self):
        eta = np.linspace(-30.0, 30.0, 1201)
        f = 1.0 / (1.0 + np.exp(0.56 * (eta + 0.5)))
        with pytest.raises(DomainError):
            self.build(f=f, g=0.7 * f)

    def test_level_inversion_and_coverage(self):
        prof = self.build()
        assert prof.eta_at(0.5) == pytest.approx(0.0, abs=1e-12)
        assert prof.eta_at(0.01) == pytest.approx(np.log(99.0) / 0.56, rel=1e-6)
        with pytest.raises(CoverageError):
            prof.eta_at(1e-12)
