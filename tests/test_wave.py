import json
import math

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from adsorb import wave
from adsorb.analysis import breakthrough_window_time
from adsorb.cli import main, read_wave_profile
from adsorb.errors import (
    ConvergenceError,
    CoverageError,
    DomainError,
    ExistenceError,
)
from adsorb.model import _rate_law
from adsorb.wave import (
    WaveProfile,
    closed_form_wave_11,
    full_system_rhs,
    g_from_f,
    leading_order_rhs,
    solve_full_wave,
    solve_leading_order,
)
from adsorb.wave import (
    ETA_SPAN, F_STOP, Z_STEP, Z_STOP, _collocation, _leg_field, _predict_factor, _radau_leg,
)

from conftest import ADMISSIBLE_FAMILIES, equilibrium_polynomial_direct, params_for


class TestVelocity:
    def test_clean_bed_states(self, lead_11):
        # the jump conditions between (1, q_e) and (0, 0) give 1 / (q_e + Da)
        p = params_for()
        assert p.velocity == pytest.approx(1.25, rel=1e-14)
        assert lead_11.velocity == p.velocity

    def test_clean_bed_states_satisfy_isotherm(self):
        # the saturated state (F, G) = (1, q_e) is an equilibrium of the isotherm
        for n in (1, 2, 3):
            p = params_for(q_e=0.6, n=n)
            lhs = p.alpha / (1.0 - p.alpha)  # times F^m = 1
            rhs = (p.q_e / (1.0 - p.q_e)) ** p.n
            assert lhs == pytest.approx(rhs, rel=1e-12)


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
        # h0 (the slow set) and the PDE rate on q = q_e F against the expanded
        # polynomial (1 - alpha) F^n - alpha F^m (1/q_e - F)^n
        x = np.linspace(0.0, 1.0, 257)
        for (m, n) in ADMISSIBLE_FAMILIES:
            p = params_for(m=m, n=n)
            direct = p.q_e ** (n - 1) * equilibrium_polynomial_direct(x, p)
            reduced_flow = (p.q_e + p.da) * direct
            assert_allclose(leading_order_rhs(x, p), reduced_flow, rtol=1e-10, atol=1e-14)
            assert_allclose(_rate_law(p)[0](x, p.q_e * x), -p.q_e * direct,
                            rtol=1e-10, atol=1e-14)

    def test_slow_set_values(self):
        p = params_for()
        assert leading_order_rhs(0.0, p) == 0.0
        assert leading_order_rhs(1.0, p) == 0.0
        assert leading_order_rhs(0.5, p) == pytest.approx(-0.14, rel=1e-12)
        x = np.linspace(0.0, 1.0, 101)[1:-1]
        assert np.all(leading_order_rhs(x, p) < 0.0)


class TestFullSystemField:
    @pytest.mark.parametrize("pe", [1e-4, 0.01, 0.1, 0.5, 1.5])
    def test_rest_states_are_exact(self, pe):
        for (m, n) in [(1, 1), (2, 3)]:
            p = params_for(pe=pe, m=m, n=n)
            assert full_system_rhs(0.0, 0.0, p) == (0.0, 0.0)
            assert full_system_rhs(1.0, 0.0, p) == (0.0, 0.0)

    def test_first_component_is_definitional(self):
        p = params_for(pe=0.1)
        y = float(leading_order_rhs(0.5, p))
        assert full_system_rhs(0.5, y, p)[0] == y

    def test_bounded_on_slow_set_as_pe_vanishes(self):
        # the fast term cancels against the reduced relation, leaving O(1)
        values = []
        for pe in (1e-3, 1e-5, 1e-7, 1e-10):
            p = params_for(pe=pe)
            y = float(leading_order_rhs(0.5, p))
            values.append(abs(full_system_rhs(0.5, y, p)[1]))
        assert max(values) < 10.0

    def test_zero_pe_rejected(self):
        with pytest.raises(DomainError):
            full_system_rhs(0.5, -0.1, params_for(pe=0.0))

    def test_full_wave_rejects_zero_pe(self):
        # the reduced front belongs to solve_leading_order
        with pytest.raises(DomainError):
            solve_full_wave(params_for(pe=0.0))


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

    def test_rejects_wrong_orders(self):
        with pytest.raises(DomainError):
            closed_form_wave_11(params_for(m=1, n=2), 0.0)

    def test_reads_no_pe_like_the_reduced_front(self):
        # the oracle of solve_leading_order, which does not read params.pe either
        p = params_for(pe=0.1)
        lead = solve_leading_order(p)
        inside = (lead.eta >= -20.0) & (lead.eta <= 20.0)
        oracle = closed_form_wave_11(p, lead.eta[inside])
        assert np.array_equal(oracle, closed_form_wave_11(params_for(pe=0.0), lead.eta[inside]))
        assert np.max(np.abs(lead.f[inside] - oracle)) < 1e-6


class TestLeadingOrderSolver:
    def test_matches_closed_form(self, lead_11):
        p = params_for()
        oracle = closed_form_wave_11(p, lead_11.eta)
        assert np.max(np.abs(lead_11.f - oracle)) < 1e-6

    def test_profile_metadata(self, lead_11):
        p = params_for()
        assert lead_11.pe == 0.0
        assert lead_11.window == (lead_11.eta[0], lead_11.eta[-1])
        assert lead_11.velocity == pytest.approx(1.0 / (p.q_e + p.da), rel=1e-14)
        assert_allclose(lead_11.g, p.q_e * lead_11.f, rtol=1e-13, atol=1e-16)

    def test_reduced_front_is_solved_at_pe_zero(self, lead_11):
        # the reduced front does not depend on Pe: a positive params.pe is not read
        lead = solve_leading_order(params_for(pe=0.1))
        assert lead.pe == 0.0
        assert np.array_equal(lead.g, lead.f * params_for().q_e)
        assert np.array_equal(lead.eta, lead_11.eta) and np.array_equal(lead.f, lead_11.f)

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

    @pytest.mark.parametrize("pe", [1e-300, 1e300])
    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES + [(4, 8)])
    def test_extreme_pe_solves_or_raises_convergence_error(self, m, n, pe):
        # an underflowed first step or F'^2, or an overflowed seed slope, is a
        # ConvergenceError; a front that does solve at Pe = 1e-300 is the
        # reduced front
        p = params_for(pe=pe, m=m, n=n)
        try:
            w = solve_full_wave(p)
        except ConvergenceError:
            return
        assert pe < 1.0
        lead = solve_leading_order(p)
        for level in (1e-2, 0.5, 0.99):
            assert w.eta_at(level) == pytest.approx(lead.eta_at(level), abs=1e-4)

    def test_zero_previous_step_counts_as_no_history(self):
        # a first step that underflowed to 0 leaves h_abs_old = 0.0
        assert _predict_factor(1e-3, 0.0, 0.5, 0.8) == _predict_factor(1e-3, None, 0.5, 0.8)

    def test_slow_manifold_attraction_improves_with_small_pe(self):
        def manifold_distance(pe):
            p = params_for(pe=pe)
            w = solve_full_wave(p)
            mask = (w.eta >= -15.0) & (w.eta <= 15.0) & (w.f >= 0.05) & (w.f <= 0.95)
            y = (p.q_e * w.f[mask] - w.g[mask]) / (pe * (p.q_e + p.da))
            return np.max(np.abs(y - leading_order_rhs(w.f[mask], p)))

        assert manifold_distance(0.01) < manifold_distance(0.1)


@st.composite
def admissible_params(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    q_e = draw(st.floats(0.05, 0.99993))
    da = draw(st.floats(0.005, 2.0))
    pe = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)))
    return params_for(q_e=q_e, da=da, pe=pe, m=m, n=n)


class TestScalarRadauLeg:
    @pytest.mark.parametrize("pe", [0.01, 1.5])
    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_slopes_match_tight_scipy_radau(self, m, n, pe):
        # scipy's Radau at rtol 1e-12 is the oracle for the default-tolerance leg
        p = params_for(pe=pe, m=m, n=n)
        z_seed = -Z_STOP
        w_seed = math.log(-leading_order_rhs(F_STOP, p))
        rhs, jac, _ = _leg_field(p)
        w_at, _ = _radau_leg(rhs, jac, z_seed, w_seed, Z_STOP, wave.REL_TOL, wave.ABS_TOL)
        oracle = solve_ivp(lambda z, w: [rhs(z, w[0])], (z_seed, Z_STOP), [w_seed],
                           method="Radau", rtol=1e-12, atol=1e-14, dense_output=True)
        # the half-step z grid of the front's samples inside the leg
        z = 0.5 * Z_STEP * np.arange(math.ceil(z_seed / (0.5 * Z_STEP)),
                                     math.floor(Z_STOP / (0.5 * Z_STEP)) + 1)
        assert z_seed <= z[0] and z[-1] <= Z_STOP
        slopes, reference = -np.exp(w_at(z)), -np.exp(oracle.sol(z)[0])
        assert np.max(np.abs(slopes / reference - 1.0)) < 1e-5

    @pytest.mark.parametrize("pe", [0.01, 0.5, 1.5])
    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_jacobian_matches_central_differences(self, m, n, pe):
        # near the slow set dw/dz is a difference of terms of order 1/Pe, so
        # the differences carry roundoff of the size of dw/dz, not of d/dw
        p = params_for(pe=pe, m=m, n=n)
        rhs, jac, _ = _leg_field(p)
        h = 1e-4
        for z in np.linspace(-12.0, 12.0, 9):
            on_slow_set = math.log(-leading_order_rhs(1.0 / (1.0 + math.exp(-z)), p))
            for w in on_slow_set + np.array([-0.5, 0.0, 0.5]):
                dw = rhs(z, w)
                central = (rhs(z, w + h) - rhs(z, w - h)) / (2.0 * h)
                assert jac(z, w, dw) == pytest.approx(central, rel=1e-6, abs=1e-6 * abs(dw))

    def test_stiff_linear_problem_step_for_step_with_scipy(self):
        # y' = lam (y - sin t) + cos t from y(0) = 0 is solved by sin t
        lam = -1e3
        w_at, stats = _radau_leg(lambda t, y: lam * (y - math.sin(t)) + math.cos(t),
                                 lambda t, y, f: lam, 0.0, 0.0, 10.0, 1e-8, 1e-10)
        ref = solve_ivp(lambda t, y: lam * (y - np.sin(t)) + np.cos(t), (0.0, 10.0), [0.0],
                        method="Radau", rtol=1e-8, atol=1e-10, jac=lambda t, y: [[lam]],
                        dense_output=True)
        assert (stats.steps, stats.nfev, stats.njev, stats.nlu) == \
            (ref.t.size - 1, ref.nfev, ref.njev, ref.nlu)
        t = np.linspace(0.0, 10.0, 1001)
        assert np.max(np.abs(w_at(t) - ref.sol(t)[0])) < 1e-10  # roundoff apart
        assert np.max(np.abs(w_at(t) - np.sin(t))) < 1e-7

    def test_blow_up_raises_convergence_error(self):
        # y' = y^2 from y(0) = 1 leaves every float at t = 1
        with pytest.raises(ConvergenceError):
            _radau_leg(lambda t, y: y * y, lambda t, y, f: 2.0 * y, 0.0, 1.0, 2.0, 1e-8, 1e-10)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_non_finite_stage_stops_its_own_iteration(self, stage, bad):
        # the first step's collocation calls fun three times per Newton
        # iteration; a bad value at any stage of iteration 2 raises once its
        # three calls are made, before a fourth
        calls = []

        def fun(t, y):
            calls.append(t)
            return bad if len(calls) == 2 + 3 + stage + 1 else -y

        with pytest.raises(ConvergenceError, match="non-finite stage value"):
            _radau_leg(fun, lambda t, y, f: -1.0, 0.0, 1.0, 1.0, 1e-8, 1e-10)
        assert len(calls) == 2 + 3 * 2

    def test_overflow_on_the_leg_is_a_convergence_error(self, monkeypatch):
        def overflow(z, w, *dw):
            raise OverflowError("math range error")

        # a negative tail keeps the seed finite, so the overflow comes from the leg
        monkeypatch.setattr("adsorb.wave._leg_field",
                            lambda params: (overflow, overflow, lambda f: -f))
        with pytest.raises(ConvergenceError):
            solve_full_wave(params_for(pe=0.1))

    @pytest.mark.parametrize("m,n,work", [(1, 1, (1125, 17, 102, 145)),
                                          (2, 3, (2167, 127, 306, 176)),
                                          (1, 3, (1287, 65, 176, 148)),
                                          (3, 4, (2858, 182, 430, 201))])
    def test_leg_work_is_pinned(self, m, n, work):
        # counters of the exact step sequence: a change that moves any step fails here
        stats = solve_full_wave(params_for(pe=0.1, m=m, n=n)).stats
        assert (stats.nfev, stats.njev, stats.nlu, stats.steps) == work

    @pytest.mark.parametrize("m,n,most", [(2, 2, 15), (2, 3, 17), (3, 4, 31)])
    def test_step_growth_does_not_outrun_newton(self, monkeypatch, m, n, most):
        # on the m >= 2 clean side the Jacobian goes stale within a step; growth
        # read from the error estimate alone failed Newton 77, 85 and 156 times
        # on these legs, halving the step after each failure
        failures = []

        def counted(*args):
            out = _collocation(*args)
            failures.append(not out[0])
            return out

        monkeypatch.setattr("adsorb.wave._collocation", counted)
        solve_full_wave(params_for(pe=0.1, m=m, n=n))
        assert sum(failures) <= most

    def test_profile_carries_the_leg_counters(self, full_11_pe01, lead_11):
        stats = full_11_pe01.stats
        assert stats.time_method == "Radau"
        assert stats.steps > 0 and stats.nfev >= 4 * stats.steps + 2
        assert stats.njev >= 1 and stats.nlu >= 2
        assert lead_11.stats is None


BOUND_FIELD_CASES = [(m, n, q_e) for q_e in (0.7, 0.99993) for m, n in ADMISSIBLE_FAMILIES]


# the attachment rate and its d/dq reading every constant from p at each call,
# with the products and quotients in the order of model._rate_law
def _rate_read_per_call(c, q, p):
    return p.alpha * (1.0 - p.q_e) ** p.n * (
        c ** p.m * ((1.0 - q) / (1.0 - p.q_e)) ** p.n - (q / p.q_e) ** p.n)


def _rate_dq_read_per_call(c, q, p):
    return -p.n * p.alpha * (1.0 - p.q_e) ** p.n * (
        c ** p.m * ((1.0 - q) / (1.0 - p.q_e)) ** (p.n - 1) / (1.0 - p.q_e)
        + (q / p.q_e) ** (p.n - 1) / p.q_e)


class TestBoundField:
    """Binding the field's constants once leaves every double as it was."""

    @pytest.mark.parametrize("pe", [0.01, 0.5, 1.5])
    @pytest.mark.parametrize("m,n,q_e", BOUND_FIELD_CASES)
    def test_leg_field_is_bit_identical_to_the_field_read_per_call(self, m, n, q_e, pe):
        p = params_for(q_e=q_e, pe=pe, m=m, n=n)
        rhs, jac, _ = _leg_field(p)
        r_q_bound = _rate_law(p)[1]
        rng = np.random.default_rng(1000 * m + 10 * n + round(100 * pe))
        for z, w in zip(rng.uniform(-14.0, 14.0, 200).tolist(),
                        rng.uniform(-25.0, 1.0, 200).tolist()):
            f = 1.0 / (1.0 + math.exp(-z))
            y = -math.exp(w)
            g = p.q_e * f - p.pe * (p.q_e + p.da) * y
            y_prime = (p.q_e / (p.q_e + p.da) * y + _rate_read_per_call(f, g, p)) / p.pe
            dw = y_prime * f * (1.0 - f) / (y * y)
            assert rhs(z, w) == full_system_rhs(f, y, p)[1] * f * (1.0 - f) / (y * y) == dw
            for r_q in (r_q_bound(f, g), _rate_dq_read_per_call(f, g, p)):
                assert jac(z, w, dw) == f * (1.0 - f) / y * (
                    p.q_e / ((p.q_e + p.da) * p.pe) - (p.q_e + p.da) * r_q) - 2.0 * dw

    @pytest.mark.parametrize("m,n,q_e", BOUND_FIELD_CASES)
    def test_bound_rate_is_the_rate_read_per_call_on_arrays(self, m, n, q_e):
        p = params_for(q_e=q_e, m=m, n=n)
        rng = np.random.default_rng(10 * m + n)
        c, q = rng.uniform(0.0, 1.0, 500), rng.uniform(0.0, 1.0, 500)
        r, r_q, _ = _rate_law(p)
        assert np.array_equal(r(c, q), _rate_read_per_call(c, q, p))
        assert np.array_equal(r_q(c, q), _rate_dq_read_per_call(c, q, p))


class TestFrontProperties:
    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(admissible_params())
    @hypothesis.example(params_for(q_e=0.99993, da=0.007, pe=0.1))   # reference column corner
    @hypothesis.example(params_for(q_e=0.99993, da=0.007, pe=0.0))
    # alpha rounds to 1 for n = 4 at the reference corner
    @hypothesis.example(params_for(q_e=0.99993, da=0.007, pe=0.1, m=3, n=4))
    @hypothesis.example(params_for(q_e=0.99993, da=0.007, pe=0.0, m=4, n=4))
    @hypothesis.example(params_for(q_e=0.2127, da=0.1041, pe=0.0, m=4, n=4))
    @hypothesis.example(params_for(q_e=0.9805, da=1.4255, pe=0.0054))  # head stops at z limit
    @hypothesis.example(params_for(q_e=0.9999, da=0.1, pe=0.0, m=3, n=4))  # h0 < 0 up to F = 1
    def test_every_admissible_front_is_well_formed(self, p):
        w = solve_leading_order(p) if p.pe == 0.0 else solve_full_wave(p)
        assert w.velocity == pytest.approx(1.0 / (p.q_e + p.da), rel=1e-14)
        assert np.all(np.diff(w.f) < 0.0)
        assert abs(float(w.f_at(0.0)) - 0.5) <= 1e-8
        assert w.window[1] >= ETA_SPAN
        assert w.window[0] <= -ETA_SPAN or 1.0 - w.f[0] <= 1e-12


class TestInterpolation:
    @pytest.mark.parametrize("pe", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_levels_match_a_fine_tight_oracle(self, m, n, pe, monkeypatch):
        solve = solve_leading_order if pe == 0.0 else solve_full_wave
        p = params_for(pe=pe, m=m, n=n)
        front = solve(p)
        monkeypatch.setattr("adsorb.wave.Z_STEP", Z_STEP / 8)
        monkeypatch.setattr("adsorb.wave.REL_TOL", 1e-12)
        monkeypatch.setattr("adsorb.wave.ABS_TOL", 1e-14)
        oracle = solve(p)
        for level in (1e-4, 1e-2):
            assert front.eta_at(level) == pytest.approx(oracle.eta_at(level), rel=1e-9)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_reread_profile_keeps_the_window(self, m, n, tmp_path):
        # the artifact holds no slopes, so the re-read profile takes Fritsch-Carlson's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "wave", "dimensionless": {
            "q_e": 0.7, "da": 0.1, "pe": 0.1, "m": m, "n": n}}))
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        back = read_wave_profile(tmp_path / "wave_profile.csv", tmp_path / "wave_meta.json")
        assert back.deta_dz is None
        window = breakthrough_window_time(solve_full_wave(params_for(pe=0.1, m=m, n=n)))
        assert breakthrough_window_time(back) == pytest.approx(window, rel=1e-8)

    def test_saturated_head_reads_one_upstream(self):
        w = solve_leading_order(params_for(q_e=0.9805, da=1.4255))
        assert w.window[0] > -20.0 and 1.0 - w.f[0] < 1e-13
        assert w.f_at(np.array([-1e3, -20.0])).tolist() == [1.0, 1.0]
        assert np.isnan(w.f_at(w.window[1] + 1.0))


class TestCleanSaddleTail:
    """For m = 1 the leg seeds on the clean saddle's stable eigendirection."""

    @pytest.mark.parametrize("pe", [0.01, 0.5, 1.5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tail_follows_the_eigendirection(self, n, pe, monkeypatch):
        # a span of 60 samples the tail well below the seed F = F_STOP
        p = params_for(pe=pe, n=n)
        monkeypatch.setattr("adsorb.wave.ETA_SPAN", 60.0)
        w = solve_full_wave(p)
        rate = _leg_field(p)[2](1.0)
        below = np.log(w.f) - np.log1p(-w.f) < -Z_STOP
        decay = (1.0 - w.f) / w.deta_dz  # F' / F, with d eta / dz = F (1 - F) / F'
        assert below.sum() > 10
        assert_allclose(decay[below], rate, rtol=1e-12)
        # F' / F at the last sample on the leg: off lambda_s by O(F), where
        # the reduced flow h0 is off by O(Pe)
        last_on_leg = decay[np.argmax(below) - 1]
        assert last_on_leg == pytest.approx(rate, rel=1e-5)
        assert abs(leading_order_rhs(F_STOP, p) / F_STOP / rate - 1.0) > 5e-3


class TestCleanSideLaw:
    """The clean state's linearisation sets F' at and below the seed."""

    @pytest.mark.parametrize("pe", [0.01, 0.5, 1.5])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4)])
    def test_degenerate_tail_follows_the_slow_set(self, m, n, pe, monkeypatch):
        # at ETA_SPAN the side ends within a sample of the seed, since -Z_STOP
        # is its log-odds; ten times the window leaves samples below
        p = params_for(pe=pe, m=m, n=n)
        monkeypatch.setattr("adsorb.wave.ETA_SPAN", 10.0 * solve_full_wave(p).window[1])
        w = solve_full_wave(p)
        below = np.log(w.f) - np.log1p(-w.f) < -Z_STOP
        assert below.sum() > 100
        f = w.f[below]
        assert_allclose(f * (1.0 - f) / w.deta_dz[below], leading_order_rhs(f, p), rtol=1e-12)

    def test_every_degenerate_family_takes_the_reduced_flow(self):
        # k is exactly 0 for m >= 2, so the binding picks h0 and not a zero rate
        for m, n in [(m, n) for n in range(2, 9) for m in range(2, n + 1)]:
            p = params_for(pe=0.1, m=m, n=n)
            assert _leg_field(p)[2](1e-3) == leading_order_rhs(1e-3, p) < 0.0

    @pytest.mark.parametrize("q_e", [0.7, 0.99993])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_saddle_tail_is_the_eigendirection(self, n, q_e):
        p = params_for(q_e=q_e, pe=0.1, n=n)
        tail = _leg_field(p)[2]
        rate = tail(1.0)
        assert rate < 0.0
        f = np.geomspace(1e-300, 0.5, 400)
        assert np.array_equal(tail(f), rate * f)


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
        fields = dict(eta=eta, f=f, g=0.7 * f, velocity=1.25, pe=0.0)
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
            WaveProfile(eta=eta, f=f, g=0.7 * f, velocity=1.25, pe=0.0)

    @pytest.mark.parametrize("overrides,message", [
        ({"g": np.ones(1200)}, "equal-length"),
        ({"f": np.linspace(1.0, 1e-6, 1201)}, "inside"),
        ({"deta_dz": np.ones(1200)}, "one slope per sample"),
    ], ids=["array-shapes", "f-reaches-one", "slope-shape"])
    def test_rejects_malformed_fields(self, overrides, message):
        with pytest.raises(DomainError, match=message):
            self.build(**overrides)

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
