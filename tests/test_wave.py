import json
import math

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from adsorb.analysis import breakthrough_window_time
from adsorb.cli import main, read_wave_profile
from adsorb.errors import (
    ConvergenceError,
    CoverageError,
    DivergenceError,
    DomainError,
    ExistenceError,
)
from adsorb.model import _rate_law, _uptake, alpha_from_qe
from adsorb.wave import (
    WaveProfile,
    WaveSolverSettings,
    closed_form_wave_11,
    full_system_rhs,
    g_from_f,
    leading_order_rhs,
    solve_full_wave,
    solve_leading_order,
)
from adsorb.wave import Z_STEP, Z_STOP, _leg_field, _leg_slopes, _radau_leg

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
            assert_allclose(_uptake(x, p.q_e * x, p), -p.q_e * direct,
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
            return np.max(np.abs(y - leading_order_rhs(w.f[mask], p)))

        assert manifold_distance(0.01) < manifold_distance(0.1)


def _alpha_below_one(q_e, n):
    try:
        alpha_from_qe(q_e, n)
    except DomainError:
        return False
    return True


@st.composite
def admissible_params(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    # alpha = R / (1 + R) with R = (q_e / (1 - q_e))^n rounds to 1 for n = 4 once
    # q_e > 0.9999, where alpha_from_qe raises
    q_e = draw(st.floats(0.05, 0.99993).filter(lambda q: _alpha_below_one(q, n)))
    da = draw(st.floats(0.005, 2.0))
    pe = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)))
    return params_for(q_e=q_e, da=da, pe=pe, m=m, n=n)


class TestScalarRadauLeg:
    @pytest.mark.parametrize("pe", [0.01, 1.5])
    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_slopes_match_tight_scipy_radau(self, m, n, pe):
        # scipy's Radau at rtol 1e-12 is the oracle for the default-tolerance leg
        p = params_for(pe=pe, m=m, n=n)
        settings = WaveSolverSettings()
        z_seed = math.log(settings.seed_delta / (1.0 - settings.seed_delta))
        k_first, slopes, _ = _leg_slopes(p, settings, z_seed)
        rhs, _ = _leg_field(p)
        oracle = solve_ivp(lambda z, w: [rhs(z, w[0])], (z_seed, Z_STOP),
                           [math.log(-leading_order_rhs(settings.seed_delta, p))],
                           method="Radau", rtol=1e-12, atol=1e-14, dense_output=True)
        z = 0.5 * Z_STEP * (k_first + np.arange(slopes.size))
        assert z_seed <= z[0] and z[-1] <= Z_STOP
        reference = -np.exp(oracle.sol(z)[0])
        assert np.max(np.abs(slopes / reference - 1.0)) < 1e-5

    @pytest.mark.parametrize("pe", [0.01, 0.5, 1.5])
    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_jacobian_matches_central_differences(self, m, n, pe):
        # near the slow set dw/dz is a difference of terms of order 1/Pe, so
        # the differences carry roundoff of the size of dw/dz, not of d/dw
        p = params_for(pe=pe, m=m, n=n)
        rhs, jac = _leg_field(p)
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

    def test_overflow_on_the_leg_is_a_convergence_error(self, monkeypatch):
        def overflow(x, y):
            raise OverflowError("math range error")

        monkeypatch.setattr("adsorb.wave._phase_field", lambda params: (overflow, overflow))
        with pytest.raises(ConvergenceError):
            solve_full_wave(params_for(pe=0.1))

    @pytest.mark.parametrize("m,n,work", [(1, 1, (1359, 21, 126, 178)),
                                          (2, 3, (2734, 139, 492, 191))])
    def test_leg_work_is_pinned(self, m, n, work):
        # counters of the exact step sequence: a change that moves any step fails here
        stats = solve_full_wave(params_for(pe=0.1, m=m, n=n)).stats
        assert (stats.nfev, stats.njev, stats.nlu, stats.steps) == work

    def test_profile_carries_the_leg_counters(self, full_11_pe01, lead_11):
        stats = full_11_pe01.stats
        assert stats.time_method == "Radau"
        assert stats.steps > 0 and stats.nfev >= 4 * stats.steps + 2
        assert stats.njev >= 1 and stats.nlu >= 2
        assert lead_11.stats is None


# (3, 4) at q_e 0.99993 is left out: its alpha rounds to 1 in double precision
BOUND_FIELD_CASES = [(m, n, q_e) for q_e in (0.7, 0.99993) for m, n in ADMISSIBLE_FAMILIES
                     if _alpha_below_one(q_e, n)]


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
        rhs, jac = _leg_field(p)
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
    def test_uptake_is_the_bound_rate_on_arrays(self, m, n, q_e):
        p = params_for(q_e=q_e, m=m, n=n)
        rng = np.random.default_rng(10 * m + n)
        c, q = rng.uniform(0.0, 1.0, 500), rng.uniform(0.0, 1.0, 500)
        r, r_q, _ = _rate_law(p)
        assert np.array_equal(_uptake(c, q, p), r(c, q))
        assert np.array_equal(r(c, q), _rate_read_per_call(c, q, p))
        assert np.array_equal(r_q(c, q), _rate_dq_read_per_call(c, q, p))


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


class TestInterpolation:
    @pytest.mark.parametrize("pe", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_levels_match_a_fine_tight_oracle(self, m, n, pe, monkeypatch):
        solve = solve_leading_order if pe == 0.0 else solve_full_wave
        p = params_for(pe=pe, m=m, n=n)
        front = solve(p)
        monkeypatch.setattr("adsorb.wave.Z_STEP", Z_STEP / 8)
        oracle = solve(p, WaveSolverSettings(rel_tol=1e-12, abs_tol=1e-14))
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
