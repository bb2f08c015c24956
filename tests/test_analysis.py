import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from adsorb import analysis, wave
from adsorb.analysis import (
    PE_VALUES,
    SweepRecord,
    breakthrough_error,
    breakthrough_window_time,
    l2_profile_error,
    run_sweep,
)
from adsorb.errors import ConvergenceError, CoverageError, DomainError, ExistenceError
from adsorb.pde import SpatialGrid, solve_pde
from adsorb.wave import (
    WaveProfile,
    leading_order_rhs,
    solve_full_wave,
    solve_leading_order,
)

from conftest import ADMISSIBLE_FAMILIES, params_for


def logistic_profile(k=0.56, span=30.0, n=3001, lift=0.0):
    eta = np.linspace(-span, span, n)
    f = 1.0 / (1.0 + np.exp(k * eta)) + lift
    return WaveProfile(eta=eta, f=f, g=0.7 * f, velocity=1.25, pe=0.0)


class TestPeValues:
    def test_paper_grid_shape(self):
        assert len(PE_VALUES) == 16
        assert PE_VALUES[0] == 0.0
        assert sum(1 for v in PE_VALUES if v > 0) == 15
        assert PE_VALUES[-1] == pytest.approx(1.5)
        positive = np.array([v for v in PE_VALUES if v > 0])
        assert np.sum(positive <= 0.5) == 10 and np.sum(positive > 0.5) == 5
        assert all(b > a for a, b in zip(PE_VALUES, PE_VALUES[1:]))
        # plain floats, bit for bit the two linspaces the grid was always built from
        assert all(type(v) is float for v in PE_VALUES)
        assert np.array_equal(PE_VALUES, np.concatenate([np.linspace(0.0, 0.5, 11),
                                                         np.linspace(0.5, 1.5, 6)[1:]]))


class TestL2ProfileError:
    def test_identical_profiles(self, lead_11):
        assert l2_profile_error(lead_11, lead_11) == 0.0

    def test_constant_offset_integrates_analytically(self):
        base = logistic_profile()
        delta = 5e-10  # small enough to keep both profiles inside [0, 1]
        lifted = logistic_profile(lift=delta)
        expected = delta * np.sqrt(40.0)
        assert l2_profile_error(lifted, base) == pytest.approx(expected, rel=1e-5)

    def test_coverage_error_when_window_short(self):
        narrow = logistic_profile(k=1.0, span=15.0)
        with pytest.raises(CoverageError):
            l2_profile_error(narrow, narrow)

    def test_monotone_growth_with_pe(self, lead_11):
        e_small = l2_profile_error(solve_full_wave(params_for(pe=0.01)), lead_11)
        e_large = l2_profile_error(solve_full_wave(params_for(pe=0.1)), lead_11)
        assert 0.0 < e_small < e_large

    def test_quadrature_resolution_stability(self, lead_11, full_11_pe01):
        # the DEFAULT_QUAD_POINTS-point rule against one on twice as many intervals
        fine = np.linspace(-analysis.DEFAULT_ETA_STAR, analysis.DEFAULT_ETA_STAR, 4001)
        e_fine = analysis._l2_distance(full_11_pe01, lead_11, lead_11.f_at(fine), fine)
        assert abs(l2_profile_error(full_11_pe01, lead_11) - e_fine) < 1e-6


class TestBreakthroughWindow:
    def test_matches_analytic_logistic_value(self, lead_11):
        analytic = (np.log(9999.0) - np.log(99.0)) / 0.56 / 1.25
        assert breakthrough_window_time(lead_11) == pytest.approx(analytic, rel=1e-6)

    def test_closed_form_samples_match_too(self):
        prof = logistic_profile(span=40.0, n=8001)
        analytic = (np.log(9999.0) - np.log(99.0)) / 0.56 / 1.25
        assert breakthrough_window_time(prof) == pytest.approx(analytic, rel=1e-6)

    def test_positive_for_decreasing_fronts(self, lead_11, full_11_pe01):
        assert breakthrough_window_time(lead_11) > 0.0
        assert breakthrough_window_time(full_11_pe01) > 0.0

    def test_threshold_not_bracketed(self):
        # a profile spans (F_ENDPOINT_TOL, 1 - F_ENDPOINT_TOL) by construction,
        # which holds both window levels; a level below its tail is not covered
        assert wave.F_ENDPOINT_TOL <= analysis.THRESHOLD_LO < analysis.THRESHOLD_HI < 0.5
        prof = logistic_profile(k=1.0, span=15.0)  # tail bottoms out near 3e-7
        assert breakthrough_window_time(prof) > 0.0
        with pytest.raises(CoverageError, match="level 1e-08 outside the profile range"):
            prof.eta_at(1e-8)

    @pytest.mark.parametrize("da", [0.1, 0.5])
    @pytest.mark.parametrize("m,n", ADMISSIBLE_FAMILIES)
    def test_leading_window_matches_quadrature(self, m, n, da):
        # t = (1/v) int dF / |F'(F)| over [1e-4, 1e-2], integrated in s = ln F
        p = params_for(da=da, m=m, n=n)
        integral, _ = quad(lambda s: math.exp(s) / -leading_order_rhs(math.exp(s), p),
                           math.log(1e-4), math.log(1e-2), epsrel=1e-13)
        window = breakthrough_window_time(solve_leading_order(p))
        assert window == pytest.approx(integral / p.velocity, rel=1e-5)

    @pytest.mark.parametrize("m,n,da", [(2, 3, 0.1), (2, 2, 0.5)])
    def test_window_does_not_depend_on_tolerance(self, m, n, da, monkeypatch):
        # the window error of these families is about 1e-4 of the window, so
        # the solver and the profile read-out must hold it far more tightly
        p = params_for(pe=0.05, da=da, m=m, n=n)
        window = breakthrough_window_time(solve_full_wave(p))
        # a sweep solves each positive Pe of its grid by its own leg
        swept = [r for r in run_sweep(p) if r.pe == 0.05]
        monkeypatch.setattr("adsorb.wave.REL_TOL", 1e-11)
        monkeypatch.setattr("adsorb.wave.ABS_TOL", 1e-13)
        reference = breakthrough_window_time(solve_full_wave(p))
        assert window == pytest.approx(reference, rel=1e-7)
        assert len(swept) == 1 and swept[0].error is None
        assert swept[0].t_window == pytest.approx(reference, rel=1e-7)


@pytest.mark.parametrize("function, keyword, value", [
    ("solve_pde", "initial", (np.zeros(20), np.zeros(20))),
    ("l2_profile_error", "eta_star", 20.0),
    ("l2_profile_error", "n_points", 2001),
    ("breakthrough_window_time", "hi", 1e-2),
    ("breakthrough_window_time", "lo", 1e-4),
    ("solve_full_wave", "settings", None),
    ("run_sweep", "settings", None),
    ("run_sweep", "grid", (0.0, 0.1)),
    ("solve_pde", "settings", None),
])
def test_removed_keywords_are_type_errors(lead_11, function, keyword, value):
    # the column starts clean, the L2 and breakthrough windows are constants,
    # and so are both integrators' tolerances and the sweep's Pe grid
    call, args = {
        "solve_pde": (solve_pde,
                      (params_for(ell=5.0, pe=0.5), SpatialGrid(ell=5.0, n_cells=20), 1.0)),
        "l2_profile_error": (l2_profile_error, (lead_11, lead_11)),
        "breakthrough_window_time": (breakthrough_window_time, (lead_11,)),
        "solve_full_wave": (solve_full_wave, (params_for(pe=0.1),)),
        "run_sweep": (run_sweep, (params_for(),)),
    }[function]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        call(*args, **{keyword: value})


def test_run_sweep_takes_no_grid():
    # the sweep's Pe grid is the constant PE_VALUES
    with pytest.raises(TypeError, match="1 positional argument but 2 were given"):
        run_sweep(params_for(), (0.0, 0.1))


class TestBreakthroughError:
    def test_values(self):
        assert breakthrough_error(5.0, 5.0) == 0.0
        assert breakthrough_error(5.25, 5.0) == pytest.approx(0.05, rel=1e-14)
        assert breakthrough_error(4.75, 5.0) == pytest.approx(-0.05, rel=1e-14)

    def test_rejects_bad_reference(self):
        with pytest.raises(DomainError):
            breakthrough_error(1.0, 0.0)


class TestRunSweep:
    def test_zero_only_grid(self, monkeypatch):
        monkeypatch.setattr(analysis, "PE_VALUES", (0.0,))
        recs = run_sweep(params_for())
        assert len(recs) == 1
        assert recs[0] == SweepRecord(pe=0.0, l2_error=0.0,
                                      t_window=pytest.approx(6.593029, rel=1e-5), e_bt=0.0)

    def test_profile_error_grows_along_paper_grid(self):
        recs = run_sweep(params_for())
        errors = [r.l2_error for r in recs]
        assert errors[0] == 0.0
        assert all(b > a for a, b in zip(errors, errors[1:]))
        assert all(r.e_bt > 0.0 for r in recs if r.pe > 0)
        assert all(r.error is None for r in recs)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4)])
    def test_distance_decreases_toward_zero_pe(self, m, n, monkeypatch):
        monkeypatch.setattr(analysis, "PE_VALUES", (0.01, 0.1, 0.5, 1.0, 1.5))
        recs = run_sweep(params_for(m=m, n=n))
        errors = [r.l2_error for r in recs]
        assert all(b > a for a, b in zip(errors, errors[1:]))

    def test_fast_front_sweeps(self, monkeypatch):
        # head rate alpha (q_e + Da) = 2.36: every saturated side stops at
        # z = Z_HEAD short of eta = -20, where F equals 1 to 13 digits
        monkeypatch.setattr(analysis, "PE_VALUES", (0.0, 0.0054, 0.1, 0.5))
        recs = run_sweep(params_for(q_e=0.9805, da=1.4255))
        assert all(r.error is None for r in recs)
        assert all(r.l2_error > 0.0 and r.e_bt > 0.0 for r in recs[1:])

    def test_refuses_inadmissible_orders_with_report(self, monkeypatch):
        monkeypatch.setattr(analysis, "PE_VALUES", (0.0, 0.1))
        with pytest.raises(ExistenceError) as err:
            run_sweep(params_for(m=2, n=1))
        report = err.value.report
        assert report is not None and not report.admissible
        assert report.interior_equilibrium == pytest.approx(1.0 / 0.7 - 1.0, abs=1e-10)

    def test_a_failed_solve_marks_only_its_own_pe(self, monkeypatch):
        # the other records are those of a sweep in which nothing fails
        monkeypatch.setattr(analysis, "PE_VALUES", (0.0, 0.1, 0.2, 0.3))
        clean = run_sweep(params_for())

        def solve(params):
            if params.pe == 0.2:
                raise ConvergenceError("leg step fell below the minimum")
            return solve_full_wave(params)

        monkeypatch.setattr("adsorb.analysis.solve_full_wave", solve)
        recs = run_sweep(params_for())
        assert [r.pe for r in recs] == [0.0, 0.1, 0.2, 0.3]
        assert recs[2].error == "ConvergenceError: leg step fell below the minimum"
        assert np.isnan(recs[2].l2_error) and np.isnan(recs[2].t_window)
        assert np.isnan(recs[2].e_bt)
        assert recs[:2] + recs[3:] == clean[:2] + clean[3:]
        assert all(rec.error is None for rec in clean)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3)])
    def test_records_equal_per_pe_calls_bit_for_bit(self, m, n, monkeypatch):
        # the sweep samples the leading front on the L2 grid once
        monkeypatch.setattr(analysis, "PE_VALUES", (0.0, 0.1, 0.5, 1.5))
        p = params_for(m=m, n=n)
        leading = solve_leading_order(p)
        t_0 = breakthrough_window_time(leading)
        recs = run_sweep(p)
        for rec in recs[1:]:
            full = solve_full_wave(replace(p, pe=rec.pe))
            t_pe = breakthrough_window_time(full)
            assert rec == SweepRecord(pe=rec.pe, l2_error=l2_profile_error(full, leading),
                                      t_window=t_pe, e_bt=breakthrough_error(t_pe, t_0),
                                      stats=full.stats)

    @pytest.mark.parametrize("short_full", [False, True])
    def test_a_short_front_marks_every_positive_pe(self, monkeypatch, short_full):
        # (1, 1) sides sampled to a span of 1 end near |eta| = 25 for
        # Pe <= 0.05, short of the window [-26, 26]; the full front is checked
        # first
        p = params_for()
        monkeypatch.setattr("adsorb.wave.ETA_SPAN", 1.0)
        leading = solve_leading_order(p)
        monkeypatch.setattr("adsorb.analysis.solve_leading_order", lambda params: leading)
        monkeypatch.setattr("adsorb.analysis.DEFAULT_ETA_STAR", 26.0)
        if not short_full:
            monkeypatch.setattr("adsorb.wave.ETA_SPAN", 26.0)
        monkeypatch.setattr(analysis, "PE_VALUES", (0.0, 0.01, 0.05))
        recs = run_sweep(p)
        assert recs[0].error is None
        for rec in recs[1:]:
            full = solve_full_wave(replace(p, pe=rec.pe))  # at the span the sweep had
            with pytest.raises(CoverageError) as err:
                l2_profile_error(full, leading)  # over the patched window
            assert rec.error == f"CoverageError: {err.value}"
            assert ("full" if short_full else "leading") in rec.error
            assert rec.stats is None and np.isnan(rec.l2_error)

    def test_the_front_window_covers_the_l2_window(self):
        # the sweep never widens a front: every side reaches |eta| >= ETA_SPAN
        # unless its head saturates first, where f_at reads 1 upstream
        assert wave.ETA_SPAN >= analysis.DEFAULT_ETA_STAR

