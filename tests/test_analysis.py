import math

import numpy as np
import pytest
from scipy.integrate import quad

from adsorb.analysis import (
    SweepGrid,
    SweepRecord,
    breakthrough_error,
    breakthrough_window_time,
    l2_profile_error,
    run_sweep,
)
from adsorb.errors import ConvergenceError, CoverageError, DomainError, ExistenceError
from adsorb.wave import (
    WaveProfile,
    WaveSolverSettings,
    leading_order_rhs,
    solve_full_wave,
    solve_leading_order,
)

from conftest import ADMISSIBLE_FAMILIES, params_for


def logistic_profile(k=0.56, span=30.0, n=3001, lift=0.0):
    eta = np.linspace(-span, span, n)
    f = 1.0 / (1.0 + np.exp(k * eta)) + lift
    return WaveProfile(eta=eta, f=f, g=0.7 * f, velocity=1.25, pe=0.0,
                       normalized=True, window=(float(eta[0]), float(eta[-1])))


class TestSweepGrid:
    def test_paper_default_shape(self):
        grid = SweepGrid.paper_default()
        assert len(grid.pe_values) == 16
        assert grid.pe_values[0] == 0.0
        assert sum(1 for v in grid.pe_values if v > 0) == 15
        assert grid.pe_values[-1] == pytest.approx(1.5)
        positive = np.array([v for v in grid.pe_values if v > 0])
        assert np.sum(positive <= 0.5) == 10 and np.sum(positive > 0.5) == 5

    def test_validation(self):
        with pytest.raises(DomainError):
            SweepGrid((0.1, 0.1))
        with pytest.raises(DomainError):
            SweepGrid((-0.1, 0.2))
        with pytest.raises(DomainError):
            SweepGrid(())


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
            l2_profile_error(narrow, narrow, eta_star=20.0)

    def test_monotone_growth_with_pe(self, lead_11):
        e_small = l2_profile_error(solve_full_wave(params_for(pe=0.01)), lead_11)
        e_large = l2_profile_error(solve_full_wave(params_for(pe=0.1)), lead_11)
        assert 0.0 < e_small < e_large

    def test_quadrature_resolution_stability(self, lead_11, full_11_pe01):
        e_coarse = l2_profile_error(full_11_pe01, lead_11, n_points=2001)
        e_fine = l2_profile_error(full_11_pe01, lead_11, n_points=4001)
        assert abs(e_coarse - e_fine) < 1e-6

    def test_rejects_low_resolution(self, lead_11):
        with pytest.raises(DomainError):
            l2_profile_error(lead_11, lead_11, n_points=500)


class TestBreakthroughWindow:
    def test_matches_analytic_logistic_value(self, lead_11):
        analytic = (np.log(9999.0) - np.log(99.0)) / 0.56 / 1.25
        assert breakthrough_window_time(lead_11) == pytest.approx(analytic, rel=1e-6)

    def test_closed_form_samples_match_too(self):
        prof = logistic_profile(span=40.0, n=8001)
        analytic = (np.log(9999.0) - np.log(99.0)) / 0.56 / 1.25
        assert breakthrough_window_time(prof) == pytest.approx(analytic, rel=1e-6)

    def test_equal_thresholds_give_zero(self, lead_11):
        assert breakthrough_window_time(lead_11, hi=1e-3, lo=1e-3) == 0.0

    def test_positive_for_decreasing_fronts(self, lead_11, full_11_pe01):
        assert breakthrough_window_time(lead_11) > 0.0
        assert breakthrough_window_time(full_11_pe01) > 0.0

    def test_threshold_not_bracketed(self):
        prof = logistic_profile(k=1.0, span=15.0)  # tail bottoms out near 3e-7
        with pytest.raises(CoverageError):
            breakthrough_window_time(prof, hi=1e-2, lo=1e-8)

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
    def test_window_does_not_depend_on_tolerance(self, m, n, da):
        # the window error of these families is about 1e-4 of the window, so
        # the solver and the profile read-out must hold it far more tightly
        p = params_for(pe=0.05, da=da, m=m, n=n)
        tight = WaveSolverSettings(rel_tol=1e-11, abs_tol=1e-13)
        window = breakthrough_window_time(solve_full_wave(p))
        reference = breakthrough_window_time(solve_full_wave(p, tight))
        assert window == pytest.approx(reference, rel=1e-7)
        # a sweep solves each positive Pe of its grid by its own leg
        swept = [r for r in run_sweep(p, SweepGrid.paper_default()) if r.pe == 0.05]
        assert len(swept) == 1 and swept[0].error is None
        assert swept[0].t_window == pytest.approx(reference, rel=1e-7)

    def test_rejects_swapped_thresholds(self, lead_11):
        with pytest.raises(DomainError):
            breakthrough_window_time(lead_11, hi=1e-4, lo=1e-2)


class TestBreakthroughError:
    def test_values(self):
        assert breakthrough_error(5.0, 5.0) == 0.0
        assert breakthrough_error(5.25, 5.0) == pytest.approx(0.05, rel=1e-14)
        assert breakthrough_error(4.75, 5.0) == pytest.approx(-0.05, rel=1e-14)

    def test_rejects_bad_reference(self):
        with pytest.raises(DomainError):
            breakthrough_error(1.0, 0.0)


class TestRunSweep:
    def test_zero_only_grid(self):
        recs = run_sweep(params_for(), SweepGrid((0.0,)))
        assert len(recs) == 1
        assert recs[0] == SweepRecord(pe=0.0, l2_error=0.0,
                                      t_window=pytest.approx(6.593029, rel=1e-5), e_bt=0.0)

    def test_profile_error_grows_along_paper_grid(self):
        recs = run_sweep(params_for(), SweepGrid.paper_default())
        errors = [r.l2_error for r in recs]
        assert errors[0] == 0.0
        assert all(b > a for a, b in zip(errors, errors[1:]))
        assert all(r.e_bt > 0.0 for r in recs if r.pe > 0)
        assert all(r.error is None for r in recs)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4)])
    def test_distance_decreases_toward_zero_pe(self, m, n):
        recs = run_sweep(params_for(m=m, n=n), SweepGrid((0.01, 0.1, 0.5, 1.0, 1.5)))
        errors = [r.l2_error for r in recs]
        assert all(b > a for a, b in zip(errors, errors[1:]))

    def test_fast_front_sweeps(self):
        # head rate alpha (q_e + Da) = 2.36: every saturated side stops at
        # z = Z_HEAD short of eta = -20, where F equals 1 to 13 digits
        recs = run_sweep(params_for(q_e=0.9805, da=1.4255), SweepGrid((0.0, 0.0054, 0.1, 0.5)))
        assert all(r.error is None for r in recs)
        assert all(r.l2_error > 0.0 and r.e_bt > 0.0 for r in recs[1:])

    def test_refuses_inadmissible_orders_with_report(self):
        with pytest.raises(ExistenceError) as err:
            run_sweep(params_for(m=2, n=1), SweepGrid((0.0, 0.1)))
        report = err.value.report
        assert report is not None and not report.admissible
        assert report.interior_equilibrium == pytest.approx(1.0 / 0.7 - 1.0, abs=1e-10)

    def test_a_failed_solve_marks_only_its_own_pe(self, monkeypatch):
        def solve(params, settings=None):
            if params.pe == 0.2:
                raise ConvergenceError("leg step fell below the minimum")
            return solve_full_wave(params, settings)

        monkeypatch.setattr("adsorb.analysis.solve_full_wave", solve)
        recs = run_sweep(params_for(), SweepGrid((0.0, 0.1, 0.2, 0.3)))
        assert [r.pe for r in recs] == [0.0, 0.1, 0.2, 0.3]
        assert recs[2].error == "ConvergenceError: leg step fell below the minimum"
        assert np.isnan(recs[2].l2_error) and np.isnan(recs[2].t_window)
        for rec in (recs[0], recs[1], recs[3]):
            assert rec.error is None and np.isfinite(rec.e_bt)

    def test_failed_points_are_marked_not_fatal(self):
        settings = WaveSolverSettings(seed_delta=-1e-6)  # diverges for every pe > 0
        recs = run_sweep(params_for(), SweepGrid((0.0, 0.1, 0.2)), settings=settings)
        assert recs[0].error is None and recs[0].l2_error == 0.0
        for rec in recs[1:]:
            assert rec.error is not None and "DivergenceError" in rec.error
            assert np.isnan(rec.l2_error) and np.isnan(rec.e_bt)

