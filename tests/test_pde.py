import gc
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import OdeSolver, cumulative_trapezoid, solve_ivp

from adsorb.errors import (
    CellPecletWarning,
    CoverageError,
    DomainError,
    FrontNotFoundError,
)
from adsorb.model import _uptake, nondimensionalize
from adsorb.pde import (
    PdeSolution,
    SpatialGrid,
    _jacobian,
    assemble_rhs,
    breakthrough_time,
    mass_balance_residual,
    reconstruct_boundaries,
    solve_pde,
    track_front,
)
from adsorb.analysis import breakthrough_window_time
from adsorb.wave import solve_full_wave

from conftest import ADMISSIBLE_FAMILIES, column_physical, params_for


class TestSpatialGrid:
    def test_spacing_and_nodes(self):
        grid = SpatialGrid(ell=19.0, n_cells=20)
        assert grid.spacing == pytest.approx(1.0)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == pytest.approx(19.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            SpatialGrid(ell=0.0, n_cells=32)
        with pytest.raises(DomainError):
            SpatialGrid(ell=1.0, n_cells=8)


class TestKinetics:
    def test_equilibrium_at_saturation(self):
        # (1, q_e) is a rest state of the law exactly, also next to q_e = 1
        for q_e in (0.7, 0.99, 0.9999):
            for m, n in ADMISSIBLE_FAMILIES:
                p = params_for(q_e=q_e, pe=0.1, m=m, n=n)
                assert _uptake(1.0, p.q_e, p) == 0.0, (q_e, m, n)

    def test_fresh_state(self):
        p = params_for(pe=0.1)
        assert _uptake(0.0, 0.0, p) == 0.0

    def test_direct_substitution(self):
        p = params_for(pe=0.1)
        assert _uptake(1.0, 0.0, p) == pytest.approx(p.alpha, rel=1e-14)


class TestAssembleRhs:
    def make(self, n_cells=64, pe=0.1, ell=20.0):
        p = params_for(pe=pe, ell=ell)
        return p, SpatialGrid(ell=ell, n_cells=n_cells)

    def test_saturated_state_is_stationary(self):
        p, grid = self.make()
        state = np.concatenate([np.ones(grid.n_cells - 2), np.full(grid.n_cells, p.q_e)])
        rhs = assemble_rhs(state, p, grid)
        assert np.max(np.abs(rhs)) < 1e-12
        c0, c_out = reconstruct_boundaries(np.ones(grid.n_cells - 2), p, grid)
        assert c0 == 1.0 and c_out == pytest.approx(1.0, rel=1e-15)

    def test_injection_drives_clean_column(self):
        p, grid = self.make()
        state = np.zeros(2 * grid.n_cells - 2)
        rhs = assemble_rhs(state, p, grid)
        assert rhs[0] > 0.0

    def test_interior_stencils_exact_on_linear_data(self):
        # equilibrium q makes dq/dt vanish, isolating the transport stencils;
        # nodes touching the reconstructed boundaries are excluded
        p, grid = self.make(n_cells=128)
        x = grid.nodes
        c = 1.0 - x / (2.0 * grid.ell)
        q = p.alpha * c / (p.alpha * c + (1.0 - p.alpha))
        state = np.concatenate([c[1:-1], q])
        rhs = assemble_rhs(state, p, grid)
        dc = rhs[: grid.n_cells - 2]
        dq = rhs[grid.n_cells - 2:]
        expected = 1.0 / (2.0 * grid.ell * p.da)
        assert_allclose(dc[1:-1], expected, rtol=1e-10)
        # boundary-node kinetics see the reconstructed inlet/outlet values
        assert np.max(np.abs(dq[1:-1])) < 1e-14

    def test_inlet_stencil_enforces_flux_condition(self):
        p, grid = self.make()
        rng = np.random.default_rng(3)
        c_int = rng.uniform(0.0, 1.0, grid.n_cells - 2)
        c0, c_out = reconstruct_boundaries(c_int, p, grid)
        h = grid.spacing
        inlet_residual = c0 - p.pe * (-3.0 * c0 + 4.0 * c_int[0] - c_int[1]) / (2.0 * h) - 1.0
        outlet_gradient = 3.0 * c_out - 4.0 * c_int[-1] + c_int[-2]
        assert abs(inlet_residual) < 1e-13
        assert abs(outlet_gradient) < 1e-12

    def test_dirichlet_limit_without_diffusion(self):
        p, grid = self.make(pe=1e-300)
        c0, _ = reconstruct_boundaries(np.linspace(0.9, 0.0, grid.n_cells - 2), p, grid)
        assert c0 == pytest.approx(1.0, rel=1e-12)


def test_integrator_stats_is_one_class_across_layers():
    # it lives in a module that loads no scipy, so the wave layer can use it
    from adsorb import pde, stats, wave
    assert pde.IntegratorStats is stats.IntegratorStats is wave.IntegratorStats


def central_jacobian(state, p, grid, step=1e-6):
    """Central-difference Jacobian of ``assemble_rhs``, one column per state entry."""
    dense = np.empty((state.size, state.size))
    for j in range(state.size):
        e = np.zeros(state.size)
        e[j] = step
        dense[:, j] = (assemble_rhs(state + e, p, grid)
                       - assemble_rhs(state - e, p, grid)) / (2.0 * step)
    return dense


def assert_jacobian_is_exact(p, grid, state):
    """The analytic Jacobian equals the central-difference one entry for entry.

    Returns its stored pattern and the difference Jacobian's nonzero set; the
    pattern holds every nonzero, and at a generic state the two are equal.
    """
    dense = central_jacobian(state, p, grid)
    jac = _jacobian(p, grid)(0.0, state)
    assert_allclose(jac.toarray(), dense, rtol=1e-7, atol=1e-7 * np.abs(dense).max())
    stored = jac.copy()
    stored.data[:] = 1.0
    pattern, nonzero = stored.toarray() != 0, np.abs(dense) > 1e-9
    assert not np.any(nonzero & ~pattern)
    return pattern, nonzero


@pytest.mark.parametrize("m, n, q_e, da", [(1, 1, 0.7, 0.1), (1, 2, 0.7, 0.1), (2, 3, 0.7, 0.1),
                                           (3, 4, 0.7, 0.1),
                                           (1, 1, 0.99993, 0.007)])  # reference column corner
def test_jacobian_is_exact(m, n, q_e, da, monkeypatch):
    p = params_for(q_e=q_e, da=da, m=m, n=n, pe=0.5, ell=5.0)
    grid = SpatialGrid(ell=5.0, n_cells=20)
    state = np.random.default_rng(7).uniform(0.1, 0.6, 2 * grid.n_cells - 2)
    pattern, nonzero = assert_jacobian_is_exact(p, grid, state)
    assert pattern.sum() == 112
    assert np.array_equal(pattern, nonzero)

    # the integrator gets the analytic Jacobian, not a pattern to difference on
    used = []

    def recording_solve_ivp(*args, **kwargs):
        used.append(kwargs)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr("adsorb.pde.solve_ivp", recording_solve_ivp)
    solve_pde(p, grid, t_end=0.1, sample_times=np.array([0.0, 0.1]))
    (kwargs,) = used
    assert callable(kwargs["jac"]) and "jac_sparsity" not in kwargs


@st.composite
def jacobian_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    p = params_for(q_e=draw(st.floats(0.5, 0.99993)), da=draw(st.floats(0.005, 0.5)),
                   pe=draw(st.floats(0.05, 1.0)), m=m, n=n, ell=5.0)
    state = draw(st.lists(st.floats(0.0, 1.0), min_size=38, max_size=38))
    return p, np.array(state)


@hypothesis.settings(max_examples=10, derandomize=True, deadline=None)
@hypothesis.given(jacobian_cases())
def test_jacobian_is_exact_over_admissible_params(case):
    p, state = case
    assert_jacobian_is_exact(p, SpatialGrid(ell=5.0, n_cells=20), state)


def test_finished_solver_is_freed():
    # scipy's solver refers to itself; solve_pde frees it before returning
    # instead of leaving it, with its LU factors, to the cyclic collector
    p = params_for(ell=5.0, pe=0.5)
    gc.collect()
    gc.disable()
    try:
        solve_pde(p, SpatialGrid(ell=5.0, n_cells=20), t_end=0.5)
        alive = [o for o in gc.get_objects() if isinstance(o, OdeSolver)]
    finally:
        gc.enable()
    assert alive == []


@pytest.mark.parametrize("pe, da", [(0.5, 0.1), (0.1, 0.007)])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 3)])
def test_implicit_matches_explicit_reference(m, n, pe, da):
    # a tight explicit Runge-Kutta solve of the same semi-discrete system
    # is the reference for the implicit integrator's fields
    p = params_for(m=m, n=n, pe=pe, da=da, ell=5.0)
    grid = SpatialGrid(ell=5.0, n_cells=48)
    times = np.linspace(0.0, 2.0, 9)
    sol = solve_pde(p, grid, t_end=2.0, sample_times=times)
    ref = solve_ivp(lambda _t, z: assemble_rhs(z, p, grid), (0.0, 2.0),
                    np.zeros(2 * grid.n_cells - 2), method="RK45",
                    rtol=1e-10, atol=1e-12, t_eval=times)
    assert ref.success
    k = grid.n_cells - 2
    assert np.max(np.abs(sol.c[:, 1:-1] - ref.y[:k].T)) <= 1e-5
    assert np.max(np.abs(sol.q - ref.y[k:].T)) <= 1e-5
    assert sol.stats.time_method == "BDF"
    assert sol.stats.nfev > 0 and sol.stats.nlu > 0


class TestSolvePde:
    def test_vanishing_horizon_returns_initial_data(self):
        p = params_for(ell=5.0, pe=0.5)
        grid = SpatialGrid(ell=5.0, n_cells=32)
        sol = solve_pde(p, grid, t_end=1e-12, sample_times=np.array([0.0, 1e-12]))
        # the inlet boundary value is slaved to the flux condition and jumps
        # at t = 0+; the evolved unknowns must still equal the initial data
        assert np.max(np.abs(sol.c[:, 1:-1])) < 1e-9
        assert np.max(np.abs(sol.q)) < 1e-9
        assert np.all(sol.c[0] == 0.0) and np.all(sol.q[0] == 0.0)

    def test_saturated_fixed_point_is_preserved(self):
        p = params_for(ell=10.0, pe=0.2)
        grid = SpatialGrid(ell=10.0, n_cells=64)
        ones = np.ones(64)
        sol = solve_pde(p, grid, t_end=50.0, sample_times=np.array([0.0, 25.0, 50.0]),
                        initial=(ones, np.full(64, p.q_e)))
        assert np.max(np.abs(sol.c - 1.0)) <= 1e-9
        assert np.max(np.abs(sol.q - p.q_e)) <= 1e-9

    def test_warns_when_grid_underresolves_diffusion(self):
        p = params_for(ell=20.0, pe=0.01)
        grid = SpatialGrid(ell=20.0, n_cells=32)
        with pytest.warns(CellPecletWarning):
            solve_pde(p, grid, t_end=1e-6, sample_times=np.array([0.0, 1e-6]))

    def test_rejects_bad_sampling(self):
        p = params_for(ell=5.0, pe=0.5)
        grid = SpatialGrid(ell=5.0, n_cells=32)
        with pytest.raises(DomainError):
            solve_pde(p, grid, t_end=1.0, sample_times=np.array([0.0, 2.0]))
        with pytest.raises(DomainError):
            solve_pde(p, grid, t_end=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_fields(self, bad):
        p = params_for(ell=5.0, pe=0.5)
        grid = SpatialGrid(ell=5.0, n_cells=32)
        fields = (np.full(32, bad), np.zeros(32))
        with pytest.raises(DomainError, match="finite"):
            solve_pde(p, grid, t_end=1.0, initial=fields)
        with pytest.raises(DomainError, match="finite"):
            solve_pde(p, grid, t_end=1.0, initial=fields[::-1])

    def test_array_closure_matches_per_snapshot_loop(self):
        # the boundary closure runs on all snapshots at once; a loop over
        # snapshots is the reference, exact for the fields, and within
        # summation-order roundoff for the mass audit
        p = params_for(ell=5.0, pe=0.5)
        grid = SpatialGrid(ell=5.0, n_cells=48)
        sol = solve_pde(p, grid, t_end=2.0, sample_times=np.linspace(0.0, 2.0, 9))
        x, h = grid.nodes, grid.spacing
        inlet, outlet, storage = [], [], []
        for k in range(sol.times.size):
            c = sol.c[k].copy()
            c0, c_out = reconstruct_boundaries(c[1:-1], p, grid)
            assert c_out == sol.breakthrough[k]
            if k > 0:
                assert c0 == c[0] and c_out == c[-1]
            c[0], c[-1] = c0, c_out
            inlet.append(c[0] - p.pe * (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * h))
            outlet.append(c[-1] - p.pe * (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * h))
            storage.append(p.da * np.trapezoid(c, x) + np.trapezoid(sol.q[k], x))
        cum_in = cumulative_trapezoid(inlet, sol.times, initial=0.0)
        cum_out = cumulative_trapezoid(outlet, sol.times, initial=0.0)
        drift = np.abs(cum_in - cum_out - (np.array(storage) - storage[0]))
        reference = drift / np.maximum(cum_in, 1e-12)
        assert_allclose(mass_balance_residual(sol), reference, rtol=0.0, atol=1e-13)


class TestReferenceColumnRun:
    """Production-scale checks sharing the session run (t in [0, 16], 400 nodes)."""

    def test_initial_condition_rows_are_exact_zeros(self, front_speed_run):
        sol, _ = front_speed_run
        assert np.all(sol.c[0] == 0.0) and np.all(sol.q[0] == 0.0)

    def test_fields_stay_in_physical_bounds(self, front_speed_run, eq_column_params):
        sol, _ = front_speed_run
        assert sol.c.min() >= -1e-6 and sol.c.max() <= 1.0 + 1e-6
        assert sol.q.min() >= -1e-6
        assert sol.q.max() <= eq_column_params.q_e + 1e-6

    def test_breakthrough_monotone(self, front_speed_run):
        sol, _ = front_speed_run
        assert np.min(np.diff(sol.breakthrough)) > -1e-6

    def test_front_speed_against_far_field_velocity(self, front_speed_run, eq_column_params):
        sol, _ = front_speed_run
        v = eq_column_params.velocity
        track = track_front(sol, 0.5, (8.0, 16.0))
        assert abs(track.fitted_speed - v) / v < 0.05

    def test_tracked_levels_agree_mutually(self, front_speed_run):
        sol, _ = front_speed_run
        speeds = [track_front(sol, level, (8.0, 16.0)).fitted_speed
                  for level in (0.25, 0.5, 0.75)]
        assert (max(speeds) - min(speeds)) / min(speeds) < 0.02

    def test_mass_audit_quadrature_is_scipys(self, front_speed_run, monkeypatch):
        # the numpy running trapezoid is scipy's cumulative_trapezoid, bit for bit
        sol, _ = front_speed_run
        audit = mass_balance_residual(sol)
        monkeypatch.setattr("adsorb.pde._running_trapezoid",
                            lambda y, t: cumulative_trapezoid(y, t, initial=0.0))
        assert np.array_equal(mass_balance_residual(sol), audit)

    def test_mass_balance_audit(self, front_speed_run):
        sol, _ = front_speed_run
        residual = mass_balance_residual(sol)
        assert residual[0] == 0.0
        assert residual.max() < 1e-3

    def test_outlet_window_matches_travelling_wave(self, front_speed_run, eq_column_params):
        # the moving-front window 1e-4 -> 1e-2 measured from the outlet series
        sol, _ = front_speed_run
        pde_window = breakthrough_time(sol, 1e-2) - breakthrough_time(sol, 1e-4)
        wave_window = breakthrough_window_time(solve_full_wave(eq_column_params))
        assert pde_window == pytest.approx(wave_window, rel=0.02)

    def test_mass_residual_refines_at_second_order(self, refinement_residuals):
        assert refinement_residuals[400] < 1e-3
        assert refinement_residuals[400] / refinement_residuals[800] >= 3.5


class TestSpatialConvergence:
    def test_second_order_field_convergence(self, eq_column_params):
        solutions = {}
        for n_cells in (101, 201, 401):
            grid = SpatialGrid(ell=eq_column_params.ell, n_cells=n_cells)
            solutions[n_cells] = solve_pde(eq_column_params, grid, t_end=4.0,
                                           sample_times=np.array([0.0, 4.0]))
        c100 = solutions[101].c[-1]
        c200 = solutions[201].c[-1]
        c400 = solutions[401].c[-1]
        d_coarse = np.sqrt(np.mean((c200[::2] - c100) ** 2))
        d_fine = np.sqrt(np.mean((c400[::2] - c200) ** 2))
        assert d_coarse / d_fine >= 3.5


class TestLongHorizonBehaviour:
    def test_breakthrough_curve_rises_to_saturation(self, eq_column_params):
        grid = SpatialGrid(ell=eq_column_params.ell, n_cells=400)
        sol = solve_pde(eq_column_params, grid, t_end=26.0,
                        sample_times=np.linspace(0.0, 26.0, 105))
        b = sol.breakthrough
        assert b[0] == 0.0
        assert b[-1] > 0.99
        assert np.min(np.diff(b)) > -1e-6
        crossing = breakthrough_time(sol, 0.5)
        expected = eq_column_params.ell / eq_column_params.velocity
        assert crossing == pytest.approx(expected, rel=0.02)

    def test_chemisorption_fields_stay_bounded(self):
        p = nondimensionalize(column_physical(m=1, n=2), pe=0.1)
        grid = SpatialGrid(ell=p.ell, n_cells=200)
        sol = solve_pde(p, grid, t_end=12.0, sample_times=np.linspace(0.0, 12.0, 49))
        assert sol.c.min() >= -1e-6 and sol.c.max() <= 1.0 + 1e-6
        assert sol.q.min() >= -1e-6 and sol.q.max() <= p.q_e + 1e-6
        assert sol.breakthrough[-1] > 0.5


class TestFrontTracking:
    def synthetic_ramp_solution(self, v=1.25, ell=20.0, n_cells=201):
        # piecewise-linear moving ramp: linear interpolation recovers it exactly
        p = params_for(pe=0.1, ell=ell)
        grid = SpatialGrid(ell=ell, n_cells=n_cells)
        x = grid.nodes
        times = np.linspace(1.0, 9.0, 33)
        slope = 0.5
        c = np.clip(1.0 - slope * (x[None, :] - v * times[:, None]), 0.0, 1.0)
        q = np.zeros_like(c)
        return PdeSolution(grid=grid, times=times, c=c, q=q,
                           breakthrough=c[:, -1], params=p), v

    def test_exact_speed_on_synthetic_wave(self):
        sol, v = self.synthetic_ramp_solution()
        track = track_front(sol, 0.5, (1.0, 9.0))
        assert track.fitted_speed == pytest.approx(v, rel=1e-6)
        assert all(0.0 <= pos <= 1.0 for _, pos in track.positions)

    def test_level_never_crossed(self):
        sol, _ = self.synthetic_ramp_solution()
        with pytest.raises(FrontNotFoundError):
            track_front(sol, 0.999999, (1.0, 1.2))

    def test_validation(self):
        sol, _ = self.synthetic_ramp_solution()
        with pytest.raises(DomainError):
            track_front(sol, 1.5, (1.0, 9.0))
        with pytest.raises(DomainError):
            track_front(sol, 0.5, (9.0, 1.0))


class TestBreakthroughTime:
    def test_threshold_never_reached(self, front_speed_run):
        sol, _ = front_speed_run
        with pytest.raises(CoverageError):
            breakthrough_time(sol, 0.9)

    def test_saturated_steady_state_audit(self):
        p = params_for(ell=10.0, pe=0.2)
        grid = SpatialGrid(ell=10.0, n_cells=64)
        ones = np.ones(64)
        sol = solve_pde(p, grid, t_end=20.0, sample_times=np.linspace(0.0, 20.0, 11),
                        initial=(ones, np.full(64, p.q_e)))
        assert mass_balance_residual(sol).max() < 1e-6


class TestRandomColumns:
    """The mass audit and the front speed over random (1,1) columns.

    The spacing 0.05 is the production grid's (400 cells on ell 19.2). The
    audit's largest residual is at the first snapshot, where the inflow is
    still small, and it grows with Da and h and falls with Pe, so the draws
    keep Da <= 0.03 and Pe >= 0.1. Fronts need most of the column to reach
    v, so the speed is fitted over the second half of the crossing time.
    """

    @hypothesis.settings(max_examples=10, derandomize=True, deadline=None)
    @hypothesis.given(q_e=st.floats(0.5, 0.99993), da=st.floats(0.005, 0.03),
                      pe=st.floats(0.1, 0.5), ell=st.floats(15.0, 30.0))
    @hypothesis.example(q_e=0.99993, da=0.007, pe=0.1, ell=19.2)  # reference column corner
    def test_mass_balance_and_front_speed(self, q_e, da, pe, ell):
        p = params_for(q_e=q_e, da=da, pe=pe, ell=ell)
        grid = SpatialGrid(ell=ell, n_cells=math.ceil(ell / 0.05) + 1)
        crossing = ell / p.velocity
        t_end = 0.9 * crossing
        sol = solve_pde(p, grid, t_end, sample_times=np.linspace(0.0, t_end, 41))
        assert mass_balance_residual(sol).max() < 1e-3
        speed = track_front(sol, 0.5, (0.5 * crossing, t_end)).fitted_speed
        assert abs(speed - p.velocity) / p.velocity < 0.05
