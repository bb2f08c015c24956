import ctypes
import gc
import itertools
import math
import re
import sys
import types
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.linalg.lapack import dgttrf, dgttrs

from adsorb import pde
from adsorb.errors import (
    AdsorptionError,
    CellPecletWarning,
    ConvergenceError,
    CoverageError,
    DomainError,
)
from adsorb.model import _rate_law, nondimensionalize
from adsorb.pde import (
    PdeSolution,
    SpatialGrid,
    _Column,
    _full_field,
    assemble_rhs,
    breakthrough_time,
    mass_balance_residual,
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
        with pytest.raises(DomainError, match="need at least 16 nodes, got 8"):
            SpatialGrid(ell=1.0, n_cells=8)

    @pytest.mark.parametrize("n_cells", [20.5, 20.0, True, "20", None])
    def test_non_integer_node_count_is_refused(self, n_cells):
        # refused at construction, not later by linspace or numpy's shapes
        with pytest.raises(DomainError, match=f"n_cells must be an integer, got {n_cells!r}"):
            SpatialGrid(ell=8.0, n_cells=n_cells)

    def test_numpy_integer_node_count_is_taken(self):
        assert SpatialGrid(ell=8.0, n_cells=np.int64(20)).nodes.size == 20

    @pytest.mark.parametrize("n_cells", [2 ** 62, np.int64(2 ** 62)])
    def test_unsizable_node_count_is_refused(self, n_cells):
        # a state of 2 n_cells - 2 doubles is past what numpy can size, so the
        # grid refuses it before any array is asked for
        with pytest.raises(DomainError, match="^" + re.escape(
                f"n_cells = {n_cells!r} asks for an array of {8 * (2 * 2 ** 62 - 2)} bytes")):
            SpatialGrid(ell=8.0, n_cells=n_cells)


class TestKinetics:
    def test_equilibrium_at_saturation(self):
        # (1, q_e) is a rest state of the law exactly, also next to q_e = 1
        for q_e in (0.7, 0.99, 0.9999):
            for m, n in ADMISSIBLE_FAMILIES:
                p = params_for(q_e=q_e, pe=0.1, m=m, n=n)
                assert _rate_law(p)[0](1.0, p.q_e) == 0.0, (q_e, m, n)

    def test_fresh_state(self):
        p = params_for(pe=0.1)
        assert _rate_law(p)[0](0.0, 0.0) == 0.0

    def test_direct_substitution(self):
        p = params_for(pe=0.1)
        assert _rate_law(p)[0](1.0, 0.0) == pytest.approx(p.alpha, rel=1e-14)


class TestAssembleRhs:
    def make(self, n_cells=64, pe=0.1, ell=20.0):
        p = params_for(pe=pe, ell=ell)
        return p, SpatialGrid(ell=ell, n_cells=n_cells)

    def test_saturated_state_is_stationary(self):
        p, grid = self.make()
        state = np.concatenate([np.ones(grid.n_cells - 2), np.full(grid.n_cells, p.q_e)])
        rhs = assemble_rhs(state, _Column(p, grid))
        assert np.max(np.abs(rhs)) < 1e-12
        c0, c_out = _full_field(np.ones(grid.n_cells - 2), _Column(p, grid).w)[[0, -1]]
        assert c0 == 1.0 and c_out == pytest.approx(1.0, rel=1e-15)

    def test_saturated_reference_column_is_exactly_stationary(self, eq_column_params):
        # the difference form west (c[i-1] - c[i]) + east (c[i+1] - c[i]) is
        # exactly zero on a constant field, where the three-weight form
        # west c[i-1] + centre c[i] + east c[i+1] leaves roundoff
        p = eq_column_params
        grid = SpatialGrid(ell=p.ell, n_cells=400)
        state = np.concatenate([np.ones(grid.n_cells - 2), np.full(grid.n_cells, p.q_e)])
        rhs = assemble_rhs(state, _Column(p, grid))
        assert np.count_nonzero(rhs) == 0

    def test_injection_drives_clean_column(self):
        p, grid = self.make()
        state = np.zeros(2 * grid.n_cells - 2)
        rhs = assemble_rhs(state, _Column(p, grid))
        assert rhs[0] > 0.0

    def test_interior_stencils_exact_on_linear_data(self):
        # equilibrium q makes dq/dt vanish, isolating the transport stencils;
        # nodes touching the reconstructed boundaries are excluded
        p, grid = self.make(n_cells=128)
        x = grid.nodes
        c = 1.0 - x / (2.0 * grid.ell)
        q = p.alpha * c / (p.alpha * c + (1.0 - p.alpha))
        state = np.concatenate([c[1:-1], q])
        rhs = assemble_rhs(state, _Column(p, grid))
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
        c0, c_out = _full_field(c_int, _Column(p, grid).w)[[0, -1]]
        h = grid.spacing
        inlet_residual = c0 - p.pe * (-3.0 * c0 + 4.0 * c_int[0] - c_int[1]) / (2.0 * h) - 1.0
        outlet_gradient = 3.0 * c_out - 4.0 * c_int[-1] + c_int[-2]
        assert abs(inlet_residual) < 1e-13
        assert abs(outlet_gradient) < 1e-12

    def test_dirichlet_limit_without_diffusion(self):
        p, grid = self.make(pe=1e-300)
        c0 = _full_field(np.linspace(0.9, 0.0, grid.n_cells - 2), _Column(p, grid).w)[0]
        assert c0 == pytest.approx(1.0, rel=1e-12)


def test_integrator_stats_is_one_class_across_layers():
    # it lives in a module that loads no scipy, so the wave layer can use it
    from adsorb import pde, stats, wave
    assert pde.IntegratorStats is stats.IntegratorStats is wave.IntegratorStats


def central_jacobian(state, p, grid, step=1e-6):
    """Central-difference Jacobian of ``assemble_rhs``, one column per state entry."""
    column = _Column(p, grid)
    dense = np.empty((state.size, state.size))
    for j in range(state.size):
        e = np.zeros(state.size)
        e[j] = step
        dense[:, j] = (assemble_rhs(state + e, column)
                       - assemble_rhs(state - e, column)) / (2.0 * step)
    return dense


def dense_jacobian(p, grid, state):
    """The analytic Jacobian of ``_Column`` as a dense matrix.

    J = [[L E / Da - P R_c E / Da, -P R_q / Da], [R_c E, R_q]], from the
    constant band, the closure weights and the rate partials at ``state``.
    """
    column = _Column(p, grid)
    r_c, r_q = column.jacobian(state)
    n = grid.n_cells
    k = n - 2
    closure = np.zeros((n, k))  # E
    closure[1:-1] = np.eye(k)
    closure[0, :2], closure[-1, -2:] = column.inlet, column.outlet
    lower, main, upper = column.band
    jac = np.zeros((k + n, k + n))
    jac[:k, :k] = (np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)
                   - np.diag(r_c[1:-1]) / p.da)
    jac[:k, k + 1:-1] = -np.diag(r_q[1:-1]) / p.da
    jac[k:, :k] = r_c[:, None] * closure
    jac[k:, k:] = np.diag(r_q)
    return jac


def assert_jacobian_is_exact(p, grid, state):
    """The analytic Jacobian equals the central-difference one entry for entry.

    Returns both, with the analytic one's nonzero set and the difference
    Jacobian's; at a generic state the two sets are equal.
    """
    dense = central_jacobian(state, p, grid)
    jac = dense_jacobian(p, grid, state)
    assert_allclose(jac, dense, rtol=1e-7, atol=1e-7 * np.abs(dense).max())
    pattern, nonzero = jac != 0, np.abs(dense) > 1e-9
    assert not np.any(nonzero & ~pattern)
    return jac, dense, pattern, nonzero


@pytest.mark.parametrize("m, n, q_e, da", [(1, 1, 0.7, 0.1), (1, 2, 0.7, 0.1), (2, 3, 0.7, 0.1),
                                           (3, 4, 0.7, 0.1),
                                           (1, 1, 0.99993, 0.007)])  # reference column corner
def test_jacobian_is_exact(m, n, q_e, da):
    p = params_for(q_e=q_e, da=da, m=m, n=n, pe=0.5, ell=5.0)
    grid = SpatialGrid(ell=5.0, n_cells=20)
    state = np.random.default_rng(7).uniform(0.1, 0.6, 2 * grid.n_cells - 2)
    jac, dense, pattern, nonzero = assert_jacobian_is_exact(p, grid, state)
    assert pattern.sum() == 112
    assert np.array_equal(pattern, nonzero)

    # the factored Newton operator solves I - g J, by value: against the
    # central-difference J within its entry tolerance, and against the dense
    # analytic J to roundoff
    column = _Column(p, grid)
    rng = np.random.default_rng(11)
    eye = np.eye(state.size)
    for g in (1e-3, 0.1, 10.0):
        lu = column.factor(column.jacobian(state), g)
        b = rng.standard_normal(state.size)
        x = column.solve(lu, b)
        slack = g * 1e-7 * np.abs(dense).max() * np.abs(x).sum()
        assert_allclose((eye - g * dense) @ x, b, rtol=0.0, atol=slack)
        assert_allclose(x, np.linalg.solve(eye - g * jac, b), rtol=0.0,
                        atol=1e-13 * np.abs(x).max())


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
    # the integrator holds no reference cycles: all it allocates is freed by
    # reference counting, and nothing waits for the cyclic collector
    p = params_for(ell=5.0, pe=0.5)
    grid = SpatialGrid(ell=5.0, n_cells=20)
    gc.collect()
    gc.disable()
    try:
        solve_pde(p, grid, t_end=0.5)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_rate_law_is_bound_once_per_solve(monkeypatch):
    # the column binds the rate law's constants once; no right-hand side or
    # Jacobian evaluation binds them again
    from adsorb import model
    bound = []

    def counted(params):
        bound.append(params)
        return _rate_law(params)

    for name, module in list(sys.modules.items()):
        if name.startswith("adsorb") and getattr(module, "_rate_law", None) is _rate_law:
            monkeypatch.setattr(module, "_rate_law", counted)
    assert model._rate_law is counted
    sol = solve_pde(params_for(ell=5.0, pe=0.5), SpatialGrid(ell=5.0, n_cells=20), t_end=0.5)
    assert sol.stats.nfev > 1
    assert len(bound) == 1


@pytest.mark.parametrize("m, n, n_cells, da, jac_format, q_e, abs_tol, t_end", [
    (1, 1, 20, 0.1, "dense", 0.7, 1e-9, 2.0), (1, 2, 32, 0.01, "sparse", 0.7, 1e-9, 2.0),
    (2, 3, 48, 0.1, "dense", 0.7, 1e-9, 2.0), (2, 3, 48, 0.007, "sparse", 0.7, 1e-9, 2.0),
    # steps rejected by the error estimate (110 steps, 23 factorisations)
    (1, 1, 20, 0.1, "dense", 0.7, 1e-6, 2.0),
    # steps halved after Newton fails at a fresh Jacobian (18 steps, 6 Jacobians)
    (2, 2, 20, 0.1, "dense", 0.99, 0.1, 5.0),
])
def test_bdf_matches_scipy_step_for_step(m, n, n_cells, da, jac_format, q_e, abs_tol, t_end,
                                         monkeypatch):
    # scipy's BDF with the same analytic Jacobian takes the same steps, makes
    # the same evaluations and factorisations, and samples the same fields.
    # scipy raises an rtol below 100 ulps of 1 to that floor, and a clean
    # column's zero entries need a positive atol for an error scale
    assert pde.REL_TOL >= 100 * sys.float_info.epsilon and pde.ABS_TOL > 0.0
    p = params_for(m=m, n=n, q_e=q_e, pe=0.5, da=da, ell=5.0)
    grid = SpatialGrid(ell=5.0, n_cells=n_cells)
    times = np.linspace(0.0, t_end, 9)
    monkeypatch.setattr("adsorb.pde.ABS_TOL", abs_tol)
    sol = solve_pde(p, grid, t_end=t_end, sample_times=times)

    def jac(_t, z):
        dense = dense_jacobian(p, grid, z)
        return sparse.csc_matrix(dense) if jac_format == "sparse" else dense

    column = _Column(p, grid)
    ref = solve_ivp(lambda _t, z: assemble_rhs(z, column), (0.0, t_end),
                    np.zeros(2 * n_cells - 2), method="BDF", jac=jac, rtol=pde.REL_TOL,
                    atol=abs_tol, t_eval=times, dense_output=True)
    assert ref.success
    steps = ref.sol.ts.size - 1
    assert (sol.stats.steps, sol.stats.nfev, sol.stats.njev, sol.stats.nlu) == \
        (steps, ref.nfev, ref.njev, ref.nlu)
    k = n_cells - 2
    assert_allclose(sol.c[:, 1:-1], ref.y[:k].T, rtol=1e-10, atol=1e-14)
    assert_allclose(sol.q, ref.y[k:].T, rtol=1e-10, atol=1e-14)


@pytest.mark.skipif(pde._numpy_tridiagonal_lapack() is None,
                    reason="numpy's build exports no dgttrf, so scipy's is the only route")
@pytest.mark.parametrize("pivots", [False, True], ids=["dominant", "row-interchanges"])
def test_numpy_lapack_binding_is_scipys_bit_for_bit(pivots):
    # the column's buffers bound to numpy's OpenBLAS give scipy's factors,
    # pivots and solution exactly; a small diagonal forces row interchanges
    column = _Column(params_for(ell=5.0, pe=0.5), SpatialGrid(ell=5.0, n_cells=40))
    rng = np.random.default_rng(3)
    k = column.k
    dl, du = rng.uniform(-1.0, 1.0, k - 1), rng.uniform(-1.0, 1.0, k - 1)
    b = rng.uniform(-1.0, 1.0, k)
    d = rng.uniform(-1.0, 1.0, k) * 1e-3 if pivots else 3.0 + rng.uniform(0.0, 1.0, k)
    column._dl[...], column._d[...], column._du[...] = dl, d, du
    column._dgttrf()
    *factors, info = dgttrf(dl, d, du)
    assert info == 0 == column._ints[2]
    for bound, reference in zip((column._dl, column._d, column._du, column._du2, column._ipiv),
                                factors):
        assert np.array_equal(bound, reference)
    assert np.any(column._ipiv != np.arange(1, k + 1)) == pivots
    column._b[...] = b
    column._dgttrs()
    x, info = dgttrs(*factors, b)
    assert info == 0 == column._ints[2]
    assert np.array_equal(column._b, x)


def test_scipy_fallback_solves_the_column_bit_for_bit(monkeypatch):
    # where numpy exports no dgttrf the column takes scipy's: same fields, same work
    p = params_for(m=2, n=3, ell=5.0, pe=0.5)
    grid = SpatialGrid(ell=5.0, n_cells=32)
    default = solve_pde(p, grid, t_end=2.0)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
    pde._numpy_tridiagonal_lapack.cache_clear()
    try:
        assert pde._numpy_tridiagonal_lapack() is None
        fallback = solve_pde(p, grid, t_end=2.0)
    finally:
        pde._numpy_tridiagonal_lapack.cache_clear()
    assert np.array_equal(fallback.c, default.c)
    assert np.array_equal(fallback.q, default.q)
    assert fallback.stats == default.stats


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3)])
def test_bound_buffers_change_no_bit(m, n, monkeypatch):
    # the Newton iteration closes the field and solves into buffers bound to
    # the column; a result that a later call overwrote through a shared
    # buffer would change the fields or the work against fresh copies
    p = params_for(m=m, n=n, ell=5.0, pe=0.5, da=0.007)
    grid = SpatialGrid(ell=5.0, n_cells=48)
    bound = solve_pde(p, grid, t_end=2.0)
    rhs, solve, calls = pde.assemble_rhs, _Column.solve, []

    def rhs_copy(state, column):
        calls.append("rhs")
        return rhs(state, column).copy()

    def solve_copy(column, lu, b):
        calls.append("solve")
        return solve(column, lu, b).copy()

    monkeypatch.setattr(pde, "assemble_rhs", rhs_copy)
    monkeypatch.setattr(_Column, "solve", solve_copy)
    copied = solve_pde(p, grid, t_end=2.0)
    assert calls.count("rhs") == copied.stats.nfev and calls.count("solve") > 0
    for name in ("c", "q", "breakthrough"):
        assert getattr(copied, name).tobytes() == getattr(bound, name).tobytes()
    assert copied.stats == bound.stats


@pytest.mark.parametrize("pe, da", [(0.5, 0.1), (0.1, 0.007)])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 3)])
def test_implicit_matches_explicit_reference(m, n, pe, da):
    # a tight explicit Runge-Kutta solve of the same semi-discrete system
    # is the reference for the implicit integrator's fields
    p = params_for(m=m, n=n, pe=pe, da=da, ell=5.0)
    grid = SpatialGrid(ell=5.0, n_cells=48)
    times = np.linspace(0.0, 2.0, 9)
    sol = solve_pde(p, grid, t_end=2.0, sample_times=times)
    column = _Column(p, grid)
    ref = solve_ivp(lambda _t, z: assemble_rhs(z, column), (0.0, 2.0),
                    np.zeros(2 * grid.n_cells - 2), method="RK45",
                    rtol=1e-10, atol=1e-12, t_eval=times)
    assert ref.success
    k = grid.n_cells - 2
    assert np.max(np.abs(sol.c[:, 1:-1] - ref.y[:k].T)) <= 1e-5
    assert np.max(np.abs(sol.q - ref.y[k:].T)) <= 1e-5
    assert sol.stats.time_method == "BDF"
    assert sol.stats.nfev > 0 and sol.stats.nlu > 0


def saturated_solution(t_end, sample_times):
    """The BDF integration of a saturated (1, 1) column (c = 1, q = q_e), as a PdeSolution.

    ``solve_pde`` starts from the clean column, so the saturated state is
    integrated by the solver's own ``_bdf``.
    """
    p = params_for(ell=10.0, pe=0.2)
    grid = SpatialGrid(ell=10.0, n_cells=64)
    column = _Column(p, grid)
    state = np.concatenate([np.ones(62), np.full(64, p.q_e)])
    samples, stats = pde._bdf(column, state, t_end, sample_times, pde.REL_TOL, pde.ABS_TOL)
    c = _full_field(samples[:, :62], column.w)
    return PdeSolution(grid=grid, times=sample_times, c=c, q=samples[:, 62:],
                       breakthrough=c[:, -1], params=p, stats=stats)


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
        sol = saturated_solution(t_end=50.0, sample_times=np.array([0.0, 25.0, 50.0]))
        p = sol.params
        assert np.max(np.abs(sol.c - 1.0)) <= 1e-9
        assert np.max(np.abs(sol.q - p.q_e)) <= 1e-9

    def test_warns_when_grid_underresolves_diffusion(self):
        p = params_for(ell=20.0, pe=0.01)
        grid = SpatialGrid(ell=20.0, n_cells=32)
        with pytest.warns(CellPecletWarning):
            solve_pde(p, grid, t_end=1e-6, sample_times=np.array([0.0, 1e-6]))

    def test_rejects_bad_sampling(self, monkeypatch):
        # refused before the column is integrated
        monkeypatch.setattr("adsorb.pde._bdf", lambda *args: pytest.fail("integrated"))
        p = params_for(ell=5.0, pe=0.5)
        grid = SpatialGrid(ell=5.0, n_cells=32)
        with pytest.raises(DomainError):
            solve_pde(p, grid, t_end=1.0, sample_times=np.array([0.0, 2.0]))
        with pytest.raises(DomainError):
            solve_pde(p, grid, t_end=0.0)
        with pytest.raises(DomainError, match="sample times"):
            solve_pde(p, grid, t_end=1.0, sample_times=np.array([]))

    def test_breakthrough_is_the_stored_outlet_column(self):
        # the clean column's outlet is exactly zero in c[0], and so in breakthrough[0]
        p = params_for(m=2, n=2, q_e=0.7, da=0.1, pe=0.5, ell=5.0)
        grid = SpatialGrid(ell=5.0, n_cells=32)
        sol = solve_pde(p, grid, t_end=0.5, sample_times=np.linspace(0.0, 0.5, 3))
        assert sol.c[0, -1] == 0.0 and sol.breakthrough[-1] > 0.0
        assert np.array_equal(sol.breakthrough, sol.c[:, -1])

    def test_collapsing_step_is_a_convergence_error(self):
        # at Da = 1e-300 the c rows' rate is finite, but its change over the
        # probe step overflows the error norm, so the first step is zero and
        # never reaches ten ulps of t
        p = params_for(m=2, n=2, da=1e-300, ell=5.0, pe=0.5)
        grid = SpatialGrid(ell=5.0, n_cells=20)
        with pytest.raises(ConvergenceError, match="step fell below"):
            solve_pde(p, grid, t_end=1.0)

    def test_non_finite_initial_rate_is_a_domain_error(self):
        # at q_e = 1 - 1e-10 the (40, 40) rate law overflows on the clean column
        p = params_for(m=40, n=40, q_e=1.0 - 1e-10, ell=5.0, pe=0.5)
        grid = SpatialGrid(ell=5.0, n_cells=40)
        with pytest.raises(DomainError, match="initial rate is not finite"):
            solve_pde(p, grid, t_end=1.0)

    def test_extreme_parameters_solve_or_raise_a_typed_error(self):
        # Da and Pe over 600 decades, q_e 0.7, 20 nodes: every column solves or
        # raises an AdsorptionError, and none lets a numpy warning out: every
        # warning but the cell-Peclet one is an error here.  The cases left out
        # take seconds each to integrate.
        extremes = (1e-300, 1e-150, 1e-30, 1e-8, 0.1, 1e8, 1e30, 1e150, 1e300)
        grid = SpatialGrid(ell=5.0, n_cells=20)
        outcomes = {}
        for (m, n), da, pe in itertools.product([(1, 1), (2, 3)], extremes, extremes):
            if pe in (1e8, 1e30) or m == 2 and da in (1e-30, 1e-8) and pe < 1e8:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.simplefilter("ignore", CellPecletWarning)
                try:
                    solve_pde(params_for(m=m, n=n, da=da, pe=pe, ell=5.0), grid, t_end=1.0)
                    outcomes[m, n, da, pe] = "solved"
                except AdsorptionError as exc:
                    outcomes[m, n, da, pe] = type(exc).__name__
        assert len(outcomes) == 116
        # the first step of these collapses to zero: a typed error, not a ZeroDivisionError
        assert all(outcomes[m, n, 1e-300, pe] == "ConvergenceError"
                   for m, n in [(1, 1), (2, 3)] for pe in extremes[:5])
        # Newton's iterates overflow in these, which ends each attempt unconverged
        # until the step collapses, with no "invalid value" report on the way
        assert outcomes[1, 1, 1e8, 1e150] == outcomes[2, 3, 1e8, 1e150] == "ConvergenceError"

    @pytest.mark.parametrize("m, n, da, pe", [
        (1, 1, 1e-300, 1e8), (2, 3, 1e-300, 1e300), (1, 1, 1e-8, 1e300)])
    def test_overflowing_transport_weights_are_refused(self, m, n, da, pe):
        # Pe / (h^2 Da) past the largest double: refused before the band would
        # form inf - inf, so with no errstate numpy has nothing to report
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="transport weights overflow at spacing .*, "
                                                  + re.escape(f"Pe {pe!r} and Da {da!r}")):
                solve_pde(params_for(m=m, n=n, da=da, pe=pe, ell=5.0),
                          SpatialGrid(ell=5.0, n_cells=20), t_end=1.0)

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
            c0, c_out = _full_field(c[1:-1], _Column(p, grid).w)[[0, -1]]
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

    def test_fitted_speeds_are_the_least_squares_slopes(self, front_speed_run):
        sol, _ = front_speed_run
        for level in (0.25, 0.5, 0.75):
            track = track_front(sol, level, (8.0, 16.0))
            assert_slope_is_polyfits(track, (8.0, 16.0), sol.grid.ell)

    def test_mass_audit_quadrature_is_scipys(self, front_speed_run, monkeypatch):
        # the numpy running trapezoid is scipy's cumulative_trapezoid, bit for bit
        sol, _ = front_speed_run
        audit = mass_balance_residual(sol)
        monkeypatch.setattr("adsorb.pde._running_trapezoid",
                            lambda y, t: cumulative_trapezoid(y, t, initial=0.0))
        assert np.array_equal(mass_balance_residual(sol), audit)

    def test_mass_audit_binds_no_lapack(self, front_speed_run, monkeypatch):
        # the audit reads the solver's closure without building a column, so it
        # binds no LAPACK routine it would never call (nor imports scipy for one)
        sol, _ = front_speed_run
        audit = mass_balance_residual(sol)

        def refuse(self):
            raise AssertionError("the mass audit bound LAPACK")

        monkeypatch.setattr(_Column, "_bind_lapack", refuse)
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


@pytest.mark.parametrize("pe", [0.02, 0.05, 0.1, 0.3, 0.6, 1.0])
def test_outlet_window_matches_travelling_wave_across_pe(pe):
    # the reference column, with cell Peclet number spacing/Pe below 1 and a
    # horizon past the front's crossing time ell (q_e + Da)
    p = nondimensionalize(column_physical(), pe=pe)
    grid = SpatialGrid(ell=p.ell, n_cells=max(400, math.ceil(p.ell / pe) + 1))
    t_end = 1.2 * p.ell * (p.q_e + p.da)
    sol = solve_pde(p, grid, t_end=t_end, sample_times=np.linspace(0.0, t_end, 2001))
    pde_window = breakthrough_time(sol, 1e-2) - breakthrough_time(sol, 1e-4)
    wave_window = breakthrough_window_time(solve_full_wave(p))
    assert pde_window == pytest.approx(wave_window, rel=5e-3)


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

    def test_near_saturation_corner_where_alpha_rounds_to_one(self):
        # the reference corner q_e 0.99993 with n = 4: alpha is 1.0 in double
        # precision, and the factored rate law never forms 1 - alpha
        p = params_for(q_e=0.99993, da=0.007, pe=0.1, m=1, n=4, ell=19.0)
        assert p.alpha == 1.0
        grid = SpatialGrid(ell=p.ell, n_cells=400)
        sol = solve_pde(p, grid, t_end=10.0, sample_times=np.linspace(0.0, 10.0, 101))
        assert mass_balance_residual(sol).max() < 1e-3


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

    def test_speed_is_the_least_squares_slope_of_random_samples(self):
        # a ramp whose front sits at a random position at each of 40 random
        # times, around a drift of random speed
        rng = np.random.default_rng(17)
        grid = SpatialGrid(ell=20.0, n_cells=201)
        for _ in range(20):
            times = np.sort(rng.uniform(0.0, 10.0, 40))
            fronts = 2.0 + rng.uniform(0.2, 1.5) * times + rng.normal(0.0, 0.3, times.size)
            c = np.clip(1.0 - 0.5 * (grid.nodes[None, :] - fronts[:, None]), 0.0, 1.0)
            sol = PdeSolution(grid=grid, times=times, c=c, q=np.zeros_like(c),
                              breakthrough=c[:, -1], params=params_for(pe=0.1, ell=20.0))
            window = (rng.uniform(0.0, 4.0), rng.uniform(6.0, 10.0))
            assert_slope_is_polyfits(track_front(sol, 0.5, window), window, grid.ell)

    def test_level_never_crossed(self):
        sol, _ = self.synthetic_ramp_solution()
        with pytest.raises(CoverageError, match="cannot fit a speed"):
            track_front(sol, 0.999999, (1.0, 1.2))

    def test_validation(self):
        sol, _ = self.synthetic_ramp_solution()
        with pytest.raises(DomainError):
            track_front(sol, 1.5, (1.0, 9.0))
        with pytest.raises(DomainError):
            track_front(sol, 0.5, (9.0, 1.0))


def assert_slope_is_polyfits(track, window, ell):
    """The track's speed is numpy's least-squares line through its in-window samples."""
    ts, xs = np.array([(t, pos * ell) for t, pos in track.positions
                       if window[0] <= t <= window[1]]).T
    assert ts.size >= 10
    assert track.fitted_speed == pytest.approx(np.polyfit(ts, xs, 1)[0], rel=1e-13, abs=0.0)


def _solution(times=(0.0, 1.0), c=None):
    """A 16-node PdeSolution of the given fields; by default c = t / max t everywhere."""
    times = np.asarray(times, dtype=float)
    c = np.outer(times / times.max(), np.ones(16)) if c is None else c
    return PdeSolution(grid=SpatialGrid(ell=5.0, n_cells=16), times=times, c=c,
                       q=np.zeros((times.size, 16)), breakthrough=c[:, -1],
                       params=params_for(ell=5.0, pe=0.5))


@pytest.mark.parametrize("refused,message", [
    (lambda: _solution(c=np.zeros((2, 15))), "field shapes must be"),
    (lambda: _solution(times=(1.0, 0.5)), "sample times must increase strictly"),
    (lambda: breakthrough_time(_solution(), 0.0), "threshold must lie in"),
    (lambda: breakthrough_time(_solution(), 1.0), "threshold must lie in"),
    (lambda: track_front(_solution(), 1.5, (0.0, 1.0)), r"^level must lie in \(0, 1\), got 1\.5$"),
    (lambda: mass_balance_residual(_solution(times=(1.0,))), "at least two sample instants"),
], ids=["field-shape", "times-order", "threshold-zero", "threshold-one",
        "level-outside", "single-instant"])
def test_refusal_names_the_value(refused, message):
    with pytest.raises(DomainError, match=message):
        refused()


class TestBreakthroughTime:
    def test_outlet_above_threshold_at_the_first_sample(self):
        sol = _solution(times=(2.0, 3.0, 4.0), c=np.full((3, 16), 0.5))
        assert breakthrough_time(sol, 0.25) == 2.0

    def test_threshold_never_reached(self, front_speed_run):
        sol, _ = front_speed_run
        with pytest.raises(CoverageError):
            breakthrough_time(sol, 0.9)

    def test_saturated_steady_state_audit(self):
        sol = saturated_solution(t_end=20.0, sample_times=np.linspace(0.0, 20.0, 11))
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
