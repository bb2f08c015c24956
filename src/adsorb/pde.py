"""Method-of-lines solver for the nondimensional column model.

Space is discretized with second-order central differences on a uniform grid
over [0, ell]; the flux-matching inlet condition c - Pe c_x = 1 and the
zero-gradient outlet condition are imposed through second-order one-sided
stencils that eliminate the boundary values, so the evolved unknowns are the
interior concentrations plus the adsorbed fraction at every node.

The ``c`` rows are divided by Da, which makes the system stiff for small Da,
so time integration is implicit: variable-order BDF with finite-difference
Jacobians restricted to the stencil's sparsity pattern, each Newton matrix
factorised by sparse LU.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import cumulative_trapezoid, solve_ivp

from .errors import (
    CellPecletWarning,
    CoverageError,
    DomainError,
    FrontNotFoundError,
    StiffnessError,
)
from .model import DimensionlessParameters, _uptake

FIELD_TOL = 1e-6  # roundoff slack on the physical bounds of c and q
TIME_METHOD = "BDF"  # implicit variable-order BDF; the Da-scaled c rows are stiff


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node grid over the column, endpoints included."""

    ell: float
    n_cells: int

    def __post_init__(self):
        if not np.isfinite(self.ell) or self.ell <= 0.0:
            raise DomainError(f"ell must be positive, got {self.ell!r}")
        if self.n_cells < 16:
            raise DomainError(f"need at least 16 nodes, got {self.n_cells}")

    @property
    def spacing(self) -> float:
        return self.ell / (self.n_cells - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.ell, self.n_cells)


@dataclass(frozen=True)
class PdeSolverSettings:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9


@dataclass(frozen=True)
class IntegratorStats:
    """What the time integrator did: its method and its work counters."""

    time_method: str
    nfev: int  # right-hand-side evaluations outside the Jacobian estimates
    njev: int  # finite-difference Jacobians
    nlu: int   # LU factorisations


@dataclass(frozen=True)
class PdeSolution:
    """Space-time fields with the outlet breakthrough series."""

    grid: SpatialGrid
    times: np.ndarray
    c: np.ndarray            # (time, node)
    q: np.ndarray            # (time, node)
    breakthrough: np.ndarray  # c at the outlet per sample time
    params: DimensionlessParameters
    stats: IntegratorStats | None = None  # set by solve_pde

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        c = np.asarray(self.c, dtype=float)
        q = np.asarray(self.q, dtype=float)
        shape = (times.size, self.grid.n_cells)
        if c.shape != shape or q.shape != shape:
            raise DomainError(f"field shapes must be {shape}, got {c.shape} and {q.shape}")
        if times.size < 1 or not np.all(np.diff(times) > 0.0):
            raise DomainError("sample times must increase strictly")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "breakthrough", np.asarray(self.breakthrough, dtype=float))


@dataclass(frozen=True)
class FrontTrack:
    """Positions of a tracked concentration level and its fitted speed."""

    level: float
    positions: tuple[tuple[float, float], ...]  # (t, x/ell)
    fitted_speed: float
    fit_window: tuple[float, float]


def step_kinetics(c, q, params: DimensionlessParameters):
    """Attachment rate dq/dt = alpha c^m (1-q)^n - (1-alpha) q^n, in factored form.

    Evaluated as alpha (1-q_e)^n [c^m ((1-q)/(1-q_e))^n - (q/q_e)^n], the same
    law under the isotherm link, which is exactly zero at (0, 0) and (1, q_e).
    """
    return _uptake(c, q, params)


def reconstruct_boundaries(c_interior: np.ndarray, params: DimensionlessParameters,
                           grid: SpatialGrid):
    """Boundary concentrations implied by the eliminated stencil conditions.

    Inlet: c0 - Pe (-3 c0 + 4 c1 - c2)/(2h) = 1; outlet: (3 cN - 4 c_{N-1}
    + c_{N-2})/(2h) = 0, both one-sided and second order.  The last axis of
    ``c_interior`` runs over the interior nodes; leading axes (for example
    sample times) carry through to the returned (inlet, outlet) values.
    """
    h = grid.spacing
    pe = params.pe
    w = pe / (2.0 * h)
    c = c_interior.T
    c0 = (1.0 + w * (4.0 * c[0] - c[1])) / (1.0 + 3.0 * w)
    c_out = (4.0 * c[-1] - c[-2]) / 3.0
    return c0, c_out


def _full_field(c_interior: np.ndarray, params, grid) -> np.ndarray:
    c = np.empty(c_interior.shape[:-1] + (grid.n_cells,))
    by_node = c.T
    by_node[1:-1] = c_interior.T
    by_node[0], by_node[-1] = reconstruct_boundaries(c_interior, params, grid)
    return c


def assemble_rhs(state: np.ndarray, params: DimensionlessParameters,
                 grid: SpatialGrid) -> np.ndarray:
    """Time derivatives of the reduced state [c interior, q all nodes].

    dc/dt = (Pe c_xx - c_x - dq/dt)/Da with central differences; boundary
    concentrations are reconstructed from the stencil-eliminated conditions.
    """
    n = grid.n_cells
    h = grid.spacing
    c_int = state[: n - 2]
    q = state[n - 2:]
    c = _full_field(c_int, params, grid)
    dq = step_kinetics(c, q, params)
    cxx = (c[:-2] - 2.0 * c[1:-1] + c[2:]) / (h * h)
    cx = (c[2:] - c[:-2]) / (2.0 * h)
    dc_int = (params.pe * cxx - cx - dq[1:-1]) / params.da
    return np.concatenate([dc_int, dq])


def jacobian_sparsity(grid: SpatialGrid) -> sparse.csc_matrix:
    """Nonzero pattern of the Jacobian of ``assemble_rhs`` over the state.

    Row i of dc/dt (node i+1) reads the interior concentrations i-1..i+1 and
    q at node i+1; row j of dq/dt reads q and c at node j, which for an
    interior node is state entry j-1.  The eliminated boundary values depend
    only on the first and last two interior concentrations: the tridiagonal
    c-c block already covers them, and they add two entries each to the
    inlet and outlet rows of dq/dt.
    """
    n = grid.n_cells
    k = n - 2  # interior concentrations lead the state; q at every node follows
    ends = sparse.coo_matrix(
        (np.ones(4, dtype=bool), ([0, 0, n - 1, n - 1], [0, 1, k - 2, k - 1])), shape=(n, k))
    return sparse.bmat([
        [sparse.diags([1, 1, 1], [-1, 0, 1], shape=(k, k), dtype=bool),
         sparse.eye(k, n, k=1, dtype=bool)],
        [sparse.eye(n, k, k=-1, dtype=bool) + ends, sparse.eye(n, dtype=bool)],
    ], format="csc")


def solve_pde(params: DimensionlessParameters, grid: SpatialGrid, t_end: float,
              sample_times: np.ndarray | None = None,
              initial: tuple[np.ndarray, np.ndarray] | None = None,
              settings: PdeSolverSettings | None = None) -> PdeSolution:
    """Integrate the column model to ``t_end`` with snapshots at ``sample_times``.

    The default initial state is a clean column (c = q = 0); a custom
    ``initial`` supplies full-length (c, q) node values.  Snapshots are taken
    from the integrator's dense output; the first stored instant keeps the
    initial data verbatim.
    """
    settings = settings or PdeSolverSettings()
    if not np.isfinite(t_end) or t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end!r}")
    if params.pe == 0.0 or grid.spacing / params.pe >= 2.0:
        warnings.warn(
            f"cell Peclet number spacing/Pe = "
            f"{np.inf if params.pe == 0.0 else grid.spacing / params.pe:.3g} >= 2; "
            "central differences may oscillate, use a finer grid",
            CellPecletWarning, stacklevel=2,
        )
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 201)
    sample_times = np.asarray(sample_times, dtype=float)
    if np.any(sample_times < 0.0) or np.any(sample_times > t_end) \
            or not np.all(np.diff(sample_times) > 0.0):
        raise DomainError("sample times must increase strictly within [0, t_end]")

    n = grid.n_cells
    if initial is None:
        c0_full = np.zeros(n)
        q0_full = np.zeros(n)
    else:
        c0_full = np.asarray(initial[0], dtype=float).copy()
        q0_full = np.asarray(initial[1], dtype=float).copy()
        if c0_full.shape != (n,) or q0_full.shape != (n,):
            raise DomainError(f"initial fields must have shape ({n},)")
        if not (np.all(np.isfinite(c0_full)) and np.all(np.isfinite(q0_full))):
            raise DomainError("initial fields must be finite")
    state0 = np.concatenate([c0_full[1:-1], q0_full])

    sol = solve_ivp(
        lambda _t, z: assemble_rhs(z, params, grid),
        (0.0, t_end), state0, method=TIME_METHOD, jac_sparsity=jacobian_sparsity(grid),
        rtol=settings.rel_tol, atol=settings.abs_tol, t_eval=sample_times,
    )
    if sol.status == -1:
        raise StiffnessError(
            f"time integration failed ({sol.message}): the implicit step size collapsed; "
            "check that the initial fields are physical, or refine the grid"
        )

    c = _full_field(sol.y[: n - 2].T, params, grid)
    breakthrough = c[:, -1].copy()
    if sample_times[0] == 0.0:
        c[0] = c0_full
    stats = IntegratorStats(time_method=TIME_METHOD, nfev=int(sol.nfev),
                            njev=int(sol.njev), nlu=int(sol.nlu))
    return PdeSolution(grid=grid, times=sample_times, c=c, q=sol.y[n - 2:].T,
                       breakthrough=breakthrough, params=params, stats=stats)


def breakthrough_time(sol: PdeSolution, threshold: float) -> float:
    """First time the outlet concentration reaches ``threshold`` (linear in t)."""
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {threshold!r}")
    b = sol.breakthrough
    above = np.nonzero(b >= threshold)[0]
    if above.size == 0:
        raise CoverageError(f"outlet never reaches {threshold!r} within the sampled horizon")
    k = above[0]
    if k == 0:
        return float(sol.times[0])
    t0, t1 = sol.times[k - 1], sol.times[k]
    b0, b1 = b[k - 1], b[k]
    return float(t0 + (threshold - b0) * (t1 - t0) / (b1 - b0))


def track_front(sol: PdeSolution, level: float,
                fit_window: tuple[float, float]) -> FrontTrack:
    """Follow the x-position where c crosses ``level`` and fit its speed.

    Crossings are located by linear interpolation between adjacent nodes; the
    speed is the least-squares slope of x(t) over ``fit_window`` (divide by
    ell for the column-proportion speed).
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level!r}")
    t_lo, t_hi = fit_window
    if t_hi <= t_lo:
        raise DomainError(f"empty fit window {fit_window!r}")
    x = sol.grid.nodes
    positions: list[tuple[float, float]] = []
    for k, t in enumerate(sol.times):
        row = sol.c[k]
        if row[0] < level:
            continue
        below = np.nonzero(row < level)[0]
        if below.size == 0:
            continue
        j = below[0]
        x_level = x[j - 1] + (row[j - 1] - level) * (x[j] - x[j - 1]) / (row[j - 1] - row[j])
        positions.append((float(t), float(x_level / sol.grid.ell)))
    in_window = [(t, p) for t, p in positions if t_lo <= t <= t_hi]
    if len(in_window) < 2:
        raise FrontNotFoundError(
            f"level {level!r} is crossed at {len(in_window)} sample times inside "
            f"{fit_window!r}; cannot fit a speed"
        )
    ts = np.array([t for t, _ in in_window])
    xs = np.array([p for _, p in in_window]) * sol.grid.ell
    speed = float(np.polyfit(ts, xs, 1)[0])
    return FrontTrack(level=level, positions=tuple(positions),
                      fitted_speed=speed, fit_window=(float(t_lo), float(t_hi)))


def mass_balance_residual(sol: PdeSolution) -> np.ndarray:
    """Relative drift of the integral balance, per sample instant.

    Compares the cumulative boundary fluxes (c - Pe c_x, evaluated with the
    same one-sided stencils the solver enforces) against the change of the
    stored mass Da int c dx + int q dx, normalized by the cumulative inflow.
    Boundary values are re-derived from the interior so the audit measures the
    scheme, not the stored snapshots.
    """
    if sol.times.size < 2:
        raise DomainError("need at least two sample instants")
    x = sol.grid.nodes
    pe = sol.params.pe
    h = sol.grid.spacing
    c = _full_field(sol.c[:, 1:-1], sol.params, sol.grid).T
    inlet = c[0] - pe * (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * h)
    outlet = c[-1] - pe * (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * h)
    storage = sol.params.da * np.trapezoid(c, x, axis=0) + np.trapezoid(sol.q, x, axis=1)
    cum_in = cumulative_trapezoid(inlet, sol.times, initial=0.0)
    cum_out = cumulative_trapezoid(outlet, sol.times, initial=0.0)
    drift = np.abs(cum_in - cum_out - (storage - storage[0]))
    return drift / np.maximum(cum_in, 1e-12)
