"""Method-of-lines solver for the nondimensional column model.

Space is discretized with second-order central differences on a uniform grid
over [0, ell]; the flux-matching inlet condition c - Pe c_x = 1 and the
zero-gradient outlet condition are imposed through second-order one-sided
stencils that eliminate the boundary values, so the evolved unknowns are the
interior concentrations plus the adsorbed fraction at every node.

The ``c`` rows are divided by Da, which makes the system stiff for small Da,
so time integration is implicit: variable-order BDF with the analytic sparse
Jacobian of the semi-discrete system, each Newton matrix factorised by sparse
LU.  The Jacobian is the chain rule of the boundary closure: the constant
stencil acts on the full field through the closure map from the interior
concentrations, and the rate law's partials r_c and r_q enter at every node.
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .errors import (
    CellPecletWarning,
    CoverageError,
    DomainError,
    FrontNotFoundError,
    StiffnessError,
)
from .model import DimensionlessParameters, _rate_law, _uptake
from .stats import IntegratorStats, PdeSolverSettings

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
    dq = _uptake(c, q, params)
    cxx = (c[:-2] - 2.0 * c[1:-1] + c[2:]) / (h * h)
    cx = (c[2:] - c[:-2]) / (2.0 * h)
    dc_int = (params.pe * cxx - cx - dq[1:-1]) / params.da
    return np.concatenate([dc_int, dq])


def _jacobian(params: DimensionlessParameters, grid: SpatialGrid):
    """The exact Jacobian of ``assemble_rhs`` over the state, as ``jac(t, state)``.

    ``assemble_rhs`` reads the full field c = E c_interior + const.  The
    closure map E is the identity on the interior nodes plus the eliminated
    boundaries' weights, 4w/(1+3w), -w/(1+3w) at the inlet (w = Pe/(2h)) and
    4/3, -1/3 at the outlet.  The c rows apply the stencil L to that field and
    subtract the rate r(c, q) at the interior nodes P, all over Da; the q rows
    are r itself.  By the chain rule

        J = [[L E / Da, 0], [0, 0]] + [[-P/Da, -P/Da], [I, I]] diag(r_c, r_q) D,

    with D = blockdiag(E, I) the derivative of (c, q) over the state.  The
    constant factors are built once; each call evaluates r_c and r_q on the
    full field and scales the rows of D by them.
    """
    n = grid.n_cells
    k = n - 2  # interior concentrations lead the state; q at every node follows
    h, pe, da = grid.spacing, params.pe, params.da
    w = pe / (2.0 * h)
    ends = np.zeros((2, k))
    ends[0, :2] = np.array([4.0 * w, -w]) / (1.0 + 3.0 * w)  # d c_0 / d (c_1, c_2)
    ends[1, -2:] = np.array([-1.0, 4.0]) / 3.0              # d c_N / d (c_{N-2}, c_{N-1})
    closure = sparse.vstack([ends[:1], sparse.eye(k), ends[1:]])  # E
    stencil = sparse.diags([(pe / h + 0.5) / (h * da), -2.0 * pe / (h * h * da),
                            (pe / h - 0.5) / (h * da)], [0, 1, 2], shape=(k, n))  # L / Da
    transport = sparse.block_diag([stencil @ closure, sparse.csc_matrix((n, n))], format="csc")
    interior = sparse.eye(k, n, 1) / -da  # -P / Da
    nodes = sparse.eye(n)
    gather = sparse.bmat([[interior, interior], [nodes, nodes]], format="csc")
    state_map = sparse.block_diag([closure, nodes], format="csc")  # D
    _, r_q, r_c = _rate_law(params)

    def jac(_t, state):
        c = _full_field(state[:k], params, grid)
        q = state[k:]
        rates = np.concatenate([r_c(c, q), r_q(c, q)])
        # diag(r_c, r_q) D: the index of a CSC entry is its row
        scaled = sparse.csc_matrix((state_map.data * rates[state_map.indices], state_map.indices,
                                    state_map.indptr), shape=state_map.shape)
        return transport + gather @ scaled

    return jac


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
        (0.0, t_end), state0, method=TIME_METHOD, jac=_jacobian(params, grid),
        rtol=settings.rel_tol, atol=settings.abs_tol, t_eval=sample_times,
    )
    # scipy's solver holds itself in reference cycles (its counting wrappers), so
    # the finished solver, with its Jacobian and LU factors, waits for the cyclic
    # collector.  Collecting the young generations frees it now.  Left to the
    # collector, finished solvers fragmented the heap of a process running many
    # solves: on a 2-vCPU VM a 20 s perfbench column run peaked at 139-169 MB,
    # growing ~0.7 MB per pass, against 91 MB with this collection.
    gc.collect(1)
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


def _running_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ``y`` over ``t`` from t[0] to every t[i]."""
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


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
    cum_in = _running_trapezoid(inlet, sol.times)
    cum_out = _running_trapezoid(outlet, sol.times)
    drift = np.abs(cum_in - cum_out - (storage - storage[0]))
    return drift / np.maximum(cum_in, 1e-12)
