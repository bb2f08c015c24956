"""Method-of-lines solver for the nondimensional column model.

Space is discretized with second-order central differences on a uniform grid
over [0, ell]; the flux-matching inlet condition c - Pe c_x = 1 and the
zero-gradient outlet condition are imposed through second-order one-sided
stencils that eliminate the boundary values, so the evolved unknowns are the
interior concentrations plus the adsorbed fraction at every node.

One private ``_Column``, built once per solve from (params, grid), holds
the semi-discretisation: the boundary closure, the transport stencil and the
bound rate law.  The ``c`` rows are the transport in difference form,
west (c[i-1] - c[i]) + east (c[i+1] - c[i]), minus the rate over Da: the
central-difference (Pe c_xx - c_x)/Da, exactly zero on a constant field.
The right-hand side ``assemble_rhs``, the Jacobian's band and the
solution's boundary values all read that one column; the boundary closure
is the function ``_full_field``, which the mass audit calls without a column.

The ``c`` rows are divided by Da, which makes the system stiff for small Da,
so time integration is implicit: the variable-order BDF of scipy's ``BDF``,
ported step for step, with the analytic Jacobian of the semi-discrete system.
The Jacobian is the chain rule of the boundary closure: the constant stencil
acts on the full field through the closure map from the interior
concentrations, and the rate law's partials r_c and r_q enter at every node.
Each Newton matrix is solved through that structure: its q block is
diagonal, so eliminating q leaves a tridiagonal system in the interior
concentrations, which LAPACK's dgttrf factors.  The solver calls dgttrf and
dgttrs in the OpenBLAS that numpy's wheels bundle; where numpy's build does
not export them, it runs ``_gttrf`` and ``_gtts2``, a port of reference
LAPACK's two routines that gives the doubles of a LAPACK built without
fused multiply-add contraction, more slowly.  numpy is the only
dependency.
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CellPecletWarning, ConvergenceError, CoverageError, DomainError
from .model import (
    DimensionlessParameters,
    _rate_law,
    _require_fraction,
    _require_integer,
    _require_positive,
    _require_sizable,
)
from .stats import (
    _MAX_FACTOR,
    _MIN_FACTOR,
    IntegratorStats,
    _initial_step,
    _newton_tol,
    _probe_step,
)

TIME_METHOD = "BDF"  # implicit variable-order BDF; the Da-scaled c rows are stiff
# the BDF's tolerances, scipy's rtol and atol, read at each solve.  REL_TOL stays at
# least 100 ulps of 1, below which the BDF error estimate is roundoff, and
# ABS_TOL positive: the entries of a clean column are exactly zero, and without
# ABS_TOL their error scale would be zero too
REL_TOL, ABS_TOL = 1e-6, 1e-9


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node grid over the column, endpoints included."""

    ell: float
    n_cells: int

    def __post_init__(self):
        _require_positive(ell=self.ell)
        _require_integer("n_cells", self.n_cells)
        if self.n_cells < 16:
            raise DomainError(f"need at least 16 nodes, got {self.n_cells}")
        # the state, 2 n_cells - 2 floats: c at the interior nodes, q at every node
        _require_sizable("n_cells", self.n_cells, 2 * int(self.n_cells) - 2)

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


@functools.cache
def _numpy_tridiagonal_lapack():
    """LAPACK's dgttrf and dgttrs in the OpenBLAS that numpy loads, or None.

    numpy's pip wheels bundle an ILP64 OpenBLAS, whose integers are int64,
    and it exports the two as ``scipy_dgttrf_64_`` and ``scipy_dgttrs_64_``.
    dlsym on the handle of numpy's own extension searches the libraries that
    extension links, so the bundled library's file name is not needed.  Other
    numpy builds (conda with MKL, Accelerate on macOS arm64, distribution
    packages, and probably Windows, whose OpenBLAS is a DLL of its own) need
    not export them there; they give None, and the column runs the port
    ``_gttrf`` and ``_gtts2`` in their place.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        dgttrf, dgttrs = lib.scipy_dgttrf_64_, lib.scipy_dgttrs_64_
    except (OSError, AttributeError):  # not loadable as a library, or no such symbol
        return None
    # Fortran passes every argument by reference; dgttrs takes the length of
    # its character argument TRANS as a trailing hidden argument by value
    dgttrf.argtypes = [ctypes.c_void_p] * 7
    dgttrs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
    dgttrf.restype = dgttrs.restype = None
    return dgttrf, dgttrs


# Reference LAPACK's dgttrf and dgtts2 (the no-transpose solve that dgttrs
# runs for one right-hand side), operation for operation, on lists: the
# fallback where numpy exports no dgttrf.  Pivots are 1-based, as LAPACK's.

def _gttrf(dl, d, du):
    """LU with partial pivoting of the tridiagonal (dl, d, du), in place.

    Returns (dl, d, du, du2, ipiv): L's multipliers, U's three diagonals and
    the pivots.  A zero pivot is left in d, as LAPACK leaves it.
    """
    n = len(d)
    du2, ipiv = [0.0] * (n - 2), list(range(1, n + 1))
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):  # no row interchange
            if d[i] != 0.0:
                fact = dl[i] = dl[i] / d[i]
                d[i + 1] = d[i + 1] - fact * du[i]
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i], dl[i] = dl[i], fact
            du[i], d[i + 1] = d[i + 1], du[i] - fact * d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
            ipiv[i] = i + 2
    return dl, d, du, du2, ipiv


def _gtts2(dl, d, du, du2, ipiv, b):
    """The solution of A x = b from ``_gttrf``'s factors, in place of b."""
    n = len(d)
    for i in range(n - 1):  # L x = b, interchanging as the factorisation did
        if ipiv[i] == i + 1:
            b[i + 1] = b[i + 1] - dl[i] * b[i]
        else:
            b[i], b[i + 1] = b[i + 1], b[i] - dl[i] * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]  # U x = b
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return b


def _ieee(routine, *arrays):
    """``routine`` on the entries of ``arrays``, with LAPACK's IEEE results.

    Python floats round as doubles do, but a division by zero raises where
    IEEE gives an inf or a nan, and ``_newton`` tells the two apart.  On
    ``ZeroDivisionError`` the routine runs again from the arrays, on numpy
    scalars, which divide as IEEE does.
    """
    try:
        return routine(*(a.tolist() for a in arrays))
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            return routine(*(list(a) for a in arrays))


def _close(c: np.ndarray, c_interior: np.ndarray, w: float) -> np.ndarray:
    """Write the concentrations at every node into ``c`` and return it.

    ``w`` = Pe/(2h) weighs the inlet's one-sided stencil (see ``_Column``).
    The last axis of ``c_interior`` runs over the interior nodes, and that
    of ``c`` over every node; leading axes (for example sample times) carry
    through.  Every closed field, the solver's and the mass audit's, is
    written here.
    """
    by_node, inner = c.T, c_interior.T
    by_node[1:-1] = inner
    by_node[0] = (1.0 + w * (4.0 * inner[0] - inner[1])) / (1.0 + 3.0 * w)
    by_node[-1] = (4.0 * inner[-1] - inner[-2]) / 3.0
    return c


def _full_field(c_interior: np.ndarray, w: float) -> np.ndarray:
    """The concentrations at every node in a new array, the boundaries from the closure.

    ``solve_pde`` and the mass audit close their snapshots here, so the
    audit needs no ``_Column``.
    """
    return _close(np.empty(c_interior.shape[:-1] + (c_interior.shape[-1] + 2,)), c_interior, w)


class _Column:
    """The boundary closure, transport stencil and rate law of one solve's column.

    All are bound once from (params, grid).  The state is [c at the interior
    nodes, q at every node].  The eliminated boundary conditions, inlet
    c_0 - Pe (-3 c_0 + 4 c_1 - c_2)/(2h) = 1 and outlet
    (3 c_N - 4 c_{N-1} + c_{N-2})/(2h) = 0, both one-sided and second order,
    close the full field c = E c_interior + const (``_full_field``).
    The closure map E is the identity on the interior nodes plus the
    boundaries' weights, ``inlet`` = (4w, -w)/(1+3w) on (c_1, c_2) with
    w = Pe/(2h) and ``outlet`` = (-1/3, 4/3) on (c_{N-2}, c_{N-1}).

    With central differences, (Pe c_xx - c_x)/Da at interior node i is
    ``west`` (c[i-1] - c[i]) + ``east`` (c[i+1] - c[i]), with
    west = (Pe/h + 1/2)/(h Da) and east = (Pe/h - 1/2)/(h Da); the c rows
    subtract the rate r(c, q) at the interior nodes P over Da, and the q rows
    are r itself.  By the chain rule, with R_c and R_q the rate law's
    partials r_c and r_q on the diagonal,

        J = [[L E / Da - P R_c E / Da, -P R_q / Da], [R_c E, R_q]].

    L E / Da is a constant tridiagonal ``band`` over the interior c, so
    ``jacobian(state)`` is the pair (r_c, r_q) at every node.

    In the Newton matrix M = I - g J the q block 1 - g r_q is diagonal, and
    the c rows read q only at the interior nodes.  Eliminating q leaves, over
    the interior c,

        S = I - g L E / Da + diag(g r_c / (Da (1 - g r_q))),

    tridiagonal and strictly diagonally dominant while spacing/Pe < 2.
    ``factor`` runs LAPACK's dgttrf on S; ``solve`` runs dgttrs and
    back-substitutes q.  Both work in buffers bound to LAPACK, or to its
    port, once per column, so the factors of S live there, and each
    ``factor`` replaces the last one's: only the latest factorisation can be
    solved with.

    The Newton iteration allocates no state-sized array for the field or the
    solution either: ``assemble_rhs`` closes the field into the column's
    ``field`` and ``solve`` writes x into a buffer of its own, so each holds
    until the next call that writes it.
    """

    def __init__(self, params: DimensionlessParameters, grid: SpatialGrid):
        h, pe, da = grid.spacing, params.pe, params.da
        self.k = k = grid.n_cells - 2  # the number of interior nodes, where the state's c lives
        self.w = w = pe / (2.0 * h)
        self.inlet = np.array([4.0 * w, -w]) / (1.0 + 3.0 * w)  # d c_0 / d (c_1, c_2)
        self.outlet = np.array([-1.0, 4.0]) / 3.0              # d c_N / d (c_{N-2}, c_{N-1})
        self.west = west = (pe / h + 0.5) / (h * da)
        self.east = east = (pe / h - 0.5) / (h * da)
        if not (math.isfinite(west) and math.isfinite(east)):  # the band would hold inf - inf
            raise DomainError(f"the transport weights overflow at spacing {h!r}, Pe {pe!r} "
                              f"and Da {da!r}; check the parameters' range")
        # L / Da: west, -(west + east), east on the nodes i - 1, i, i + 1 of interior node i
        lower, main, upper = np.full(k - 1, west), np.full(k, -(west + east)), np.full(k - 1, east)
        main[0] += west * self.inlet[0]  # the first row reads c_0 through the closure
        upper[0] += west * self.inlet[1]
        lower[-1] += east * self.outlet[0]  # the last row reads c_N
        main[-1] += east * self.outlet[1]
        self.band = (lower, main, upper)
        self.da = da
        self.rate, self.rate_q, self.rate_c = _rate_law(params)
        # solve's x, whose c part _b is the Schur system's right-hand side and
        # solution; the closed field and a stencil temporary of assemble_rhs
        self._x = np.empty(2 * k + 2)
        self._b, self._x_q = self._x[:k], self._x[k:]
        self.field, self.stencil = np.empty(k + 2), np.empty(k)
        # the Schur system's diagonals, factors and pivots, and LAPACK's
        # integers n (= ldb), nrhs and info
        self._dl, self._d, self._du = np.empty(k - 1), np.empty(k), np.empty(k - 1)
        self._du2, self._ipiv = np.empty(k - 2), np.empty(k, dtype=np.int64)
        self._ints = np.array([k, 1, 0], dtype=np.int64)
        self._dgttrf, self._dgttrs = self._bind_lapack()

    def _bind_lapack(self):
        """dgttrf and dgttrs on the Schur buffers, in place, as calls without arguments.

        numpy's LAPACK where it exports them, else the port.
        """
        buffers = self._dl, self._d, self._du, self._du2, self._ipiv, self._b
        routines = _numpy_tridiagonal_lapack()
        if routines is None:
            dl, d, du, du2, ipiv, b = buffers

            def factor():
                dl[...], d[...], du[...], du2[...], ipiv[...] = _ieee(_gttrf, dl, d, du)

            def solve():
                b[...] = _ieee(_gtts2, dl, d, du, du2, ipiv, b)

            return factor, solve
        # the pointers hold no reference, so the column keeps every buffer alive
        ints = self._ints
        n, nrhs, info = (ctypes.c_void_p(ints.ctypes.data + i * ints.itemsize) for i in range(3))
        dl, d, du, du2, ipiv, b = (ctypes.c_void_p(a.ctypes.data) for a in buffers)
        dgttrf, dgttrs = routines
        return (functools.partial(dgttrf, n, dl, d, du, du2, ipiv, info),
                functools.partial(dgttrs, ctypes.c_char_p(b"N"), n, nrhs, dl, d, du, du2, ipiv,
                                  b, n, info, 1))

    def jacobian(self, state: np.ndarray):
        """The state-dependent part of J: (r_c, r_q) at every node."""
        c = _close(self.field, state[:self.k], self.w)
        q = state[self.k:]
        return self.rate_c(c, q), self.rate_q(c, q)

    def factor(self, jac, g: float):
        """M = I - g J at the Jacobian ``jac``, factored for ``solve``."""
        r_c, r_q = jac
        lower, main, upper = self.band
        q_diag = 1.0 - g * r_q
        take = g / (self.da * q_diag[1:-1])  # what the c rows take of the eliminated q, per r
        np.multiply(lower, -g, out=self._dl)
        self._d[...] = 1.0 - g * main + take * r_c[1:-1]
        np.multiply(upper, -g, out=self._du)
        self._dgttrf()
        g_r_c = g * r_c
        return q_diag, g_r_c[0], g_r_c[1:-1], g_r_c[-1], take * r_q[1:-1]

    def solve(self, lu, b: np.ndarray) -> np.ndarray:
        """The solution x of M x = b for the factored M, in the column's buffer.

        The buffer holds x until the next ``solve``.
        """
        q_diag, g_r_c_inlet, g_r_c, g_r_c_outlet, q_weight = lu
        k = self.k
        x, x_c, x_q = self._x, self._b, self._x_q
        # the Schur right-hand side b_c - (what the c rows take of b_q), solved in place
        np.multiply(q_weight, b[k + 1:-1], out=x_c)
        np.subtract(b[:k], x_c, out=x_c)
        self._dgttrs()
        # x_q = (b_q + g r_c E x_c) / (1 - g r_q), E x_c the change of the full field
        np.multiply(g_r_c, x_c, out=x_q[1:-1])
        x_q[0] = g_r_c_inlet * (self.inlet @ x_c[:2])
        x_q[-1] = g_r_c_outlet * (self.outlet @ x_c[-2:])
        x_q += b[k:]
        x_q /= q_diag
        return x


def assemble_rhs(state: np.ndarray, column: _Column) -> np.ndarray:
    """Time derivatives of the reduced state [c interior, q all nodes].

    dc/dt = west (c[i-1] - c[i]) + east (c[i+1] - c[i]) - (dq/dt)/Da on the
    column's full field, with dq/dt the column's rate law at every node.
    """
    k = column.k
    c = _close(column.field, state[:k], column.w)
    out = np.empty(state.size)
    dq = out[k:]
    dq[...] = column.rate(c, state[k:])
    dc = out[:k]
    centre = c[1:-1]
    np.subtract(c[:-2], centre, out=dc)
    dc *= column.west
    downstream = np.subtract(c[2:], centre, out=column.stencil)
    downstream *= column.east
    dc += downstream
    dc -= np.divide(dq[1:-1], column.da, out=downstream)
    return out


# The variable-order BDF of scipy's ``BDF``, step for step: the NDF of
# Shampine & Reichelt, "The MATLAB ODE Suite", SIAM J. Sci. Comput. 18 (1997),
# orders 1-5 on a quasi-constant step with the backward differences rescaled
# at every change of step, its initial step, its simplified Newton iteration,
# and its rule that the Jacobian is re-evaluated only when Newton fails.

_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
_GAMMA = np.hstack((0.0, np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1.0 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1.0 / np.arange(1, _MAX_ORDER + 2)


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5  # np.linalg.norm of a real vector, bit for bit


def _error_scale(y: np.ndarray, rtol: float, atol: float, out: np.ndarray) -> None:
    """atol + rtol |y|, the BDF's error scale at ``y``, into ``out``."""
    np.abs(y, out=out)
    out *= rtol
    out += atol


def _scaled_rms(const: float, x: np.ndarray, scale: np.ndarray, out: np.ndarray) -> float:
    """The RMS norm of const x / scale, formed in ``out``."""
    np.multiply(x, const, out=out)
    out /= scale
    return _rms(out)


def _step_map(order: int, factor: float) -> np.ndarray:
    """The map of the first order + 1 backward differences to step ratio ``factor``."""
    i = np.arange(1, order + 1)[:, None]
    j = np.arange(1, order + 1)
    m = np.zeros((order + 1, order + 1))
    m[1:, 1:] = (i - 1 - factor * j) / i
    m[0] = 1
    return np.cumprod(m, axis=0)


_UNIT_STEP_MAPS = tuple(_step_map(order, 1) for order in range(_MAX_ORDER + 1))  # by order


def _rescale(diffs: np.ndarray, order: int, factor: float) -> None:
    """Change the step of the backward differences ``diffs`` by ``factor``, in place."""
    ru = _step_map(order, factor).dot(_UNIT_STEP_MAPS[order])
    diffs[:order + 1] = np.dot(ru.T, diffs[:order + 1])


def _step_collapse(t: float, min_step: float) -> ConvergenceError:
    """The error for a BDF step below ``min_step`` at time ``t``."""
    return ConvergenceError(
        f"time integration failed at t = {float(t)!r}: the implicit step fell below "
        f"{float(min_step):.3g}; check the parameters' range, or refine the grid")


def _newton(column: _Column, y_predict, c, psi, lu, scale, tol):
    """Simplified Newton iteration for the BDF step's correction d.

    Returns (converged, iterations, y, d).  An iterate that overflows leaves
    a non-finite rate, which ends the iteration unconverged.
    """
    d = 0
    y = y_predict.copy()
    dy_norm_old = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_NEWTON_MAXITER):
            f = assemble_rhs(y, column)
            if not np.isfinite(f).all():
                break
            # f is the residual c f - psi - d, then dy / scale: solve reads it first
            f *= c
            f -= psi
            f -= d
            dy = column.solve(lu, f)
            dy_norm = _rms(np.divide(dy, scale, out=f))
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if rate is not None and (
                    rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dy_norm > tol):
                break
            y += dy
            d += dy
            if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < tol:
                return True, k + 1, y, d
            dy_norm_old = dy_norm
    return False, k + 1, y, d


def _bdf(column: _Column, y: np.ndarray, t_end: float, sample_times: np.ndarray,
         rtol: float, atol: float):
    """Integrate the column's y' = assemble_rhs(y, column) from t = 0 to t_end > 0.

    ``column`` evaluates the Jacobian and solves the Newton matrices.
    ``rtol`` is at least 100 ulps of 1, as REL_TOL is.
    Returns the states at ``sample_times``, one per row, read from the
    interpolating polynomial of the step that reaches each, and the work
    counters.  A non-finite initial rate raises ``DomainError``; a step
    below ten ulps of t, the first one included, raises ``ConvergenceError``.
    """
    t = 0.0
    # an overflow in the initial rate or its norm raises a typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        f = assemble_rhs(y, column)
        scale = atol + np.abs(y) * rtol
        d1 = _rms(f / scale)
    if not np.isfinite(f).all():
        raise DomainError(
            f"the initial rate is not finite in {np.count_nonzero(~np.isfinite(f))} of "
            f"{f.size} state entries; check the parameters' range")
    # initial step of Hairer, Norsett & Wanner I, Sec. II.4, for error order 1
    h0 = _probe_step(_rms(y / scale), d1, t_end)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _rms((assemble_rhs(y + h0 * f, column) - f) / scale) / h0
    h_abs = _initial_step(h0, d1, d2, t_end, 1)
    if h_abs == 0.0:  # the rate or its change over h0 overflows the error norm
        raise _step_collapse(t, 10 * math.nextafter(t, math.inf))
    newton_tol = _newton_tol(rtol)
    jac = column.jacobian(y)
    nfev, njev, nlu, steps = 2, 1, 0, 0
    diffs = np.zeros((_MAX_ORDER + 3, y.size))  # backward differences times step powers
    diffs[0] = y
    diffs[1] = f * h_abs
    order, n_equal_steps, lu = 1, 0, None
    # the predictor, the error scale and the scaled error of each step
    y_predict, scale, error = np.empty(y.size), np.empty(y.size), np.empty(y.size)
    samples = np.empty((sample_times.size, y.size))
    sampled = 0
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            _rescale(diffs, order, min_step / h_abs)
            h_abs, n_equal_steps = min_step, 0
        current_jac = False
        while True:
            if h_abs < min_step:
                raise _step_collapse(t, min_step)
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
                _rescale(diffs, order, (t_new - t) / h_abs)
                n_equal_steps, lu = 0, None
            h_abs = t_new - t
            np.add.reduce(diffs[:order + 1], axis=0, out=y_predict)
            _error_scale(y_predict, rtol, atol, scale)
            psi = np.dot(diffs[1:order + 1].T, _GAMMA[1:order + 1])
            psi /= _ALPHA[order]
            c = h_abs / _ALPHA[order]
            while True:
                if lu is None:
                    lu = column.factor(jac, c)
                    nlu += 1
                converged, n_iter, y_new, d = _newton(column, y_predict, c, psi, lu, scale,
                                                      newton_tol)
                nfev += n_iter
                if converged or current_jac:
                    break
                jac = column.jacobian(y_predict)
                njev += 1
                lu, current_jac = None, True
            if not converged:
                h_abs *= 0.5
                _rescale(diffs, order, 0.5)
                n_equal_steps, lu = 0, None
                continue
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            _error_scale(y_new, rtol, atol, scale)
            error_norm = _scaled_rms(_ERROR_CONST[order], d, scale, error)
            if error_norm <= 1:
                break
            factor = max(_MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _rescale(diffs, order, factor)
            n_equal_steps = 0  # Newton converged, so the factors stay

        steps += 1
        n_equal_steps += 1
        t, y = t_new, y_new
        # d is the (order + 1)-th difference of the new point, so the
        # differences of the new polynomial follow by summation
        np.subtract(d, diffs[order + 1], out=diffs[order + 2])
        diffs[order + 1] = d
        for i in reversed(range(order + 1)):
            diffs[i] += diffs[i + 1]
        if n_equal_steps >= order + 1:  # time to try the neighbouring orders
            error_m_norm = (_scaled_rms(_ERROR_CONST[order - 1], diffs[order], scale, error)
                            if order > 1 else np.inf)
            error_p_norm = (_scaled_rms(_ERROR_CONST[order + 1], diffs[order + 2], scale, error)
                            if order < _MAX_ORDER else np.inf)
            error_norms = np.array([error_m_norm, error_norm, error_p_norm])
            with np.errstate(divide="ignore"):
                factors = error_norms ** (-1 / np.arange(order, order + 3))
            order += int(np.argmax(factors)) - 1
            factor = min(_MAX_FACTOR, safety * float(factors.max()))
            h_abs *= factor
            _rescale(diffs, order, factor)
            n_equal_steps, lu = 0, None

        if sampled < sample_times.size and sample_times[sampled] <= t:
            reached = int(np.searchsorted(sample_times, t, side="right"))
            # the polynomial through the last order + 1 points, at the new step
            x = ((sample_times[sampled:reached] - (t - h_abs * np.arange(order))[:, None])
                 / (h_abs * (1 + np.arange(order)))[:, None])
            at = np.dot(diffs[1:order + 1].T, np.cumprod(x, axis=0))
            at += diffs[0, :, None]
            samples[sampled:reached] = at.T
            sampled = reached

    return samples, IntegratorStats(time_method=TIME_METHOD, nfev=nfev, njev=njev, nlu=nlu,
                                    steps=steps)


def solve_pde(params: DimensionlessParameters, grid: SpatialGrid, t_end: float,
              sample_times: np.ndarray | None = None) -> PdeSolution:
    """Integrate the column model from the clean column (c = q = 0) to ``t_end``.

    Snapshots at ``sample_times`` are taken from the integrator's dense
    output; a snapshot at t = 0 is the exact zero field, inlet node included.
    The integrator runs at the tolerances REL_TOL and ABS_TOL.
    """
    _require_positive(t_end=t_end)
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
    if sample_times.size < 1 or np.any(sample_times < 0.0) or np.any(sample_times > t_end) \
            or not np.all(np.diff(sample_times) > 0.0):
        raise DomainError("sample times must be given and increase strictly within [0, t_end]")

    n = grid.n_cells
    column = _Column(params, grid)
    samples, stats = _bdf(column, np.zeros(2 * n - 2), t_end, sample_times, REL_TOL, ABS_TOL)
    c = _full_field(samples[:, : n - 2], column.w)
    if sample_times[0] == 0.0:
        c[0] = 0.0
    return PdeSolution(grid=grid, times=sample_times, c=c, q=samples[:, n - 2:],
                       breakthrough=c[:, -1].copy(), params=params, stats=stats)


def breakthrough_time(sol: PdeSolution, threshold: float) -> float:
    """First time the outlet concentration reaches ``threshold`` (linear in t)."""
    _require_fraction(threshold=threshold)
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
    speed is the least-squares slope of x(t) over ``fit_window``, in closed
    form from the centred samples, sum (t - mean t)(x - mean x) over
    sum (t - mean t)^2 (divide by ell for the column-proportion speed).
    """
    _require_fraction(level=level)
    t_lo, t_hi = fit_window
    if not t_lo < t_hi:
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
        raise CoverageError(
            f"level {level!r} is crossed at {len(in_window)} sample times inside "
            f"{fit_window!r}; cannot fit a speed"
        )
    ts = np.array([t for t, _ in in_window])
    xs = np.array([p for _, p in in_window]) * sol.grid.ell
    dt = ts - ts.mean()
    # sample times so small that t^2 underflows leave no spread to divide by
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        spread = float(np.dot(dt, dt))
        covariance = float(np.dot(dt, xs - xs.mean()))
    speed = covariance / spread if 0.0 < spread < math.inf else math.nan
    if not math.isfinite(speed):
        raise CoverageError(
            f"level {level!r}: the least-squares speed fit over {fit_window!r} "
            f"failed (the sum of squared time offsets is {spread!r})"
        )
    return FrontTrack(level=level, positions=tuple(positions), fitted_speed=speed)


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
    c = _full_field(sol.c[:, 1:-1], pe / (2.0 * h)).T
    inlet = c[0] - pe * (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * h)
    outlet = c[-1] - pe * (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * h)
    storage = sol.params.da * np.trapezoid(c, x, axis=0) + np.trapezoid(sol.q, x, axis=1)
    cum_in = _running_trapezoid(inlet, sol.times)
    cum_out = _running_trapezoid(outlet, sol.times)
    drift = np.abs(cum_in - cum_out - (storage - storage[0]))
    return drift / np.maximum(cum_in, 1e-12)
