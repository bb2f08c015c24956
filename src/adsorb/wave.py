"""Travelling-wave front profiles for the adsorption column.

In the frame eta = x - v t the column model reduces to a second-order ODE for
the fluid concentration F(eta) whose heteroclinic connection from F = 1
(saturated, upstream) to F = 0 (clean, downstream) is the moving front.  The
inverse Peclet number multiplies the highest derivative, so the system is
slow-fast: for Pe = 0 the front solves the first-order equation F' = h0(F)
whose phase curve is the critical slow set, and for Pe > 0 the connection lies
on the attracting slow manifold, within O(Pe) of that set.

F decreases strictly along every front, so a front is the graph eta(F).  Both
solvers compute it on the log-odds axis z = ln(F / (1 - F)) as

    eta(z) = integral from 0 to z of F (1 - F) / F' dz',

which anchors F(0) = 1/2 exactly and is sampled on a uniform z grid: uniform
in eta across the logistic core, geometric in F (or 1 - F) in algebraic
tails.  Each side runs outward from z = 0 until F is within F_STOP of its
far-field state and |eta| >= ETA_SPAN, except that the saturated side stops
by z = Z_HEAD, where 1 - F is about 1e-13 and finer steps in 1 - F no longer
differ in double precision.

For Pe = 0, F' = h0(F) and the integral is a plain quadrature.  For Pe > 0,
F' comes from one scalar leg that integrates w = ln(-F') over z from the seed
F = F_STOP next to the clean state up to 1 - F = F_STOP, so over [-Z_STOP,
Z_STOP].  Increasing z is backward eta, the only stable direction: in forward
eta the layer dynamics repel trajectories from the slow manifold at rate
q_e v / Pe.  The clean state's linearisation sets the seed slope and F' below
the seed, in ``_leg_field``; past the leg's end F' = h0(F).  The leg stays
stiff at any Pe once the clean state is degenerate (layer rate O(1) against an
unbounded slow crawl), so it is integrated implicitly, by the Radau IIA scheme
of order 5 written out for one equation in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, CoverageError, DomainError, ExistenceError
from .model import DimensionlessParameters, _rate_law, analyze_equilibria
from .stats import (
    _MAX_FACTOR,
    _MIN_FACTOR,
    IntegratorStats,
    _initial_step,
    _newton_tol,
    _probe_step,
)

F_ENDPOINT_TOL = 1e-4      # far-field closeness required of a returned profile
NORMALIZATION_TOL = 1e-8   # largest |F(0) - 1/2| of a profile

F_STOP = 1e-6              # distance from a far-field state where a front may end; the leg's seed
Z_STOP = math.log((1.0 - F_STOP) / F_STOP)  # |z| where F is within F_STOP of a far field
Z_STEP = 0.01              # sample spacing in z; eta spacing 0.018 on the q_e = 0.7 logistic
ETA_SPAN = 22.0            # half-window around F(0) = 1/2, short only at z = Z_HEAD
# z limits of the saturated and clean sides: past z = 30 samples 1% apart in
# 1 - F round to the same double; past z = -708, F = e^z leaves the normal doubles
Z_HEAD = 30.0
Z_TAIL = -690.0
# the Pe > 0 leg's tolerances, scipy's rtol and atol; read at each solve
REL_TOL, ABS_TOL = 1e-8, 1e-10


@dataclass(frozen=True)
class WaveProfile:
    """Sampled front profile (eta, F, G) with its velocity, normalized to F(0) = 1/2.

    eta increases strictly and F decreases strictly, inside (0, 1), from the
    saturated to the clean state.  Both read-outs interpolate on the log-odds
    axis z = ln(F / (1 - F)) by one cubic Hermite through the samples: eta(z)
    with the slopes ``deta_dz`` and its inverse z(eta) with the slopes
    1 / ``deta_dz``.  The solvers pass the slopes of their quadrature; without
    them the slopes are Fritsch-Carlson's.  Arrays are treated as immutable
    once constructed, so the interpolants are built once, on first use.
    ``stats`` holds the work counters of the Pe > 0 leg.
    """

    eta: np.ndarray
    f: np.ndarray
    g: np.ndarray
    velocity: float
    pe: float
    stats: IntegratorStats | None = None
    deta_dz: np.ndarray | None = None

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        f = np.asarray(self.f, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if not (eta.shape == f.shape == g.shape) or eta.ndim != 1 or eta.size < 4:
            raise DomainError("profile arrays must be equal-length 1-d with >= 4 samples")
        if not np.all(np.diff(eta) > 0.0):
            raise DomainError("eta samples must increase strictly")
        if not np.all(np.diff(f) < 0.0):
            raise DomainError("F samples must decrease strictly")
        if f[0] <= 1.0 - F_ENDPOINT_TOL or f[-1] >= F_ENDPOINT_TOL:
            raise DomainError(
                f"profile does not span the far-field states: F in [{f[-1]!r}, {f[0]!r}]"
            )
        if not (0.0 < f[-1] and f[0] < 1.0):
            raise DomainError("F must lie inside (0, 1), where its log-odds are finite")
        if self.deta_dz is not None:
            deta_dz = np.asarray(self.deta_dz, dtype=float)
            if deta_dz.shape != eta.shape:
                raise DomainError("deta_dz must have one slope per sample")
            object.__setattr__(self, "deta_dz", deta_dz)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        f_mid = float(_expit(self._z_of_eta(0.0)))
        if not abs(f_mid - 0.5) < NORMALIZATION_TOL:
            raise DomainError(f"profile has F(0) = {f_mid!r}, expected 1/2")

    @property
    def window(self) -> tuple[float, float]:
        return float(self.eta[0]), float(self.eta[-1])

    @cached_property
    def _z(self) -> np.ndarray:
        return _logit(self.f)

    @cached_property
    def _slopes(self) -> np.ndarray:
        return _monotone_slopes(self._z, self.eta) if self.deta_dz is None else self.deta_dz

    @cached_property
    def _z_of_eta(self):
        return _hermite(self.eta, self._z, 1.0 / self._slopes)

    @cached_property
    def _eta_of_z(self):
        return _hermite(self._z[::-1], self.eta[::-1], self._slopes[::-1])

    def f_at(self, eta):
        """F interpolated at ``eta``; NaN outside the sampled window.

        Upstream of a window whose head reaches z = Z_HEAD the value is 1.
        """
        eta = np.asarray(eta, dtype=float)
        lo, hi = self.window
        # past z = Z_HEAD, F equals 1 to 13 digits
        upstream = 1.0 if self._z[0] >= Z_HEAD - 0.5 * Z_STEP else math.nan
        inside = (eta >= lo) & (eta <= hi)
        out = np.where(eta < lo, upstream, math.nan)
        out[inside] = _expit(self._z_of_eta(eta[inside]))
        return out

    def eta_at(self, level: float) -> float:
        """Position where F crosses ``level``; raises if the level is not spanned."""
        if not self.f[-1] < level < self.f[0]:
            raise CoverageError(
                f"level {level!r} outside the profile range [{self.f[-1]!r}, {self.f[0]!r}]"
            )
        return float(self._eta_of_z(_logit(level)))


def _expit(z):
    """Logistic function 1 / (1 + e^-z); 0 where e^-z overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _logit(f):
    return np.log(f) - np.log1p(-f)


def _hermite(x, y, d):
    """Cubic Hermite through (x, y) with slopes d, for x increasing.

    Returns its vectorized evaluator, which continues the end cubics outside
    [x[0], x[-1]].
    """
    h = np.diff(x)
    secant = np.diff(y) / h
    c2 = (3.0 * secant - 2.0 * d[:-1] - d[1:]) / h
    c3 = (d[:-1] + d[1:] - 2.0 * secant) / (h * h)

    def at(t):
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, h.size - 1)
        dt = t - x[i]
        return y[i] + dt * (d[i] + dt * (c2[i] + dt * c3[i]))

    return at


def _monotone_slopes(x, y):
    """Node slopes that keep the cubic Hermite through strictly monotone data monotone.

    Interior slopes are the weighted harmonic means of the adjacent secants
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980, with the weights of
    Fritsch & Butland); each end takes the three-point estimate, or the end
    secant where that estimate has the wrong sign, since a zero slope has no
    inverse.
    """
    h = np.diff(x)
    secant = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    d = np.empty_like(y)
    d[1:-1] = (w1 + w2) / (w1 / secant[:-1] + w2 / secant[1:])
    d[0] = ((2.0 * h[0] + h[1]) * secant[0] - h[0] * secant[1]) / (h[0] + h[1])
    d[-1] = ((2.0 * h[-1] + h[-2]) * secant[-1] - h[-1] * secant[-2]) / (h[-1] + h[-2])
    ends, end_secants = [0, -1], secant[[0, -1]]
    d[ends] = np.where(d[ends] / end_secants > 0.0, d[ends], end_secants)
    return d


def g_from_f(f, f_prime, params: DimensionlessParameters):
    """Adsorbed fraction along the front: G = q_e F - Pe (q_e + Da) F'."""
    return params.q_e * np.asarray(f) - params.pe * (params.q_e + params.da) * np.asarray(f_prime)


def leading_order_rhs(f, params: DimensionlessParameters):
    """F' for the Pe = 0 front equation: the reduced flow h0.

    F' = -(q_e + Da)/q_e r(F, q_e F) with the attachment rate
    r(c, q) = alpha (1-q_e)^n [c^m ((1-q)/(1-q_e))^n - (q/q_e)^n], which is
    exactly zero at F = 0 and F = 1.  Its graph y = h0(x) is also the critical
    slow set of the slow-fast system: the zero set of Pe y' from
    ``full_system_rhs`` at Pe = 0.
    """
    f = np.asarray(f, dtype=float)
    q_e = params.q_e
    out = -(q_e + params.da) / q_e * _rate_law(params)[0](f, q_e * f)
    return out if out.ndim else float(out)


def full_system_rhs(x: float, y: float, params: DimensionlessParameters) -> tuple[float, float]:
    """Phase-plane vector field (x', y') of the full front equation, x = F, y = F'.

    Pe y' = q_e/(q_e + Da) y + r(x, G) with G = q_e x - Pe (q_e + Da) y and the
    attachment rate r(c, q) = alpha (1-q_e)^n [c^m ((1-q)/(1-q_e))^n - (q/q_e)^n],
    whose factors are exactly one at the rest states, so (0, 0) and (1, 0)
    return exactly (0, 0).
    """
    if params.pe == 0.0:
        raise DomainError("pe is zero; use leading_order_rhs for the reduced front equation")
    q_e, pe = params.q_e, params.pe
    q_e_da = q_e + params.da
    return y, (q_e / q_e_da * y + _rate_law(params)[0](x, q_e * x - pe * q_e_da * y)) / pe


def closed_form_wave_11(params: DimensionlessParameters, eta):
    """Analytic logistic front for first-order kinetics at Pe = 0.

    F(eta) = 1 / (1 + exp(k eta)) with k = alpha (q_e + Da); normalized so
    that F(0) = 1/2.  Like ``solve_leading_order``, it does not read
    ``params.pe``.
    """
    if (params.m, params.n) != (1, 1):
        raise DomainError(f"closed form requires m = n = 1, got ({params.m}, {params.n})")
    k = params.alpha * (params.q_e + params.da)
    out = _expit(-k * np.asarray(eta, dtype=float))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# fronts as eta(z), z = ln(F / (1 - F))


def _require_front(params: DimensionlessParameters) -> None:
    report = analyze_equilibria(params)
    if not report.admissible:
        raise ExistenceError(
            f"no decreasing front exists for orders (m, n) = ({params.m}, {params.n}): "
            f"{report.reason}", report,
        )


def _side(f_prime, sign: float):
    """Samples (z, eta, F', d eta / dz) of one side of the front, outward from z = 0.

    The samples sit at z = 0, sign Z_STEP, 2 sign Z_STEP, ... and eta is the
    integral of F (1 - F) / F' from 0 by Simpson's rule on half steps.  The
    side ends at the first sample past |z| = Z_STOP with |eta| >= ETA_SPAN, or
    at its z limit; the sampled range doubles until one of them is reached.
    """
    cap = round((Z_HEAD if sign > 0.0 else -Z_TAIL) / Z_STEP)
    steps = math.ceil(Z_STOP / Z_STEP)
    while True:
        z_half = sign * 0.5 * Z_STEP * np.arange(2 * steps + 1)
        fp = f_prime(z_half)
        slope = _expit(z_half) * _expit(-z_half) / fp  # d eta / dz
        step = sign * Z_STEP / 6.0 * (slope[:-2:2] + 4.0 * slope[1::2] + slope[2::2])
        eta = np.concatenate(([0.0], np.cumsum(step)))
        z = z_half[::2]
        done = (np.abs(z) >= Z_STOP) & (np.abs(eta) >= ETA_SPAN)
        if done.any() or steps == cap:
            end = int(np.argmax(done)) + 1 if done.any() else z.size
            return z[:end], eta[:end], fp[::2][:end], slope[::2][:end]
        steps = min(2 * steps, cap)


def _front(f_prime):
    """Samples (eta, F, F', d eta / dz) of the front whose slope at z is ``f_prime(z)``."""
    head, tail = (_side(f_prime, sign) for sign in (1.0, -1.0))
    z, eta, fp, slope = (np.concatenate((h[::-1], t[1:])) for h, t in zip(head, tail))
    return eta, _expit(z), fp, slope


# ---------------------------------------------------------------------------
# Radau IIA of order 5 for one equation (Hairer & Wanner, Solving Ordinary
# Differential Equations II, Sec. IV.8), the scheme of scipy's Radau: its
# tableau, the T/TI transforms of the simplified Newton iteration, its
# embedded error estimate and its Jacobian-refresh rule.  The step rule is
# scipy's with two departures.  As in Hairer's RADAU5, an error estimate above
# one is refined on the first step as well as after a rejection.  And after a
# step whose Newton iteration took more than two iterations, growth is capped
# at max(1, THETA_REF / rate), with rate the iteration's last contraction rate
# (Gustafsson & Soderlind, SIAM J. Sci. Comput. 18, 1997).  On the clean side
# of an m >= 2 front the Jacobian scales like F^(1-m), so a step grown by the
# error estimate alone outruns the reused Jacobian and its Newton iteration
# fails.  For a scalar the two linear systems of each Newton iteration are one
# real and one complex division.

_S6 = 6.0 ** 0.5
_C1, _C2, _C3 = (4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0
_E1, _E2, _E3 = (-13.0 - 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0
_MU_REAL = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)
_MU_COMPLEX = (3.0 + 0.5 * (3.0 ** (1.0 / 3.0) - 3.0 ** (2.0 / 3.0))
               - 0.5j * (3.0 ** (5.0 / 6.0) + 3.0 ** (7.0 / 6.0)))
# T and its inverse TI; the last row of T is (1, 1, 0), and the second and
# third rows of TI act as one complex row
_T11, _T12, _T13 = 0.09443876248897524, -0.14125529502095421, 0.03002919410514742
_T21, _T22, _T23 = 0.25021312296533332, 0.20412935229379994, -0.38294211275726192
_TI11, _TI12, _TI13 = 4.17871859155190428, 0.32768282076106237, 0.52337644549944951
_TIC1, _TIC2, _TIC3 = (complex(-4.17871859155190428, 0.50287263494578682),
                       complex(-0.32768282076106237, -2.57192694985560522),
                       complex(0.47662355450055044, 0.59603920482822492))
# P maps the stage increments to the dense-output coefficients
_P11, _P12, _P13 = (13.0 / 3.0 + 7.0 * _S6 / 3.0, -23.0 / 3.0 - 22.0 * _S6 / 3.0,
                    10.0 / 3.0 + 5.0 * _S6)
_P21, _P22, _P23 = (13.0 / 3.0 - 7.0 * _S6 / 3.0, -23.0 / 3.0 + 22.0 * _S6 / 3.0,
                    10.0 / 3.0 - 5.0 * _S6)
_P31, _P32, _P33 = 1.0 / 3.0, -8.0 / 3.0, 10.0 / 3.0
_NEWTON_MAXITER = 6
THETA_REF = 0.1  # Newton contraction rate that step growth aims at


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old) -> float:
    if error_norm == 0.0:
        return math.inf
    if error_norm_old is None or not h_abs_old:  # no history, or a first step of 0
        multiplier = 1.0
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1.0, multiplier) * error_norm ** -0.25


def _collocation(fun, t, y, h, z, scale, tol, d_real, d_complex):
    """Simplified Newton iteration for the stage increments z of one step.

    The transformed increments TI z are one real and one complex value, so
    each iteration solves its two linear systems by one division each.
    Returns (converged, iterations, z, rate of convergence).  A non-finite
    stage value, or one so large that the correction overflows, raises
    ``ConvergenceError``.
    """
    m_real, m_complex = _MU_REAL / h, _MU_COMPLEX / h
    s1, s2, s3 = t + h * _C1, t + h * _C2, t + h * _C3
    z1, z2, z3 = z
    w_real = _TI11 * z1 + _TI12 * z2 + _TI13 * z3
    w_complex = _TIC1 * z1 + _TIC2 * z2 + _TIC3 * z3
    inv_scale = 1.0 / (3.0 ** 0.5 * scale)  # RMS norm over the three stages
    dw_norm_old = rate = None
    for k in range(_NEWTON_MAXITER):
        f1, f2, f3 = fun(s1, y + z1), fun(s2, y + z2), fun(s3, y + z3)
        dw_real = (_TI11 * f1 + _TI12 * f2 + _TI13 * f3 - m_real * w_real) / d_real
        dw_complex = (_TIC1 * f1 + _TIC2 * f2 + _TIC3 * f3 - m_complex * w_complex) / d_complex
        dw_norm = math.hypot(dw_real, dw_complex.real, dw_complex.imag) * inv_scale
        if not math.isfinite(dw_norm):  # every non-finite stage value reaches the norm
            raise ConvergenceError(f"non-finite stage value on the leg at z = {t!r}")
        if dw_norm_old is not None:
            rate = dw_norm / dw_norm_old
            if rate >= 1.0 or rate ** (_NEWTON_MAXITER - k) / (1.0 - rate) * dw_norm > tol:
                return False, k + 1, (z1, z2, z3), rate
        w_real += dw_real
        w_complex += dw_complex
        a, b = w_complex.real, w_complex.imag
        z1 = _T11 * w_real + _T12 * a + _T13 * b
        z2 = _T21 * w_real + _T22 * a + _T23 * b
        z3 = w_real + a
        if dw_norm == 0.0 or rate is not None and rate / (1.0 - rate) * dw_norm < tol:
            return True, k + 1, (z1, z2, z3), rate
        dw_norm_old = dw_norm
    return False, _NEWTON_MAXITER, (z1, z2, z3), rate


def _radau_leg(fun, jac, t, y, t_end: float, rtol: float, atol: float):
    """Integrate the scalar y' = fun(t, y) from t to t_end > t.

    ``jac(t, y, f)`` is d fun / dy at (t, y), where f = fun(t, y).  Returns the
    dense output as a vectorized function of t in [t, t_end] and the work
    counters.  Steps follow scipy's Radau but for the two departures named
    above: RADAU5's first-step refinement of the error estimate, and the
    contraction-rate cap on growth after more than two Newton iterations.  A
    step below ten ulps of t, or a non-finite value, raises
    ``ConvergenceError``.
    """
    f = fun(t, y)
    # initial step of Hairer, Norsett & Wanner I, Sec. II.4, for error order 3
    span = t_end - t
    scale = atol + abs(y) * rtol
    d1 = abs(f) / scale
    h0 = _probe_step(abs(y) / scale, d1, span)
    d2 = abs(fun(t + h0, y + h0 * f) - f) / scale / h0
    h_next = _initial_step(h0, d1, d2, span, 3)
    h_prev = error_norm_prev = None
    newton_tol = _newton_tol(rtol)
    jac_y = jac(t, y, f)
    nfev, njev, nlu, current_jac = 2, 1, 0, True
    d_real = d_complex = None
    knots, y_olds, qs = [t], [], []  # dense output of the accepted steps
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs, h_abs_old, error_norm_old = h_next, h_prev, error_norm_prev
        if h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        rejected = False
        while True:
            if h_abs < min_step:
                raise ConvergenceError(f"leg step fell below {min_step!r} at z = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            if qs:  # extrapolate the last step's dense output to the new stages
                x_old = t - knots[-2]
                y_old, (q1, q2, q3) = y_olds[-1], qs[-1]
                x1, x2, x3 = ((x_old + h * _C1) / x_old, (x_old + h * _C2) / x_old,
                              (x_old + h * _C3) / x_old)
                z = (y_old + x1 * (q1 + x1 * (q2 + x1 * q3)) - y,
                     y_old + x2 * (q1 + x2 * (q2 + x2 * q3)) - y,
                     y_old + x3 * (q1 + x3 * (q2 + x3 * q3)) - y)
            else:
                z = (0.0, 0.0, 0.0)
            scale = atol + abs(y) * rtol
            while True:
                if d_real is None:
                    d_real, d_complex = _MU_REAL / h - jac_y, _MU_COMPLEX / h - jac_y
                    nlu += 2
                converged, n_iter, z_new, rate = _collocation(
                    fun, t, y, h, z, scale, newton_tol, d_real, d_complex)
                nfev += 3 * n_iter
                if converged or current_jac:
                    break
                jac_y = jac(t, y, f)
                njev, current_jac, d_real = njev + 1, True, None
            if not converged:
                h_abs *= 0.5
                d_real = None
                continue
            z1, z2, z3 = z_new
            y_new = y + z3
            ze = (z1 * _E1 + z2 * _E2 + z3 * _E3) / h
            error = (f + ze) / d_real
            scale = atol + max(abs(y), abs(y_new)) * rtol
            error_norm = abs(error) / scale
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            if (rejected or not qs) and error_norm > 1.0:
                error = (fun(t, y + error) + ze) / d_real
                nfev += 1
                error_norm = abs(error) / scale
            if error_norm <= 1.0:
                break
            factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(_MIN_FACTOR, safety * factor)
            d_real, rejected = None, True

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = min(_MAX_FACTOR,
                     safety * _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old))
        if recompute_jac:  # below rate 1e-3 the cap would exceed _MAX_FACTOR
            factor = min(factor, max(1.0, THETA_REF / rate))
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        else:
            d_real = None
        f = fun(t_new, y_new)
        nfev += 1
        if not math.isfinite(f):
            raise ConvergenceError(f"non-finite slope on the leg at z = {t_new!r}")
        if recompute_jac:
            jac_y = jac(t_new, y_new, f)
            njev += 1
        current_jac = recompute_jac
        h_prev, error_norm_prev = h_next, error_norm
        h_next = h_abs * factor
        y_olds.append(y)
        qs.append((z1 * _P11 + z2 * _P21 + z3 * _P31, z1 * _P12 + z2 * _P22 + z3 * _P32,
                   z1 * _P13 + z2 * _P23 + z3 * _P33))
        knots.append(t_new)
        t, y = t_new, y_new

    knots, y_olds, qs = np.array(knots), np.array(y_olds), np.array(qs)

    def dense(t_at):
        seg = np.clip(np.searchsorted(knots, t_at, side="left") - 1, 0, y_olds.size - 1)
        x = (t_at - knots[seg]) / (knots[seg + 1] - knots[seg])
        q = qs[seg]
        return y_olds[seg] + x * (q[:, 0] + x * (q[:, 1] + x * q[:, 2]))

    stats = IntegratorStats(time_method="Radau", nfev=nfev, njev=njev, nlu=nlu,
                            steps=y_olds.size)
    return dense, stats


def _leg_field(params: DimensionlessParameters):
    """The Pe > 0 front's field, bound once: (rhs, jac, tail).

    ``rhs`` is dw/dz on the backward leg in w = ln(-F').  With y = F' = -e^w,
    s = F (1 - F) and Y' = dy/deta from ``full_system_rhs``, dw/dz = Y' s / y^2
    and ``jac(z, w, dw)`` = s / y dY'/dy - 2 dw, where dY'/dy =
    q_e / ((q_e + Da) Pe) - (q_e + Da) dr/dq at G = q_e F - Pe (q_e + Da) y.

    ``tail(F)``, on floats or arrays, is F' at and below the seed.  The clean
    state (0, 0) linearizes to Pe l^2 - b l - k = 0 with b = q_e/(q_e + Da)
    - Pe (q_e + Da) dr/dq and k = dr/dc + q_e dr/dq, partials at (0, 0).  For
    m = 1, k > 0: the state is a saddle and the tail is the exact linear
    F' = lambda_s F, lambda_s the negative root written without cancellation.
    For m >= 2, k = 0: the state is degenerate and the tail is the reduced flow
    h0(F) of ``leading_order_rhs``, within O(Pe) of the attracting manifold.
    No evaluation of ``rhs`` or ``jac`` reads ``params``; ``params.pe`` must be
    positive.
    """
    r, r_q, r_c = _rate_law(params)
    q_e, pe = params.q_e, params.pe
    q_e_da = q_e + params.da
    lift, drift, lift_dy = q_e / q_e_da, pe * q_e_da, q_e / (q_e_da * pe)
    exp = math.exp

    def rhs(z, w):
        f = 1.0 / (1.0 + exp(-z))
        y = -exp(w)
        return (lift * y + r(f, q_e * f - drift * y)) / pe * f * (1.0 - f) / (y * y)

    def jac(z, w, dw):
        f = 1.0 / (1.0 + exp(-z))
        y = -exp(w)
        return f * (1.0 - f) / y * (lift_dy - q_e_da * r_q(f, q_e * f - drift * y)) - 2.0 * dw

    dr_dq = r_q(0.0, 0.0)
    b = lift - drift * dr_dq
    k = r_c(0.0, 0.0) + q_e * dr_dq
    if k > 0.0:
        rate = -2.0 * k / (b + math.sqrt(b * b + 4.0 * pe * k))

        def tail(f):
            return rate * f
    else:
        def tail(f):
            return leading_order_rhs(f, params)

    return rhs, jac, tail


def solve_leading_order(params: DimensionlessParameters) -> WaveProfile:
    """Front profile of the reduced (Pe = 0) equation, normalized to F(0) = 1/2.

    ``params.pe`` is not read: the profile is labelled Pe = 0 with G = q_e F.
    eta(z) is the quadrature of F (1 - F) / h0(F) outward from z = 0 on each
    side; no ODE is integrated, so no tolerance applies.
    """
    _require_front(params)
    eta, f, _, slope = _front(lambda z: leading_order_rhs(_expit(z), params))
    return WaveProfile(eta=eta, f=f, g=params.q_e * f, velocity=params.velocity, pe=0.0,
                       deta_dz=slope)


def solve_full_wave(params: DimensionlessParameters) -> WaveProfile:
    """Heteroclinic front of the full equation for Pe > 0, normalized to F(0) = 1/2.

    The solver seeds at F = F_STOP next to the clean state, z = -Z_STOP, and
    integrates w = ln(-F') with Radau over increasing z, which is backward
    eta, up to 1 - F = F_STOP, z = Z_STOP; in reverse eta the saturated state
    attracts along both eigendirections, so the connection is recovered
    without shooting.  F' has one law in each of three regions: below the seed
    the clean-side law ``tail`` of ``_leg_field``, which also sets the seed;
    the leg in between; and h0(F) above the leg.  eta is the quadrature of
    F (1 - F) / F' from the anchor z = 0, never a state of the leg, so the
    anchor keeps full precision.  A seed slope that is not negative, or a leg
    whose arithmetic overflows or divides by an underflowed zero, raises
    ``ConvergenceError``.  The leg runs at the tolerances REL_TOL and ABS_TOL.
    The profile carries the leg's counters.
    """
    _require_front(params)
    if params.pe == 0.0:
        raise DomainError("pe is zero: the reduced front is computed by solve_leading_order")
    rhs, jac, tail = _leg_field(params)
    seed_slope = tail(F_STOP)
    if not seed_slope < 0.0:  # -0.0 once b * b overflows at an extreme Pe
        raise ConvergenceError(f"seed slope F' = {seed_slope!r} at F = {F_STOP!r} "
                               "is not negative")
    try:
        w_at, stats = _radau_leg(rhs, jac, -Z_STOP, math.log(-seed_slope), Z_STOP,
                                 REL_TOL, ABS_TOL)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConvergenceError(f"backward leg from the seed failed: {exc}") from exc

    def f_prime(z):
        below, above = z < -Z_STOP, z > Z_STOP
        leg = ~(below | above)
        out = np.empty_like(z)
        out[below] = tail(_expit(z[below]))
        out[leg] = -np.exp(w_at(z[leg]))
        out[above] = leading_order_rhs(_expit(z[above]), params)
        return out

    eta, f, fp, slope = _front(f_prime)
    return WaveProfile(eta=eta, f=f, g=g_from_f(f, fp, params), velocity=params.velocity,
                       pe=params.pe, stats=stats, deta_dz=slope)
