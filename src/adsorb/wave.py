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
far-field state and |eta| >= eta_span, except that the saturated side stops
by z = Z_HEAD, where 1 - F is about 1e-13 and finer steps in 1 - F no longer
differ in double precision.

For Pe = 0, F' = h0(F) and the integral is a plain quadrature.  For Pe > 0,
F' comes from one Radau leg that integrates w = ln(-F') over z from a seed on
the slow set next to the clean state up to 1 - F = F_STOP.  Increasing z is
backward eta, the only stable direction: in forward eta the layer dynamics
repel trajectories from the slow manifold at rate q_e v / Pe.  Outside the leg
F' = h0(F), the reduced flow that approximates the manifold to O(Pe).  Legs
at several Pe span the same z interval, so they integrate as one system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.special import expit

from .errors import (
    ConvergenceError,
    CoverageError,
    DegenerateStatesError,
    DivergenceError,
    DomainError,
    ExistenceError,
)
from .model import DimensionlessParameters, _uptake, analyze_equilibria

F_ENDPOINT_TOL = 1e-4      # far-field closeness required of a returned profile
F_RANGE_TOL = 1e-9         # roundoff slack on F in [0, 1]
NORMALIZATION_TOL = 1e-8   # |F(0) - 1/2| for normalized profiles

F_STOP = 1e-6              # distance from a far-field state where a front may end
Z_STOP = math.log((1.0 - F_STOP) / F_STOP)  # |z| where F is within F_STOP of a far field
Z_STEP = 0.01              # sample spacing in z; eta spacing 0.018 on the q_e = 0.7 logistic
# z limits of the saturated and clean sides: past z = 30 samples 1% apart in
# 1 - F round to the same double; past z = -708, F = e^z leaves the normal doubles
Z_HEAD = 30.0
Z_TAIL = -690.0
# the backward leg stays stiff at any Pe once the clean state is degenerate
# (layer rate O(1) against an unbounded slow crawl), so it is always implicit
STIFF_METHOD = "Radau"


@dataclass(frozen=True)
class FarFieldStates:
    """Constant states attained far up- and downstream of the front."""

    f0: float
    g0: float
    f_inf: float
    g_inf: float

    @classmethod
    def clean_bed(cls, params: DimensionlessParameters) -> "FarFieldStates":
        """States for an initially clean column: (1, q_e) upstream, (0, 0) downstream."""
        return cls(f0=1.0, g0=params.q_e, f_inf=0.0, g_inf=0.0)


@dataclass(frozen=True)
class WaveSolverSettings:
    """Numerical settings shared by the front solvers.

    The tolerances apply to the Radau leg of the Pe > 0 front; the Pe = 0
    front is a fixed-step quadrature.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    seed_delta: float = 1e-6       # F value of the backward-integration seed, in (0, 1/2)
    eta_span: float = 22.0         # half-window around F(0) = 1/2, short only at z = Z_HEAD


@dataclass(frozen=True)
class WaveProfile:
    """Sampled front profile (eta, F, G) with its velocity and window.

    Arrays are treated as immutable once constructed, so the interpolants of
    F(eta) and eta(F) are built once, on first use; eta increases strictly
    and F decreases strictly from the saturated to the clean state.
    """

    eta: np.ndarray
    f: np.ndarray
    g: np.ndarray
    velocity: float
    pe: float
    normalized: bool
    window: tuple[float, float]

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
        if np.min(f) < -F_RANGE_TOL or np.max(f) > 1.0 + F_RANGE_TOL:
            raise DomainError("F leaves [0, 1] beyond roundoff")
        if self.window != (eta[0], eta[-1]):
            raise DomainError("window must match the sampled eta range")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        if self.normalized:
            f_mid = float(self._f_of_eta(0.0))
            if not abs(f_mid - 0.5) < NORMALIZATION_TOL:
                raise DomainError(f"normalized profile has F(0) = {f_mid!r}, expected 1/2")

    @cached_property
    def _f_of_eta(self) -> PchipInterpolator:
        return PchipInterpolator(self.eta, self.f, extrapolate=False)

    @cached_property
    def _eta_of_f(self) -> PchipInterpolator:
        return PchipInterpolator(self.f[::-1], self.eta[::-1], extrapolate=False)

    def f_at(self, eta):
        """Monotone-cubic interpolation of F; NaN outside the sampled window."""
        return self._f_of_eta(eta)

    def eta_at(self, level: float) -> float:
        """Position where F crosses ``level``; raises if the level is not spanned."""
        if not self.f[-1] < level < self.f[0]:
            raise CoverageError(
                f"level {level!r} outside the profile range [{self.f[-1]!r}, {self.f[0]!r}]"
            )
        return float(self._eta_of_f(level))


def wave_velocity_general(states: FarFieldStates, da: float) -> float:
    """Front velocity from the jump conditions between the far-field states."""
    df = states.f0 - states.f_inf
    denom = states.g0 - states.g_inf + da * df
    if denom == 0.0:
        raise DegenerateStatesError("far-field states give a vanishing jump denominator")
    return df / denom


def g_from_f(f, f_prime, params: DimensionlessParameters):
    """Adsorbed fraction along the front: G = q_e F - Pe (q_e + Da) F'."""
    return params.q_e * np.asarray(f) - params.pe * (params.q_e + params.da) * np.asarray(f_prime)


def leading_order_rhs(f, params: DimensionlessParameters):
    """F' for the Pe = 0 front equation: the reduced flow h0.

    F' = -(q_e + Da)/q_e r(F, q_e F) with the attachment rate
    r(c, q) = alpha (1-q_e)^n [c^m ((1-q)/(1-q_e))^n - (q/q_e)^n], which is
    exactly zero at F = 0 and F = 1.
    """
    f = np.asarray(f, dtype=float)
    q_e = params.q_e
    out = -(q_e + params.da) / q_e * _uptake(f, q_e * f, params)
    return out if out.ndim else float(out)


def slow_set(x, params: DimensionlessParameters):
    """Critical slow set y = h0(x) of the slow-fast system.

    The zero set of Pe y' from ``full_system_rhs`` at Pe = 0, so the same
    function as ``leading_order_rhs``: y = -(q_e + Da)/q_e r(x, q_e x).
    """
    return leading_order_rhs(x, params)


def full_system_rhs(x: float, y: float, params: DimensionlessParameters) -> tuple[float, float]:
    """Phase-plane vector field (x', y') of the full front equation, x = F, y = F'.

    Pe y' = q_e/(q_e + Da) y + r(x, G) with G = q_e x - Pe (q_e + Da) y and the
    attachment rate r(c, q) = alpha (1-q_e)^n [c^m ((1-q)/(1-q_e))^n - (q/q_e)^n],
    whose factors are exactly one at the rest states, so (0, 0) and (1, 0)
    return exactly (0, 0).
    """
    pe = params.pe
    if pe == 0.0:
        raise DomainError("pe is zero; use leading_order_rhs for the reduced front equation")
    q_e, da = params.q_e, params.da
    g = q_e * x - pe * (q_e + da) * y
    return y, (q_e / (q_e + da) * y + _uptake(x, g, params)) / pe


def closed_form_wave_11(params: DimensionlessParameters, eta):
    """Analytic logistic front for first-order kinetics at Pe = 0.

    F(eta) = 1 / (1 + exp(k eta)) with k = alpha (q_e + Da); normalized so
    that F(0) = 1/2.
    """
    if (params.m, params.n) != (1, 1):
        raise DomainError(f"closed form requires m = n = 1, got ({params.m}, {params.n})")
    if params.pe != 0.0:
        raise DomainError("closed form is the Pe = 0 front; build params with pe = 0")
    k = params.alpha * (params.q_e + params.da)
    out = expit(-k * np.asarray(eta, dtype=float))
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


def _side(f_prime, sign: float, eta_span: float):
    """Samples (z, eta, F') of one side of the front, outward from z = 0.

    The samples sit at z = 0, sign Z_STEP, 2 sign Z_STEP, ... and eta is the
    integral of F (1 - F) / F' from 0 by Simpson's rule on half steps.  The
    side ends at the first sample past |z| = Z_STOP with |eta| >= eta_span, or
    at its z limit; the sampled range doubles until one of them is reached.
    """
    cap = round((Z_HEAD if sign > 0.0 else -Z_TAIL) / Z_STEP)
    steps = math.ceil(Z_STOP / Z_STEP)
    while True:
        z_half = sign * 0.5 * Z_STEP * np.arange(2 * steps + 1)
        fp = f_prime(z_half)
        slope = expit(z_half) * expit(-z_half) / fp  # d eta / dz
        step = sign * Z_STEP / 6.0 * (slope[:-2:2] + 4.0 * slope[1::2] + slope[2::2])
        eta = np.concatenate(([0.0], np.cumsum(step)))
        z = z_half[::2]
        done = (np.abs(z) >= Z_STOP) & (np.abs(eta) >= eta_span)
        if done.any() or steps == cap:
            end = int(np.argmax(done)) + 1 if done.any() else z.size
            return z[:end], eta[:end], fp[::2][:end]
        steps = min(2 * steps, cap)


def _front(params: DimensionlessParameters, settings: WaveSolverSettings,
           f_prime) -> WaveProfile:
    """Normalized profile of the front whose slope at z is ``f_prime(z)``."""
    (z_head, eta_head, fp_head), (z_tail, eta_tail, fp_tail) = (
        _side(f_prime, sign, settings.eta_span) for sign in (1.0, -1.0))
    eta = np.concatenate((eta_head[::-1], eta_tail[1:]))
    f = expit(np.concatenate((z_head[::-1], z_tail[1:])))
    fp = np.concatenate((fp_head[::-1], fp_tail[1:]))
    return WaveProfile(
        eta=eta, f=f, g=g_from_f(f, fp, params), velocity=params.velocity, pe=params.pe,
        normalized=True, window=(float(eta[0]), float(eta[-1])),
    )


def _leg_slopes(members: list[DimensionlessParameters], settings: WaveSolverSettings,
                z_seed: float) -> tuple[int, np.ndarray]:
    """F' of every member's backward leg at z = k Z_STEP / 2 inside [z_seed, Z_STOP].

    The sides of a front sample z on that grid, so the leg's dense output is
    read once, as a table in k; returns the first k and one table row per member.
    """
    def rhs(z, w):
        f = 1.0 / (1.0 + math.exp(-z))
        out = []
        for w_k, p in zip(w, members):
            y = -math.exp(w_k)
            out.append(full_system_rhs(f, y, p)[1] * f * (1.0 - f) / (y * y))
        return out

    delta = settings.seed_delta
    leg = solve_ivp(rhs, (z_seed, Z_STOP), [math.log(-slow_set(delta, p)) for p in members],
                    method=STIFF_METHOD, rtol=settings.rel_tol, atol=settings.abs_tol,
                    dense_output=True)
    if leg.status != 0:
        raise ConvergenceError(f"backward leg from the seed failed: {leg.message}")
    half = 0.5 * Z_STEP
    k = np.arange(math.floor(z_seed / half), math.ceil(Z_STOP / half) + 1)
    z = half * k
    keep = (z >= z_seed) & (z <= Z_STOP)
    return int(k[keep][0]), -np.exp(leg.sol(z[keep]))


def solve_leading_order(params: DimensionlessParameters,
                        settings: WaveSolverSettings | None = None) -> WaveProfile:
    """Front profile of the reduced (Pe = 0) equation, normalized to F(0) = 1/2.

    eta(z) is the quadrature of F (1 - F) / h0(F) outward from z = 0 on each
    side; no ODE is integrated.
    """
    settings = settings or WaveSolverSettings()
    _require_front(params)
    return _front(params, settings, lambda z: leading_order_rhs(expit(z), params))


def solve_full_wave(params: DimensionlessParameters,
                    settings: WaveSolverSettings | None = None) -> WaveProfile:
    """Heteroclinic front of the full equation for Pe > 0, normalized to F(0) = 1/2.

    The one-Pe case of ``solve_full_waves``.
    """
    return solve_full_waves(params, (params.pe,), settings)[0]


def solve_full_waves(params: DimensionlessParameters, pe_values,
                     settings: WaveSolverSettings | None = None) -> list[WaveProfile]:
    """Fronts of the full equation at every Pe of ``pe_values``, in that order.

    The solver seeds on the critical slow set at F = seed_delta next to the
    clean state and integrates w = ln(-F') with Radau over increasing z, which
    is backward eta, up to 1 - F = F_STOP; in reverse eta the saturated state
    attracts along both eigendirections, so the connection is recovered
    without shooting.  Below the seed and above the leg, F' follows the
    reduced slow-manifold flow h0(F), which approximates the attracting
    manifold to O(Pe) there.  eta is the quadrature of F (1 - F) / F' from the
    anchor z = 0, never a state of the leg, so the anchor keeps full precision
    however far the seed lies from it.

    Every Pe shares the z interval of the leg, so all of them integrate as one
    Radau system with one w per Pe and share its steps; a failure of that leg
    fails every Pe.  ``params`` supplies everything but Pe.
    """
    settings = settings or WaveSolverSettings()
    _require_front(params)
    members = [replace(params, pe=float(pe)) for pe in pe_values]
    if not members:
        raise DomainError("pe_values must hold at least one value")
    if any(p.pe == 0.0 for p in members):
        raise DomainError("pe is zero: the reduced front is computed by solve_leading_order")
    delta = settings.seed_delta
    if not 0.0 < delta < 0.5:
        raise DivergenceError(
            f"seed_delta = {delta!r} must lie in (0, 1/2): a seed outside it is not "
            "on the clean side of the front"
        )
    z_seed = math.log(delta / (1.0 - delta))

    k_first, slopes = _leg_slopes(members, settings, z_seed)
    half = 0.5 * Z_STEP

    def front(p, slope):
        def f_prime(z):
            out = leading_order_rhs(expit(z), p)
            inside = (z >= z_seed) & (z <= Z_STOP)
            out[inside] = slope[np.rint(z[inside] / half).astype(np.intp) - k_first]
            return out
        return _front(p, settings, f_prime)

    return [front(p, slope) for p, slope in zip(members, slopes)]
