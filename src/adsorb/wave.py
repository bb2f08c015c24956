"""Travelling-wave front profiles for the adsorption column.

In the frame eta = x - v t the column model reduces to a second-order ODE for
the fluid concentration F(eta) whose heteroclinic connection from F = 1
(saturated, upstream) to F = 0 (clean, downstream) is the moving front.  The
inverse Peclet number multiplies the highest derivative, so the system is
slow-fast: for Pe = 0 the front solves a first-order equation whose phase
curve is the critical slow set, and for Pe > 0 the connection is recovered
numerically by integrating the full system backwards in eta from a seed next
to the clean state, where the slow set approximates the attracting manifold
to O(Pe).

Backward integration is the only stable direction: in forward eta the layer
dynamics repel trajectories from the slow manifold at rate q_e v / Pe.  Every
front is therefore finished by one rule, the reduced (slow-manifold) flow
continued outward in log coordinates: u = ln F towards the clean state (the
tail) and u = ln(1 - F) towards the saturated state (the head), until F is
within F_STOP of the far-field state and the window reaches +-eta_span.  The
Pe = 0 front is two such legs from F(0) = 1/2; the Pe > 0 front adds one at
each end of its backward legs; see `solve_full_wave`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .model import DimensionlessParameters, analyze_equilibria, equilibrium_polynomial

F_ENDPOINT_TOL = 1e-4      # far-field closeness required of a returned profile
F_RANGE_TOL = 1e-9         # roundoff slack on F in [0, 1]
NORMALIZATION_TOL = 1e-8   # |F(0) - 1/2| for normalized profiles

F_STOP = 1e-6              # distance from a far-field state where a front may end
ANCHOR_SPLIT = 1e-2        # F value where the backward clock restarts
CORE_STEP = 0.02           # uniform sample spacing near the transition
CORE_PAD = 25.0            # half-width of the uniformly sampled zone
REFINE_RATIO = 1.04        # geometric sample growth outside the core
LEAD_METHOD = "DOP853"     # reduced (Pe = 0) legs
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
    """Numerical settings shared by the front solvers."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    seed_delta: float = 1e-6       # F value of the backward-integration seed
    eta_span: float = 22.0         # half-window guaranteed around F(0) = 1/2
    span_cap: float = 1e18         # hard eta budget before giving up


@dataclass(frozen=True)
class WaveProfile:
    """Sampled front profile (eta, F, G) with its velocity and window.

    Arrays are treated as immutable once constructed; eta increases strictly
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
        if self.normalized:
            f_mid = float(PchipInterpolator(eta, f, extrapolate=False)(0.0))
            if not abs(f_mid - 0.5) < NORMALIZATION_TOL:
                raise DomainError(f"normalized profile has F(0) = {f_mid!r}, expected 1/2")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def f_at(self, eta):
        """Monotone-cubic interpolation of F; NaN outside the sampled window."""
        return PchipInterpolator(self.eta, self.f, extrapolate=False)(eta)

    def eta_at(self, level: float) -> float:
        """Position where F crosses ``level``; raises if the level is not spanned."""
        if not self.f[-1] < level < self.f[0]:
            raise CoverageError(
                f"level {level!r} outside the profile range [{self.f[-1]!r}, {self.f[0]!r}]"
            )
        inverse = PchipInterpolator(self.f[::-1], self.eta[::-1], extrapolate=False)
        return float(inverse(level))


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
    """F' for the Pe = 0 front equation.

    F' = (q_e + Da) q_e^(n-1) [(1 - alpha) F^n - alpha F^m (1/q_e - F)^n].
    """
    f = np.asarray(f, dtype=float)
    m, n = params.m, params.n
    q_e, alpha = params.q_e, params.alpha
    out = (q_e + params.da) * q_e ** (n - 1) * (
        (1.0 - alpha) * f ** n - alpha * f ** m * (1.0 / q_e - f) ** n
    )
    return out if out.ndim else float(out)


def slow_set(x, params: DimensionlessParameters):
    """Critical slow set y = q_e^(n-1) (q_e + Da) p(x) of the slow-fast system."""
    q_e = params.q_e
    return q_e ** (params.n - 1) * (q_e + params.da) * equilibrium_polynomial(x, params)


def full_system_rhs(x: float, y: float, params: DimensionlessParameters) -> tuple[float, float]:
    """Phase-plane vector field (x', y') of the full front equation, x = F, y = F'.

    The reaction term is evaluated in a form whose factors are exactly one at
    the rest states, so (0, 0) and (1, 0) return exactly (0, 0).
    """
    pe = params.pe
    if pe == 0.0:
        raise DomainError("pe is zero; use leading_order_rhs for the reduced front equation")
    q_e, da = params.q_e, params.da
    m, n = params.m, params.n
    a_lin = q_e * x - pe * (q_e + da) * y
    b_lin = 1.0 - a_lin
    coeff = params.alpha * (1.0 - q_e) ** n
    reaction = coeff * ((a_lin / q_e) ** n - x ** m * (b_lin / (1.0 - q_e)) ** n)
    y_dot = (q_e / (q_e + da) * y - reaction) / pe
    return y, y_dot


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
# profile assembly


@dataclass(frozen=True)
class _Segment:
    """One integrated leg of the front on the normalized eta axis.

    Normalized eta + ``shift`` is the integration variable of ``sol``.  Full
    legs carry (F, F') as their state; reduced legs carry a log coordinate
    that ``f_map`` turns into F, and take F' from the reduced equation.
    """

    sol: object             # solve_ivp result with dense output
    shift: float = 0.0
    f_map: object = None    # callable u -> F for reduced legs

    @property
    def lo(self) -> float:
        return min(self.sol.t[0], self.sol.t[-1]) - self.shift

    @property
    def hi(self) -> float:
        return max(self.sol.t[0], self.sol.t[-1]) - self.shift

    @property
    def natural(self) -> np.ndarray:
        return np.sort(self.sol.t) - self.shift

    def evaluate(self, eta: np.ndarray, params: DimensionlessParameters):
        """F and F' at normalized positions inside the leg."""
        z = self.sol.sol(eta + self.shift)
        if z.shape[0] == 2:
            return z[0], z[1]
        f = self.f_map(z[0])
        return f, leading_order_rhs(f, params)


def _event(fn, direction: float, terminal: bool = True):
    fn.terminal = terminal
    fn.direction = direction
    return fn


def _strict_decrease_mask(f: np.ndarray) -> np.ndarray:
    keep = np.zeros(f.size, dtype=bool)
    last = np.inf
    for i, value in enumerate(f):
        if value < last:
            keep[i] = True
            last = value
    return keep


def _dedupe_sorted(pts: np.ndarray) -> np.ndarray:
    if pts.size == 0:
        return pts
    gaps = np.diff(pts)
    keep = np.concatenate(([True], gaps > np.maximum(1e-9, 1e-12 * np.abs(pts[1:]))))
    return pts[keep]


def _sample_points(lo: float, hi: float, segments: list[_Segment]) -> np.ndarray:
    parts = [np.array([lo, hi])]
    k_lo = math.ceil(max(lo, -CORE_PAD) / CORE_STEP)
    k_hi = math.floor(min(hi, CORE_PAD) / CORE_STEP)
    if k_hi >= k_lo:
        parts.append(np.arange(k_lo, k_hi + 1) * CORE_STEP)
    for sign, limit in ((1.0, hi), (-1.0, lo)):
        if sign * limit > CORE_PAD:
            count = int(math.log(sign * limit / CORE_PAD) / math.log(REFINE_RATIO)) + 1
            parts.append(sign * CORE_PAD * REFINE_RATIO ** np.arange(1, count + 1))
    parts.extend(seg.natural for seg in segments)
    pts = np.concatenate(parts)
    pts = np.sort(pts[(pts >= lo) & (pts <= hi)])
    return _dedupe_sorted(pts)


def _assemble_profile(segments: list[_Segment], params: DimensionlessParameters,
                      pe: float) -> WaveProfile:
    segments = sorted(segments, key=lambda s: s.lo)
    lo, hi = segments[0].lo, segments[-1].hi
    pts = _sample_points(lo, hi, segments)
    uppers = np.array([seg.hi for seg in segments])
    which = np.minimum(np.searchsorted(uppers, pts, side="left"), len(segments) - 1)
    f = np.empty_like(pts)
    y = np.empty_like(pts)
    for i, seg in enumerate(segments):
        mask = which == i
        if np.any(mask):
            f[mask], y[mask] = seg.evaluate(pts[mask], params)
    keep = _strict_decrease_mask(f)
    eta, f, y = pts[keep], f[keep], y[keep]
    g = params.q_e * f - pe * (params.q_e + params.da) * y
    return WaveProfile(
        eta=eta, f=f, g=g, velocity=params.velocity, pe=pe,
        normalized=True, window=(float(eta[0]), float(eta[-1])),
    )


def _integrate_or_raise(sol, what: str):
    if sol.status == -1:
        raise ConvergenceError(f"{what}: integrator failed ({sol.message})")
    # legs without events run to a fixed eta and have no target state to miss
    if sol.t_events is not None and sol.status != 1:
        raise ConvergenceError(f"{what}: eta budget exhausted before reaching the target state")
    return sol


def _require_front(params: DimensionlessParameters) -> None:
    report = analyze_equilibria(params)
    if not report.admissible:
        raise ExistenceError(
            f"no decreasing front exists for orders (m, n) = ({params.m}, {params.n}): "
            f"{report.reason}", report,
        )


def _reduced_leg(params, settings, eta_from: float, f_from: float, *, shift: float = 0.0,
                 head: bool = False, window_only: bool = False) -> list[_Segment]:
    """Continue the front outward from (eta_from, f_from) with the reduced flow.

    The tail runs forward in eta on u = ln F and the head backward on
    u = ln(1 - F), which resolve the exponential or algebraic approach to the
    far-field states.  The leg runs until F is within F_STOP of its far-field
    state, then on to the window edge (normalized eta = +-eta_span) if that
    lies farther out; each part is skipped when its goal already holds, and
    ``window_only`` skips the first for a caller that stopped at F_STOP.
    """

    def rhs(_eta, u):
        r = math.exp(u[0])  # F on the tail, 1 - F on the head
        return ((-leading_order_rhs(1.0 - r, params) if head
                 else leading_order_rhs(r, params)) / r,)

    sign = -1.0 if head else 1.0
    f_map = (lambda u: 1.0 - np.exp(u)) if head else np.exp
    what = "head continuation" if head else "tail continuation"
    common = dict(method=LEAD_METHOD, rtol=settings.rel_tol, atol=settings.abs_tol,
                  dense_output=True)
    u_stop = math.log(F_STOP)
    u_from = math.log(1.0 - f_from if head else f_from)
    segments = []
    if not window_only and u_from > u_stop:
        hit = _event(lambda _e, u: u[0] - u_stop, direction=-1.0)
        sol = _integrate_or_raise(
            solve_ivp(rhs, (eta_from, eta_from + sign * settings.span_cap), [u_from],
                      events=[hit], **common), what)
        segments.append(_Segment(sol, shift, f_map))
        eta_from, u_from = float(sol.t[-1]), float(sol.y[0, -1])
    eta_edge = shift + sign * settings.eta_span
    if sign * (eta_edge - eta_from) > 0.0:
        sol = _integrate_or_raise(solve_ivp(rhs, (eta_from, eta_edge), [u_from], **common), what)
        segments.append(_Segment(sol, shift, f_map))
    return segments


def solve_leading_order(params: DimensionlessParameters,
                        settings: WaveSolverSettings | None = None) -> WaveProfile:
    """Front profile of the reduced (Pe = 0) equation, normalized to F(0) = 1/2.

    Two reduced legs start from F(0) = 1/2: the head runs backward in eta on
    ln(1 - F) and the tail forward on ln F, each until F is within F_STOP of
    its far-field state and the half-window eta_span is covered.
    """
    settings = settings or WaveSolverSettings()
    _require_front(params)
    segments = (_reduced_leg(params, settings, 0.0, 0.5, head=True)
                + _reduced_leg(params, settings, 0.0, 0.5))
    return _assemble_profile(segments, params, pe=0.0)


def solve_full_wave(params: DimensionlessParameters,
                    settings: WaveSolverSettings | None = None) -> WaveProfile:
    """Heteroclinic front of the full equation for Pe > 0, normalized to F(0) = 1/2.

    The solver seeds on the critical slow set at F = seed_delta next to the
    clean state and integrates backwards in eta until F = 1 - F_STOP; in
    reverse time the saturated state (1, 0) attracts along both
    eigendirections, so the connection is recovered without shooting.  The
    downstream tail past the seed, and the head if the window is still short,
    are appended with the reduced slow-manifold flow, which approximates the
    attracting manifold to O(Pe) there and never has to integrate against the
    repelling layer dynamics.
    """
    settings = settings or WaveSolverSettings()
    _require_front(params)
    pe = params.pe
    if pe == 0.0:
        raise DomainError("pe is zero: the reduced front is computed by solve_leading_order")

    delta = settings.seed_delta
    seed = (delta, float(slow_set(delta, params)))

    def rhs(_eta, z):
        return full_system_rhs(z[0], z[1], params)

    def backward(state, stop_f: float, what: str):
        hit = _event(lambda _e, z, _c=stop_f: z[0] - _c, direction=1.0)
        exit_low = _event(lambda _e, z: z[0] + 0.1, direction=-1.0)
        exit_high = _event(lambda _e, z: z[0] - 1.1, direction=1.0)
        half = _event(lambda _e, z: z[0] - 0.5, direction=1.0, terminal=False)
        sol = solve_ivp(rhs, (0.0, -settings.span_cap), state, method=STIFF_METHOD,
                        rtol=settings.rel_tol, atol=settings.abs_tol, dense_output=True,
                        events=[hit, exit_low, exit_high, half])
        if sol.t_events[1].size or sol.t_events[2].size:
            raise DivergenceError(
                "backward trajectory left F in [-0.1, 1.1]; the seed points away from the front"
            )
        _integrate_or_raise(sol, what)
        return sol

    # For algebraic downstream tails the front sits arbitrarily far from the seed,
    # so the integration clock restarts once F reaches ANCHOR_SPLIT; the half-
    # crossing is then located in small local coordinates, immune to the loss of
    # eta resolution that the long first leg accumulates.
    if delta < ANCHOR_SPLIT:
        leg_tail = backward(seed, ANCHOR_SPLIT, "backward leg to the anchor zone")
        s_end = float(leg_tail.t_events[0][0])
        state_split = tuple(leg_tail.y_events[0][0])
    else:
        leg_tail, s_end, state_split = None, 0.0, seed
    leg_front = backward(state_split, 1.0 - F_STOP, "backward heteroclinic leg")
    if leg_front.t_events[3].size == 0:
        raise ConvergenceError("backward leg never crossed F = 1/2")
    r0 = float(leg_front.t_events[3][0])  # anchor eta = 0 where F crosses 1/2

    eta0 = s_end + r0  # global position of the anchor relative to the seed
    segments = [_Segment(leg_front, r0)]
    if leg_tail is not None:
        segments.append(_Segment(leg_tail, eta0))
    segments += _reduced_leg(params, settings, float(leg_front.t[-1]), 1.0 - F_STOP,
                             shift=r0, head=True, window_only=True)
    segments += _reduced_leg(params, settings, 0.0, delta, shift=eta0)
    return _assemble_profile(segments, params, pe=pe)
