"""Parameter types, adsorption kinetics, and equilibrium analysis.

The dimensional model is a fixed-bed column flushed at constant velocity with
contaminant at concentration ``c_in``; attachment/detachment follows a
power-law rate with global orders ``(m, n)`` whose equilibria reproduce the
Sips isotherm.  Everything downstream of this module works with the
nondimensional parameter set (Da, Pe, alpha, q_e, ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Relative tolerance for the alpha <-> q_e isotherm link.
ISOTHERM_LINK_RTOL = 1e-12

REASON_ADMISSIBLE = "m<=n"
REASON_INTERIOR = "interior-equilibrium"
REASON_INCREASING = "increasing-solutions"


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value) or value <= 0.0:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ReactionOrders:
    """Global reaction orders: m for the fluid phase, n for the adsorbed one."""

    m: int
    n: int

    def __post_init__(self):
        for name, value in (("m", self.m), ("n", self.n)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"reaction order {name} must be an integer, got {value!r}")
            if value < 1:
                raise DomainError(f"reaction order {name} must be >= 1, got {value}")

    @property
    def admissible(self) -> bool:
        """True when a front connecting saturation to the clean state can exist."""
        return self.m <= self.n


@dataclass(frozen=True)
class RawKinetics:
    """Rate constants of the attachment law before the adsorbed-fraction rescaling."""

    kappa_ad: float
    kappa_de: float
    c_sat: float  # fluid saturation concentration, kg/m^3

    def __post_init__(self):
        _require_positive(kappa_ad=self.kappa_ad, c_sat=self.c_sat)
        if not np.isfinite(self.kappa_de) or self.kappa_de < 0.0:
            raise DomainError(f"kappa_de must be >= 0, got {self.kappa_de!r}")


@dataclass(frozen=True)
class PhysicalParameters:
    """Dimensional column and kinetics parameters.

    ``diffusion`` may be omitted when the inverse Peclet number is supplied
    directly to :func:`nondimensionalize`.
    """

    epsilon: float          # void fraction
    u_in: float             # inlet velocity, m/s
    k_ad: float             # effective adsorption rate
    k_de: float             # effective desorption rate
    c_in: float             # inlet concentration, kg/m^3
    q_max: float            # maximum adsorbed fraction
    rho_b: float            # bed density, kg/m^3
    column_length: float    # m
    orders: ReactionOrders
    diffusion: float | None = None  # m^2/s

    def __post_init__(self):
        _require_positive(
            u_in=self.u_in, k_ad=self.k_ad, k_de=self.k_de, c_in=self.c_in,
            rho_b=self.rho_b, column_length=self.column_length,
        )
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not 0.0 < self.q_max < 1.0:
            raise DomainError(f"q_max must lie in (0, 1), got {self.q_max!r}")
        if self.diffusion is not None and (not np.isfinite(self.diffusion) or self.diffusion <= 0.0):
            raise DomainError(f"diffusion must be positive when given, got {self.diffusion!r}")


@dataclass(frozen=True)
class DimensionlessParameters:
    """Nondimensional model parameters.

    ``alpha`` and ``q_e`` are linked by the nondimensional isotherm
    alpha/(1-alpha) = (q_e/(1-q_e))^n; construction enforces the link through
    the alpha-space round trip, which stays well conditioned as q_e -> 1.
    """

    da: float
    pe: float
    alpha: float
    q_e: float
    orders: ReactionOrders
    ell: float = 20.0
    length_scale: float = 1.0
    time_scale: float = 1.0

    def __post_init__(self):
        _require_positive(da=self.da, ell=self.ell,
                          length_scale=self.length_scale, time_scale=self.time_scale)
        if not np.isfinite(self.pe) or self.pe < 0.0:
            raise DomainError(f"pe must be >= 0, got {self.pe!r}")
        for name, value in (("alpha", self.alpha), ("q_e", self.q_e)):
            if not 0.0 < value < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {value!r}")
        alpha_check = alpha_from_qe(self.q_e, self.orders.n)
        if not math.isclose(alpha_check, self.alpha, rel_tol=ISOTHERM_LINK_RTOL, abs_tol=1e-15):
            raise DomainError(
                "alpha and q_e do not satisfy the nondimensional isotherm: "
                f"alpha={self.alpha!r} but the isotherm gives {alpha_check!r}"
            )

    @classmethod
    def from_qe(cls, q_e: float, da: float, pe: float, orders: ReactionOrders,
                **extra) -> "DimensionlessParameters":
        return cls(da=da, pe=pe, alpha=alpha_from_qe(q_e, orders.n), q_e=q_e,
                   orders=orders, **extra)

    @classmethod
    def from_alpha(cls, alpha: float, da: float, pe: float, orders: ReactionOrders,
                   **extra) -> "DimensionlessParameters":
        return cls(da=da, pe=pe, alpha=alpha, q_e=qe_from_alpha(alpha, orders.n),
                   orders=orders, **extra)

    @property
    def m(self) -> int:
        return self.orders.m

    @property
    def n(self) -> int:
        return self.orders.n

    @property
    def velocity(self) -> float:
        """Travelling-front velocity 1/(q_e + Da) for the clean downstream state."""
        return 1.0 / (self.q_e + self.da)


@dataclass(frozen=True)
class PolynomialRoot:
    value: float
    multiplicity: int


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of the equilibrium analysis of the leading-order front equation."""

    admissible: bool
    roots_in_unit_interval: tuple[PolynomialRoot, ...]
    interior_equilibrium: float | None
    reason: str


def sips_isotherm(c_in: float, k_l: float, q_max: float, orders: ReactionOrders) -> float:
    """Equilibrium adsorbed fraction q_e = q_max (k_l c^m)^(1/n) / (1 + (k_l c^m)^(1/n))."""
    _require_positive(c_in=c_in, k_l=k_l, q_max=q_max)
    x = (k_l * c_in ** orders.m) ** (1.0 / orders.n)
    return q_max * x / (1.0 + x)


def equilibrium_fraction_from_masses(m_final: float, m_initial: float) -> float:
    """Adsorbed fraction measured by weighing the column: (m_final - m_initial)/m_initial."""
    if not np.isfinite(m_initial) or m_initial <= 0.0:
        raise DomainError(f"initial mass must be positive, got {m_initial!r}")
    if not np.isfinite(m_final) or m_final < m_initial:
        raise DomainError(f"final mass {m_final!r} must be >= initial mass {m_initial!r}")
    return (m_final - m_initial) / m_initial


def convert_raw_rates(raw: RawKinetics, rho_b: float, epsilon: float,
                      orders: ReactionOrders) -> tuple[float, float]:
    """Effective rates for the adsorbed-fraction law.

    k_de absorbs the fluid saturation concentration; both rates pick up the
    bed-density rescaling (rho_b/(1-eps))^(n-1).
    """
    _require_positive(rho_b=rho_b)
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    scale = (rho_b / (1.0 - epsilon)) ** (orders.n - 1)
    k_ad = raw.kappa_ad * scale
    k_de = raw.c_sat ** orders.m * raw.kappa_de * scale
    return k_ad, k_de


def qe_from_alpha(alpha: float, n: int) -> float:
    """Invert the nondimensional isotherm: q_e = r/(1+r) with r = (alpha/(1-alpha))^(1/n)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if n < 1:
        raise DomainError(f"order n must be >= 1, got {n!r}")
    r = (alpha / (1.0 - alpha)) ** (1.0 / n)
    return r / (1.0 + r)


def alpha_from_qe(q_e: float, n: int) -> float:
    """Adsorption weight alpha = R/(1+R) with R = (q_e/(1-q_e))^n."""
    if not 0.0 < q_e < 1.0:
        raise DomainError(f"q_e must lie in (0, 1), got {q_e!r}")
    if n < 1:
        raise DomainError(f"order n must be >= 1, got {n!r}")
    try:
        big_r = (q_e / (1.0 - q_e)) ** n
        alpha = big_r / (1.0 + big_r)
    except OverflowError:  # R past the largest double
        alpha = 1.0
    if not alpha < 1.0:
        raise DomainError(
            f"alpha = R/(1+R) with R = (q_e/(1-q_e))^n rounds to 1 in double precision "
            f"for q_e = {q_e!r}, n = {n}"
        )
    return alpha


def nondimensionalize(p: PhysicalParameters, pe: float | None = None) -> DimensionlessParameters:
    """Nondimensionalize the column model.

    The reaction time scale is tau = q_max^(1-n)/(k_ad c_in^m + k_de), the
    length scale follows from the adsorption-capacity balance, and Da, Pe and
    alpha are the usual ratios.  ``pe`` overrides the diffusion coefficient
    when supplied (it is the swept free parameter in sensitivity studies).
    """
    m, n = p.orders.m, p.orders.n
    rate = p.k_ad * p.c_in ** m + p.k_de
    tau = p.q_max ** (1 - n) / rate
    length_scale = p.epsilon * tau * p.u_in * p.c_in / (p.rho_b * p.q_max)
    da = length_scale / (tau * p.u_in)
    alpha = p.k_ad * p.c_in ** m / rate
    if pe is None:
        if p.diffusion is None:
            raise DomainError("either diffusion or an explicit pe is required")
        pe = p.diffusion / (p.u_in * length_scale)
    elif pe < 0.0:
        raise DomainError(f"pe must be >= 0, got {pe!r}")
    return DimensionlessParameters(
        da=da, pe=pe, alpha=alpha, q_e=qe_from_alpha(alpha, n), orders=p.orders,
        ell=p.column_length / length_scale,
        length_scale=length_scale, time_scale=tau,
    )


def _rate_law(params: DimensionlessParameters):
    """The attachment rate r(c, q) and its partials, with the constants of ``params`` bound.

    r(c, q) = alpha c^m (1-q)^n - (1-alpha) q^n, written with
    1 - alpha = alpha ((1-q_e)/q_e)^n from the isotherm: both factors are
    exactly one at (1, q_e), so the rate is exactly zero there and at (0, 0).
    The three closures (r, dr/dq, dr/dc) take floats or arrays.
    """
    q_e, m, n = params.q_e, params.m, params.n
    one_minus_qe = 1.0 - q_e
    amp = params.alpha * one_minus_qe ** n
    amp_q = -n * params.alpha * one_minus_qe ** n
    amp_c = m * amp
    n_q = n - 1
    m_c = m - 1

    def r(c, q):
        return amp * (c ** m * ((1.0 - q) / one_minus_qe) ** n - (q / q_e) ** n)

    def r_q(c, q):
        return amp_q * (c ** m * ((1.0 - q) / one_minus_qe) ** n_q / one_minus_qe
                        + (q / q_e) ** n_q / q_e)

    def r_c(c, q):
        return amp_c * c ** m_c * ((1.0 - q) / one_minus_qe) ** n

    return r, r_q, r_c


def _uptake(c, q, params: DimensionlessParameters):
    """The attachment rate r(c, q) of ``_rate_law``."""
    return _rate_law(params)[0](c, q)


def equilibrium_polynomial(x, params: DimensionlessParameters):
    """Equilibrium polynomial of the leading-order front equation (factored form).

    p(x) = -r(x, q_e x) / q_e^n with the attachment rate
    r(c, q) = alpha (1-q_e)^n [c^m ((1-q)/(1-q_e))^n - (q/q_e)^n], which is
    algebraically identical to (1-alpha) x^n - alpha x^m (1/q_e - x)^n under the
    isotherm link.  The factored form vanishes exactly at x = 0 and x = 1.
    """
    x = np.asarray(x, dtype=float)
    out = -_uptake(x, params.q_e * x, params) / params.q_e ** params.n
    return out if out.ndim else float(out)


def _interior_root(m: int, n: int, a: float) -> float:
    """The root in (0, 1) of (a - 1)^n - x^(m-n) (a - x)^n, for m > n and 1 < a < m/(m-n).

    Under the isotherm link 1 - alpha = alpha (a - 1)^n this is the
    equilibrium polynomial divided by alpha x^n.  Its root x = 1 is divided
    out exactly, so the interior root stays separable from x = 1 however
    close a lies to the threshold.  x^(m-n) (a - x)^n rises and then falls on
    (0, 1), so the quotient has exactly one root there.
    """
    # coefficients, highest power first: x^(m-n) (a - x)^n, then the constant
    power = [math.comb(n, k) * (-1.0) ** k * a ** (n - k) for k in range(n, -1, -1)]
    poly = -np.array(power + [0.0] * (m - n))
    poly[-1] += (a - 1.0) ** n
    quotient, _ = np.polydiv(poly, [1.0, -1.0])  # the remainder is roundoff
    roots = np.roots(quotient)
    inside = [r.real for r in roots if r.imag == 0.0 and 0.0 < r.real < 1.0]
    if len(inside) != 1:
        raise DomainError(f"expected one interior equilibrium on (0, 1), found {len(inside)}")
    return float(inside[0])


def analyze_equilibria(params: DimensionlessParameters) -> EquilibriumReport:
    """Classify the equilibria of the leading-order front equation on [0, 1].

    x = 0 and x = 1 are always equilibria.  For m <= n they are the only ones
    and decreasing fronts from 1 to 0 exist.  For m > n the front is ruled
    out: either an interior equilibrium c* blocks the connection (a < m/(m-n))
    or every solution in (0, 1) increases.
    """
    m, n = params.m, params.n
    a = 1.0 / params.q_e
    roots = [PolynomialRoot(0.0, min(m, n))]
    if m <= n:
        roots.append(PolynomialRoot(1.0, 1))
        return EquilibriumReport(True, tuple(roots), None, REASON_ADMISSIBLE)
    threshold = m / (m - n)
    # at the threshold x = 1 is a double root; within 1e-9 of it the interior
    # root is reported as merged with x = 1
    at_threshold = math.isclose(a, threshold)
    if a < threshold and not at_threshold:
        c_star = _interior_root(m, n, a)
        roots.append(PolynomialRoot(c_star, 1))
        roots.append(PolynomialRoot(1.0, 1))
        return EquilibriumReport(False, tuple(roots), c_star, REASON_INTERIOR)
    roots.append(PolynomialRoot(1.0, 2 if at_threshold else 1))
    return EquilibriumReport(False, tuple(roots), None, REASON_INCREASING)
