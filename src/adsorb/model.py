"""Parameter types, adsorption kinetics, and equilibrium analysis.

The dimensional model is a fixed-bed column flushed at constant velocity with
contaminant at concentration ``c_in``; attachment/detachment follows a
power-law rate with global orders ``(m, n)`` whose equilibria reproduce the
Sips isotherm.  Everything downstream of this module works with the
nondimensional parameter set (Da, Pe, alpha, q_e, ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError

REASON_ADMISSIBLE = "m<=n"
REASON_INTERIOR = "interior-equilibrium"
REASON_INCREASING = "increasing-solutions"


def _shown(value) -> str:
    """``repr(value)``, or the size of an int too long for repr (past 4,300 digits by default)."""
    try:
        return repr(value)
    except ValueError:  # Python's limit on int-to-string conversion
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"


def _finite(value) -> bool:
    """math.isfinite, with an int past the doubles (OverflowError) read as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not _finite(value) or value <= 0.0:
            raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")


def _require_fraction(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < 1.0:
            raise DomainError(f"{name} must lie in (0, 1), got {_shown(value)}")


def _require_integer(name: str, value) -> None:
    """Refuse anything but a Python or numpy integer; bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")


def _require_sizable(name: str, value: int, n_floats: int) -> None:
    """Refuse a count ``value`` whose array of ``n_floats`` doubles numpy cannot size."""
    n_bytes = 8 * n_floats
    if n_bytes > np.iinfo(np.intp).max:
        raise DomainError(f"{name} = {_shown(value)} asks for an array of {_shown(n_bytes)} "
                          f"bytes, more than numpy can size ({np.iinfo(np.intp).max})")


@dataclass(frozen=True)
class ReactionOrders:
    """Global reaction orders: m for the fluid phase, n for the adsorbed one."""

    m: int
    n: int

    def __post_init__(self):
        for name, value in (("m", self.m), ("n", self.n)):
            _require_integer(f"reaction order {name}", value)
            if value < 1:
                raise DomainError(f"reaction order {name} must be >= 1, got {_shown(value)}")

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
        if not _finite(self.kappa_de) or self.kappa_de < 0.0:
            raise DomainError(f"kappa_de must be >= 0, got {_shown(self.kappa_de)}")


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
        _require_fraction(epsilon=self.epsilon, q_max=self.q_max)
        if self.diffusion is not None:
            _require_positive(diffusion=self.diffusion)


@dataclass(frozen=True)
class DimensionlessParameters:
    """Nondimensional model parameters.

    ``q_e`` is the one stored isotherm constant; ``alpha`` is derived from it
    once, through the nondimensional isotherm alpha/(1-alpha) = (q_e/(1-q_e))^n,
    so the two cannot disagree; a caller holding alpha passes
    ``qe_from_alpha(alpha, n)``.  alpha may round to 1 as q_e -> 1; nothing
    downstream forms 1 - alpha.
    """

    da: float
    pe: float
    q_e: float
    orders: ReactionOrders
    ell: float = 20.0
    length_scale: float = 1.0
    time_scale: float = 1.0
    alpha: float = field(init=False)

    def __post_init__(self):
        _require_positive(da=self.da, ell=self.ell,
                          length_scale=self.length_scale, time_scale=self.time_scale)
        if not _finite(self.pe) or self.pe < 0.0:
            raise DomainError(f"pe must be >= 0, got {_shown(self.pe)}")
        object.__setattr__(self, "alpha", alpha_from_qe(self.q_e, self.orders.n))

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
    try:  # float ** and int * float raise on overflow; a float product turns inf
        x = (k_l * c_in ** orders.m) ** (1.0 / orders.n)
        if math.isinf(x):
            raise OverflowError("k_l c_in^m is past the largest double")
    except OverflowError as exc:
        raise DomainError(f"the isotherm overflows at c_in = {_shown(c_in)}, m = {orders.m}: "
                          f"{exc}") from exc
    return q_max * x / (1.0 + x)


def equilibrium_fraction_from_masses(m_final: float, m_initial: float) -> float:
    """Adsorbed fraction measured by weighing the column: (m_final - m_initial)/m_initial."""
    _require_positive(m_initial=m_initial)
    if not _finite(m_final) or m_final < m_initial:
        raise DomainError(f"final mass {_shown(m_final)} must be >= initial mass "
                          f"{_shown(m_initial)}")
    return (m_final - m_initial) / m_initial


def convert_raw_rates(raw: RawKinetics, rho_b: float, epsilon: float,
                      orders: ReactionOrders) -> tuple[float, float]:
    """Effective rates for the adsorbed-fraction law.

    k_de absorbs the fluid saturation concentration; both rates pick up the
    bed-density rescaling (rho_b/(1-eps))^(n-1).
    """
    _require_positive(rho_b=rho_b)
    _require_fraction(epsilon=epsilon)
    scale = (rho_b / (1.0 - epsilon)) ** (orders.n - 1)
    k_ad = raw.kappa_ad * scale
    k_de = raw.c_sat ** orders.m * raw.kappa_de * scale
    return k_ad, k_de


def qe_from_alpha(alpha: float, n: int) -> float:
    """Invert the nondimensional isotherm: q_e = r/(1+r) with r = (alpha/(1-alpha))^(1/n)."""
    _require_fraction(alpha=alpha)
    if n < 1:
        raise DomainError(f"order n must be >= 1, got {_shown(n)}")
    r = (alpha / (1.0 - alpha)) ** (1.0 / n)
    return r / (1.0 + r)


def alpha_from_qe(q_e: float, n: int) -> float:
    """Adsorption weight alpha = R/(1+R) with R = (q_e/(1-q_e))^n, as it rounds.

    alpha is 1.0 where R/(1+R) rounds to 1 or R overflows.
    """
    _require_fraction(q_e=q_e)
    if n < 1:
        raise DomainError(f"order n must be >= 1, got {_shown(n)}")
    try:
        # math.pow raises on overflow for numpy scalars too, where ** gives inf
        big_r = math.pow(q_e / (1.0 - q_e), n)
    except OverflowError:  # R past the largest double
        return 1.0
    return big_r / (1.0 + big_r)


def nondimensionalize(p: PhysicalParameters, pe: float | None = None) -> DimensionlessParameters:
    """Nondimensionalize the column model.

    The reaction time scale is tau = q_max^(1-n)/(k_ad c_in^m + k_de), the
    length scale follows from the adsorption-capacity balance, and Da, Pe and
    alpha are the usual ratios.  ``pe`` overrides the diffusion coefficient
    when supplied (it is the swept free parameter in sensitivity studies).
    Scales past the doubles, such as c_in^m overflowing, raise ``DomainError``.
    """
    m, n = p.orders.m, p.orders.n
    try:  # float ** raises on overflow; an infinite rate makes tau zero
        adsorption = p.k_ad * p.c_in ** m
        rate = adsorption + p.k_de
        tau = p.q_max ** (1 - n) / rate
        length_scale = p.epsilon * tau * p.u_in * p.c_in / (p.rho_b * p.q_max)
        da = length_scale / (tau * p.u_in)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"the time and length scales overflow at c_in = {_shown(p.c_in)}, "
                          f"m = {m}, q_max = {_shown(p.q_max)}, n = {n}: {exc}") from exc
    alpha = adsorption / rate
    if pe is None:
        if p.diffusion is None:
            raise DomainError("either diffusion or an explicit pe is required")
        pe = p.diffusion / (p.u_in * length_scale)
    return DimensionlessParameters(
        da=da, pe=pe, q_e=qe_from_alpha(alpha, n), orders=p.orders,
        ell=p.column_length / length_scale,
        length_scale=length_scale, time_scale=tau,
    )


def _rate_law(params: DimensionlessParameters):
    """The attachment rate r(c, q) and its partials, with the constants of ``params`` bound.

    r(c, q) = alpha c^m (1-q)^n - (1-alpha) q^n, written with
    1 - alpha = alpha ((1-q_e)/q_e)^n from the isotherm: both factors are
    exactly one at (1, q_e), so the rate is exactly zero there and at (0, 0).
    The three closures (r, dr/dq, dr/dc) take floats or arrays of one shape.
    For (m, n) = (1, 1) they are written without the powers x^1 = x and
    x^0 = 1, which are exact, so they give the same doubles with fewer
    operations.
    """
    q_e, m, n = params.q_e, params.m, params.n
    one_minus_qe = 1.0 - q_e
    amp = params.alpha * one_minus_qe ** n
    amp_q = -n * params.alpha * one_minus_qe ** n
    amp_c = m * amp
    n_q = n - 1
    m_c = m - 1
    if m == n == 1:
        inv_qe = 1.0 / q_e

        def r(c, q):
            return amp * (c * ((1.0 - q) / one_minus_qe) - q / q_e)

        def r_q(c, q):
            return amp_q * (c / one_minus_qe + inv_qe)

        def r_c(c, q):
            return amp_c * ((1.0 - q) / one_minus_qe)

        return r, r_q, r_c

    def r(c, q):
        return amp * (c ** m * ((1.0 - q) / one_minus_qe) ** n - (q / q_e) ** n)

    def r_q(c, q):
        return amp_q * (c ** m * ((1.0 - q) / one_minus_qe) ** n_q / one_minus_qe
                        + (q / q_e) ** n_q / q_e)

    def r_c(c, q):
        return amp_c * c ** m_c * ((1.0 - q) / one_minus_qe) ** n

    return r, r_q, r_c


def equilibrium_polynomial(x, params: DimensionlessParameters):
    """Equilibrium polynomial of the leading-order front equation (factored form).

    p(x) = -r(x, q_e x) / q_e^n with the attachment rate
    r(c, q) = alpha (1-q_e)^n [c^m ((1-q)/(1-q_e))^n - (q/q_e)^n], which is
    algebraically identical to (1-alpha) x^n - alpha x^m (1/q_e - x)^n under the
    isotherm link.  The factored form vanishes exactly at x = 0 and x = 1.
    """
    x = np.asarray(x, dtype=float)
    out = -_rate_law(params)[0](x, params.q_e * x) / params.q_e ** params.n
    return out if out.ndim else float(out)


def _interior_root(m: int, n: int, a: float) -> float:
    """The root in (0, 1) of (a - 1)^n - x^(m-n) (a - x)^n, for m > n and 1 < a < m/(m-n).

    Under the isotherm link 1 - alpha = alpha (a - 1)^n this is the
    equilibrium polynomial divided by alpha x^n.  x^(m-n) (a - x)^n rises and
    then falls on (0, 1), so the quotient by x - 1 has exactly one root there.
    Close to the threshold the deflated quotient can lose that root: with q_e
    one ulp above (m-n)/m it finds none for (3,2), (4,1), (5,4), (7,5) and
    (8,6), among others, and raises.  ``analyze_equilibria`` answers within
    1e-9 of the threshold without calling it.
    """
    # coefficients, highest power first: x^(m-n) (a - x)^n, then the constant
    power = [math.comb(n, k) * (-1.0) ** k * a ** (n - k) for k in range(n, -1, -1)]
    poly = -np.array(power + [0.0] * (m - n))
    poly[-1] += (a - 1.0) ** n
    quotient, _ = np.polydiv(poly, [1.0, -1.0])  # the remainder is roundoff
    roots = np.roots(quotient)
    inside = [r.real for r in roots if r.imag == 0.0 and 0.0 < r.real < 1.0]
    if len(inside) != 1:
        raise ConvergenceError(f"expected one interior equilibrium on (0, 1), found {len(inside)}")
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
    if params.orders.admissible:
        roots.append(PolynomialRoot(1.0, 1))
        return EquilibriumReport(True, tuple(roots), None, REASON_ADMISSIBLE)
    threshold = m / (m - n)
    # at the threshold x = 1 is a double root; within 1e-9 of it the interior
    # root, which the deflated quotient can lose, is reported merged with x = 1
    at_threshold = math.isclose(a, threshold)
    if a < threshold and not at_threshold:
        c_star = _interior_root(m, n, a)
        roots.append(PolynomialRoot(c_star, 1))
        roots.append(PolynomialRoot(1.0, 1))
        return EquilibriumReport(False, tuple(roots), c_star, REASON_INTERIOR)
    roots.append(PolynomialRoot(1.0, 2 if at_threshold else 1))
    return EquilibriumReport(False, tuple(roots), None, REASON_INCREASING)
