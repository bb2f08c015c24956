"""Simulation and sensitivity toolkit for fixed-bed adsorption columns."""

from .errors import (
    AdsorptionError,
    CellPecletWarning,
    ConfigError,
    ConvergenceError,
    CoverageError,
    DomainError,
    ExistenceError,
)
from .model import (
    DimensionlessParameters,
    EquilibriumReport,
    PhysicalParameters,
    RawKinetics,
    ReactionOrders,
    alpha_from_qe,
    analyze_equilibria,
    convert_raw_rates,
    equilibrium_fraction_from_masses,
    equilibrium_polynomial,
    nondimensionalize,
    qe_from_alpha,
    sips_isotherm,
)
from .wave import (
    WaveProfile,
    closed_form_wave_11,
    full_system_rhs,
    g_from_f,
    leading_order_rhs,
    solve_full_wave,
    solve_leading_order,
)

__version__ = "0.1.0"
