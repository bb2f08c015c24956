"""Exception types shared across the toolkit."""

from __future__ import annotations


class AdsorptionError(Exception):
    """Base class for all toolkit errors."""


class DomainError(AdsorptionError, ValueError):
    """An input lies outside the admissible domain of an operation."""


class DegenerateStatesError(AdsorptionError, ValueError):
    """Far-field states make the wave velocity undefined (zero denominator)."""


class DegenerateSystemError(AdsorptionError, ValueError):
    """The transport system is degenerate (vanishing Damkohler number)."""


class ExistenceError(AdsorptionError):
    """No travelling wave connecting saturation to the clean state exists.

    Carries the :class:`~adsorb.model.EquilibriumReport` explaining why.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DivergenceError(AdsorptionError, RuntimeError):
    """The seed of a backward front integration lies outside F in (0, 1/2).

    No trajectory from such a seed runs from the clean side of the front
    through its anchor F = 1/2 to the saturated state.
    """


class ConvergenceError(AdsorptionError, RuntimeError):
    """An integrator failed before reaching the target state."""


class CoverageError(AdsorptionError, ValueError):
    """A profile does not cover the window or levels required by an operation."""


class FrontNotFoundError(AdsorptionError, ValueError):
    """The tracked concentration level is never crossed by the solution."""


class StiffnessError(AdsorptionError, RuntimeError):
    """Implicit time integration failed: its step size collapsed.

    BDF has no explicit stability limit, so this signals a state the Newton
    iteration cannot follow, such as unphysical initial fields or a grid too
    coarse for the transport.
    """


class ConfigError(AdsorptionError, ValueError):
    """A run configuration document is malformed or inconsistent."""


class ConsistencyError(ConfigError):
    """Jointly specified alpha and q_e violate the nondimensional isotherm."""


class CellPecletWarning(UserWarning):
    """The grid under-resolves the advection/diffusion balance (spacing/Pe >= 2)."""
