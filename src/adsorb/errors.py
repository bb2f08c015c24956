"""Exception types shared across the toolkit.

Each type names one cause, and the command line maps the type alone to its
exit code: ``ConfigError`` and ``DomainError`` exit 2, ``ExistenceError``
exits 3, ``ConvergenceError`` and ``CoverageError`` exit 4.
"""

from __future__ import annotations


class AdsorptionError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AdsorptionError, ValueError):
    """A run configuration document is malformed or inconsistent."""


class DomainError(AdsorptionError, ValueError):
    """An input lies outside the admissible domain of an operation."""


class ExistenceError(AdsorptionError):
    """No travelling wave connecting saturation to the clean state exists.

    Carries the :class:`~adsorb.model.EquilibriumReport` explaining why.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(AdsorptionError, RuntimeError):
    """A numerical method on valid input did not finish.

    The wave leg's or the column's implicit step collapsed, a value went
    non-finite, or a root search did not find the root it was built to find.
    """


class CoverageError(AdsorptionError, ValueError):
    """A result on valid input does not reach what an operation requires.

    A profile does not cover a window or level, the outlet never reaches a
    threshold, or a tracked level is crossed too rarely to fit a speed.
    """


class CellPecletWarning(UserWarning):
    """The grid under-resolves the advection/diffusion balance (spacing/Pe >= 2)."""
