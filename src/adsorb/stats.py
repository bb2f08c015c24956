"""Work counters that the time integrators report, the column solver's
tolerances, and the step-control rules the two integrators share.

All live in this scipy-free module: the wave layer reports ``IntegratorStats``
and the config layer reads ``PdeSolverSettings``'s defaults without loading
the PDE solver.  The wave and column settings share one tolerance check, and
the wave's Radau leg and the column's BDF, both ports of scipy's steppers,
share its bounds on a change of step, its initial step and its Newton
tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .model import _require_positive


def _check_tolerances(rel_tol: float, abs_tol: float) -> None:
    """Refuse a tolerance that is not finite, a ``rel_tol`` <= 0 and an ``abs_tol`` < 0."""
    _require_positive(rel_tol=rel_tol)
    if not (math.isfinite(abs_tol) and abs_tol >= 0.0):
        raise DomainError(f"abs_tol must be >= 0 and finite, got {abs_tol!r}")


_EPS = sys.float_info.epsilon
_MIN_FACTOR, _MAX_FACTOR = 0.2, 10.0  # bounds on one change of step size
_BDF_MIN_RTOL = 100 * _EPS  # below it the BDF error estimate is roundoff


def _probe_step(d0: float, d1: float, span: float) -> float:
    """The probe step of the initial-step rule of Hairer, Norsett & Wanner I, Sec. II.4.

    d0 and d1 are the norms of y and y' in the error scale.
    """
    return min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)


def _initial_step(h0: float, d1: float, d2: float, span: float, error_order: int) -> float:
    """The first step from the probe step h0, for a method of error order ``error_order``.

    d2 is the norm of (f(y + h0 y') - y') / h0 in the error scale.
    """
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / (error_order + 1)))
    return min(100 * h0, h1, span)


def _newton_tol(rtol: float) -> float:
    """The tolerance on the simplified Newton iteration's correction norm."""
    return max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))


@dataclass(frozen=True)
class IntegratorStats:
    """What the time integrator did: its method and its work counters."""

    time_method: str
    nfev: int  # right-hand-side evaluations
    njev: int  # Jacobian evaluations
    nlu: int   # LU factorisations
    steps: int  # accepted steps


@dataclass(frozen=True)
class PdeSolverSettings:
    """Tolerances of the column PDE's time integrator.

    They mean scipy's ``rtol`` and ``atol``.  Construction refuses a tolerance
    that is not finite, a ``rel_tol`` below 100 ulps of 1 (where scipy's BDF
    would raise it to that floor) and an ``abs_tol`` <= 0: the entries of a
    clean column are exactly zero, and with no ``abs_tol`` their error scale
    would be zero too.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9

    def __post_init__(self):
        _check_tolerances(self.rel_tol, self.abs_tol)
        if self.rel_tol < _BDF_MIN_RTOL:
            raise DomainError(
                f"rel_tol must be at least {_BDF_MIN_RTOL!r} for the column, got {self.rel_tol!r}")
        if self.abs_tol == 0.0:
            raise DomainError("abs_tol must be positive for the column, got 0.0")
