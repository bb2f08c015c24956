"""Work counters that the time integrators report, and the step-control rules
the two integrators share.

The wave layer reports ``IntegratorStats`` without loading the PDE solver.
The wave's Radau leg and the column's BDF, both ports of scipy's steppers,
share this module's bounds on a change of step, its initial step and its
Newton tolerance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

_EPS = sys.float_info.epsilon
_MIN_FACTOR, _MAX_FACTOR = 0.2, 10.0  # bounds on one change of step size


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
