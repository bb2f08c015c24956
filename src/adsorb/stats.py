"""Work counters that the time integrators report, and the column solver's tolerances.

Both live in this scipy-free module: the wave layer reports ``IntegratorStats``
and the config layer reads ``PdeSolverSettings``'s defaults without loading
the PDE solver.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntegratorStats:
    """What the time integrator did: its method and its work counters."""

    time_method: str
    nfev: int  # right-hand-side evaluations
    njev: int  # Jacobian evaluations (the analytic sparse Jacobian for the PDE)
    nlu: int   # LU factorisations
    steps: int | None = None  # accepted steps, where the integrator reports them


@dataclass(frozen=True)
class PdeSolverSettings:
    """Tolerances of the column PDE's time integrator."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
