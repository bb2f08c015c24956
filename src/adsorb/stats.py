"""Work counters that the time integrators report."""

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
