"""Sensitivity of the front to the inverse Peclet number.

Quantifies how far the full front at a given Pe sits from the reduced Pe = 0
front: an L2 profile distance over a fixed transition window, and the signed
relative shift of the breakthrough window time (the time the front needs to
raise the outlet concentration from a trace level to the first percent).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from .errors import AdsorptionError, CoverageError
from .model import DimensionlessParameters, _require_positive
from .stats import IntegratorStats
from .wave import WaveProfile, solve_full_wave, solve_leading_order

DEFAULT_ETA_STAR = 20.0
DEFAULT_QUAD_POINTS = 2001
THRESHOLD_HI = 1e-2
THRESHOLD_LO = 1e-4
# the paper's inverse-Peclet grid: Pe = 0, 10 equispaced values on (0, 0.5]
# and 5 on (0.5, 1.5]
PE_VALUES = tuple(np.concatenate([np.linspace(0.0, 0.5, 11),
                                  np.linspace(0.5, 1.5, 6)[1:]]).tolist())


@dataclass(frozen=True)
class SweepRecord:
    """Per-Pe sensitivity result; ``error`` marks a failed solve.

    ``stats`` holds the work counters of the leg of a front that was solved
    and measured.
    """

    pe: float
    l2_error: float
    t_window: float
    e_bt: float
    error: str | None = None
    stats: IntegratorStats | None = None


def l2_profile_error(full: WaveProfile, leading: WaveProfile) -> float:
    """L2 distance between two normalized fronts over [-DEFAULT_ETA_STAR, DEFAULT_ETA_STAR].

    Both profiles are interpolated onto a common uniform grid of
    DEFAULT_QUAD_POINTS points and the squared difference is integrated by the
    trapezoidal rule.  A profile covers the grid where ``f_at`` has a value
    there: inside its window, or upstream of a head that reached saturation.
    """
    grid = np.linspace(-DEFAULT_ETA_STAR, DEFAULT_ETA_STAR, DEFAULT_QUAD_POINTS)
    return _l2_distance(full, leading, leading.f_at(grid), grid)


def _l2_distance(full: WaveProfile, leading: WaveProfile, f_leading: np.ndarray,
                 grid: np.ndarray) -> float:
    """``l2_profile_error`` with the leading front already sampled on ``grid``.

    The full profile's coverage is checked first, then the leading one's.
    """
    f_full = full.f_at(grid)
    for name, prof, values in (("full", full, f_full), ("leading", leading, f_leading)):
        if np.isnan(values).any():
            raise CoverageError(f"{name} profile window {prof.window} does not cover "
                                f"[{float(grid[0])}, {float(grid[-1])}]")
    diff = f_full - f_leading
    return float(np.sqrt(np.trapezoid(diff * diff, grid)))


def breakthrough_window_time(profile: WaveProfile) -> float:
    """Time for the moving front to sweep the outlet from F = THRESHOLD_LO up to THRESHOLD_HI.

    The front decreases in eta, so the low level sits downstream of the high
    level and the window is (eta(THRESHOLD_LO) - eta(THRESHOLD_HI)) / v.
    """
    return (profile.eta_at(THRESHOLD_LO) - profile.eta_at(THRESHOLD_HI)) / profile.velocity


def breakthrough_error(t_pe: float, t_0: float) -> float:
    """Signed relative error (t_pe - t_0) / t_0 of the breakthrough window time."""
    _require_positive(t_0=t_0)
    return (t_pe - t_0) / t_0


def _record(params: DimensionlessParameters, leading: WaveProfile, f_leading: np.ndarray,
            grid: np.ndarray, t_0: float) -> SweepRecord:
    pe = params.pe
    try:
        full = solve_full_wave(params)
        err = _l2_distance(full, leading, f_leading, grid)
        t_pe = breakthrough_window_time(full)
        return SweepRecord(pe=pe, l2_error=err, t_window=t_pe,
                           e_bt=breakthrough_error(t_pe, t_0), stats=full.stats)
    except AdsorptionError as exc:  # record and keep sweeping
        return SweepRecord(pe=pe, l2_error=float("nan"), t_window=float("nan"),
                           e_bt=float("nan"), error=f"{type(exc).__name__}: {exc}")


def run_sweep(params: DimensionlessParameters) -> list[SweepRecord]:
    """Solve the front for every Pe of ``PE_VALUES`` and compare against the Pe = 0 front.

    The leading-order profile is computed, and sampled on the L2 grid over
    [-DEFAULT_ETA_STAR, DEFAULT_ETA_STAR], once; the fronts' sampled window,
    ``wave.ETA_SPAN``, reaches past it.  Every positive Pe gets its own
    ``solve_full_wave`` and contributes the L2 distance, the breakthrough
    window time over F = THRESHOLD_LO to THRESHOLD_HI, its signed relative
    error and the leg's counters.  Failures are recorded with an error
    marker instead of aborting the sweep, and mark only the Pe that failed.
    Records are returned in ``PE_VALUES`` order.
    """
    eta = np.linspace(-DEFAULT_ETA_STAR, DEFAULT_ETA_STAR, DEFAULT_QUAD_POINTS)
    leading = solve_leading_order(params)
    t_0 = breakthrough_window_time(leading)
    f_leading = leading.f_at(eta)
    return [SweepRecord(pe=0.0, l2_error=0.0, t_window=t_0, e_bt=0.0) if pe == 0.0
            else _record(replace(params, pe=pe), leading, f_leading, eta, t_0)
            for pe in PE_VALUES]
