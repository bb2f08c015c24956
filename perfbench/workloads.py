"""Workload inputs drawn from a seed, and the checks on their artifacts.

Each workload is a list of CLI invocations ``(mode, config, out_name)``.  Seed 0
gives the reference inputs; any other seed scales them with factors drawn
from a numpy ``Generator``.  The program only ever sees the resulting config
documents.

The checks read the artifacts back outside the timed region and return
``(name, ok, detail)`` triples; each one counts as an attempted operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("column", "sweep", "profiles")

# README reference column, (m, n) = (1, 1): q_e = 0.99993, Da = 0.00705, ell = 18.9.
COLUMN_PHYSICAL = {
    "epsilon": 0.3357, "u_in": 0.13, "k_ad": 1.13, "k_de": 2.173e-4,
    "c_in": 2.835, "q_max": 0.358, "rho_b": 377.25, "column_length": 5.4e-3,
    "m": 1, "n": 1,
}
COLUMN_PE = 0.1
# t_end = 10 is the shortest horizon at which the front has formed: at t_end = 6
# the level spread is 4.1%, above the 2% tolerance.
COLUMN_SOLVER = {"n_cells": 400, "t_end": 10.0, "n_snapshots": 51}

SWEEP_FAMILIES = ((1, 1, 0.1), (2, 2, 0.5), (2, 3, 0.1))   # (m, n, Da)
PROFILE_FAMILIES = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4))
PROFILE_PE = (0.0, 0.01, 0.1, 0.5, 1.5)
Q_E = 0.7
PROFILE_DA = 0.1

QE_RANGE = (0.95, 1.05)
DA_RANGE = (0.8, 1.2)   # also the column's pe range

SPEED_TOL = 0.05         # criterion 5: |v(0.5) - v| / v
LEVEL_SPREAD_TOL = 0.02  # criterion 5: (max - min) / min of the level speeds
MASS_RESIDUAL_TOL = 1e-3  # criterion 6
E_BT_TOL = 0.05          # criterion 4, not applied to (1, 1), which is red by design
WINDOW_ORACLE_RTOL = 1e-6
LOGISTIC_TOL = 1e-6      # criterion 1
ORACLE_HALF_WIDTH = 20.0


def _factors(rng: np.random.Generator | None, *ranges: tuple[float, float]) -> list[float]:
    if rng is None:
        return [1.0] * len(ranges)
    return [float(rng.uniform(lo, hi)) for lo, hi in ranges]


def build(workload: str, seed: int) -> list[tuple[str, dict, str]]:
    """CLI invocations of ``workload`` for ``seed``, as (mode, config, out_name)."""
    rng = None if seed == 0 else np.random.default_rng(seed)
    if workload == "column":
        return [_column(rng)]
    if workload == "sweep":
        return [_sweep(rng, m, n, da) for m, n, da in SWEEP_FAMILIES]
    if workload == "profiles":
        # one draw per family, shared by its Pe values
        calls = []
        for m, n in PROFILE_FAMILIES:
            qe_f, da_f = _factors(rng, QE_RANGE, DA_RANGE)
            for pe in PROFILE_PE:
                doc = {"mode": "wave", "dimensionless": {
                    "q_e": Q_E * qe_f, "da": PROFILE_DA * da_f, "pe": pe, "m": m, "n": n}}
                calls.append(("wave", doc, f"wave_m{m}n{n}_pe{pe:g}"))
        return calls
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _column(rng) -> tuple[str, dict, str]:
    # q_e = 0.99993 sits next to 1, so no q_e factor above 1/q_e is admissible;
    # the column keeps its q_e.  Da = epsilon c_in / (rho_b q_max) scales with
    # 1/rho_b, and scaling column_length by the same factor keeps ell fixed.
    # Da and pe share one factor: the explicit step count is proportional to
    # Pe / Da (diffusive stability limit), so independent factors would change
    # the work of a run by up to 1.5x and the timing would measure the draw.
    (scale,) = _factors(rng, DA_RANGE)
    physical = dict(COLUMN_PHYSICAL)
    physical["rho_b"] = COLUMN_PHYSICAL["rho_b"] / scale
    physical["column_length"] = COLUMN_PHYSICAL["column_length"] * scale
    doc = {"mode": "pde", "physical": physical, "pe": COLUMN_PE * scale,
           "solver": dict(COLUMN_SOLVER)}
    return ("pde", doc, "column")


def _sweep(rng, m: int, n: int, da: float) -> tuple[str, dict, str]:
    qe_f, da_f = _factors(rng, QE_RANGE, DA_RANGE)
    doc = {"mode": "sweep", "dimensionless": {
        "q_e": Q_E * qe_f, "da": da * da_f, "pe": 0.0, "m": m, "n": n}}
    return ("sweep", doc, f"sweep_m{m}n{n}")


# ---------------------------------------------------------------------------
# output checks


def _csv_rows(path: Path) -> list[list[float]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check(workload: str, calls: list[tuple[str, dict, str]], out: Path) -> tuple[list, dict]:
    """Checks on one pass's artifacts under ``out``, and the diagnostics they measure."""
    if workload == "column":
        return _check_column(calls[0], out)
    if workload == "sweep":
        return _check_sweep(calls, out), {}
    return _check_profiles(calls, out), {}


def _check_column(call, out: Path) -> tuple[list, dict]:
    import time

    from adsorb.cli import parse_config
    from adsorb.pde import PdeSolution, SpatialGrid, mass_balance_residual

    mode, doc, name = call
    config = parse_config(json.dumps(doc), mode_override=mode)
    d = out / name
    meta = json.loads((d / "pde_meta.json").read_text(encoding="utf-8"))
    v = float(meta["velocity"])
    speeds = [float(s) for s in meta["fitted_speeds"].values()]
    speed_err = abs(float(meta["fitted_speeds"]["0.5"]) - v) / v
    spread = (max(speeds) - min(speeds)) / min(speeds)

    snaps = np.array(_csv_rows(d / "pde_snapshots.csv"))
    n_cells = int(config.solver["n_cells"])
    times = snaps[::n_cells, 0]
    sol = PdeSolution(
        grid=SpatialGrid(ell=config.params.ell, n_cells=n_cells), times=times,
        c=snaps[:, 2].reshape(times.size, n_cells), q=snaps[:, 3].reshape(times.size, n_cells),
        breakthrough=np.array(_csv_rows(d / "pde_breakthrough.csv"))[:, 1],
        params=config.params,
    )
    t0 = time.perf_counter()
    residual = float(mass_balance_residual(sol).max())
    residual_s = time.perf_counter() - t0
    checks = [
        ("column speed of the 0.5 level", speed_err < SPEED_TOL,
         f"|v(0.5) - v|/v = {speed_err:.3e} (tol {SPEED_TOL})"),
        ("column level spread", spread < LEVEL_SPREAD_TOL,
         f"{spread:.3e} (tol {LEVEL_SPREAD_TOL})"),
        ("column mass balance", residual < MASS_RESIDUAL_TOL,
         f"max residual {residual:.3e} (tol {MASS_RESIDUAL_TOL})"),
    ]
    diagnostics = {"pde.speed_rel_err": speed_err, "pde.level_spread": spread,
                   "pde.mass_residual_max": residual, "pde.mass_balance_residual.s": residual_s}
    return checks, diagnostics


def _check_sweep(calls, out: Path) -> list:
    checks = []
    for (_mode, doc, name) in calls:
        dl = doc["dimensionless"]
        m, n = dl["m"], dl["n"]
        rows = np.array(_csv_rows(out / name / "sweep.csv"))
        pe, l2, window, e_bt = rows.T
        positive = pe > 0.0
        tag = f"sweep ({m},{n})"
        failures = json.loads((out / name / "sweep_meta.json").read_text(encoding="utf-8"))
        for value in pe:  # every record is an operation; a set error marks it failed
            error = failures["failures"].get(str(float(value)))
            checks.append((f"{tag} record Pe={value:g}", error is None, error or "ok"))
        checks.append((f"{tag} e_bt > 0", bool(np.all(e_bt[positive] > 0.0)),
                       f"min e_bt {np.min(e_bt[positive]):.4e}"))
        if (m, n) != (1, 1):
            checks.append((f"{tag} e_bt < {E_BT_TOL}", bool(np.all(e_bt[positive] < E_BT_TOL)),
                           f"max e_bt {np.max(e_bt[positive]):.4e}"))
        checks.append((f"{tag} l2_error increases", bool(np.all(np.diff(l2) > 0.0)),
                       f"l2 in [{np.min(l2):.4e}, {np.max(l2):.4e}]"))
        if (m, n) == (1, 1):
            # logistic front: window = ln(101) / alpha, and alpha = q_e for n = 1
            oracle = math.log(101.0) / dl["q_e"]
            rel = abs(window[pe == 0.0][0] - oracle) / oracle
            checks.append((f"{tag} Pe = 0 window oracle", rel < WINDOW_ORACLE_RTOL,
                           f"relative error {rel:.2e} against ln(101)/alpha = {oracle:.6f}"))
    return checks


def _check_profiles(calls, out: Path) -> list:
    from adsorb.cli import parse_config, read_wave_profile
    from adsorb.errors import AdsorptionError
    from adsorb.wave import closed_form_wave_11

    checks = []
    for (mode, doc, name) in calls:
        d = out / name
        try:
            profile = read_wave_profile(d / "wave_profile.csv", d / "wave_meta.json")
        except (AdsorptionError, OSError, ValueError) as exc:
            checks.append((f"{name} re-reads", False, f"{type(exc).__name__}: {exc}"))
            continue
        checks.append((f"{name} re-reads", True, f"{profile.eta.size} samples"))
        dl = doc["dimensionless"]
        if (dl["m"], dl["n"], dl["pe"]) == (1, 1, 0.0):
            params = parse_config(json.dumps(doc), mode_override=mode).params
            mask = np.abs(profile.eta) <= ORACLE_HALF_WIDTH
            sup = float(np.max(np.abs(profile.f[mask]
                                      - closed_form_wave_11(params, profile.eta[mask]))))
            checks.append((f"{name} logistic oracle", sup <= LOGISTIC_TOL,
                           f"sup-norm {sup:.3e} (tol {LOGISTIC_TOL})"))
    return checks


def write_configs(calls, directory: Path) -> list[tuple[str, str, str]]:
    """Write each config document and return (mode, config path, out_name)."""
    directory.mkdir(parents=True, exist_ok=True)
    plan = []
    for i, (mode, doc, name) in enumerate(calls):
        path = directory / f"{i:02d}_{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        plan.append((mode, str(path), name))
    return plan
