"""Command-line front end: JSON config in, deterministic CSV/JSON artifacts out.

Subcommands: ``nondim``, ``wave``, ``pde``, ``sweep``, ``isotherm``.  Every
output file starts with a provenance comment carrying the toolkit version and
a hash of the fully resolved configuration, and floats are written with 17
significant digits, so identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import SweepGrid, run_sweep
from .errors import (
    AdsorptionError,
    ConfigError,
    ConsistencyError,
    ExistenceError,
)
from .model import (
    DimensionlessParameters,
    PhysicalParameters,
    ReactionOrders,
    alpha_from_qe,
    analyze_equilibria,
    nondimensionalize,
    sips_isotherm,
)
from .pde import (
    PdeSolverSettings,
    SpatialGrid,
    mass_balance_residual,
    solve_pde,
    track_front,
)
from .wave import WaveProfile, WaveSolverSettings, solve_full_wave, solve_leading_order

MODES = ("nondim", "wave", "pde", "sweep", "isotherm")

ALPHA_QE_CONSISTENCY_TOL = 1e-8

_PHYSICAL_KEYS = {"epsilon", "u_in", "k_ad", "k_de", "c_in", "q_max", "rho_b",
                  "column_length", "diffusion", "m", "n"}
_DIMENSIONLESS_KEYS = {"da", "pe", "q_e", "alpha", "m", "n", "ell"}
_SOLVER_DEFAULTS = {
    "rel_tol": 1e-8,          # wave integrations
    "abs_tol": 1e-10,
    "pde_rel_tol": 1e-6,
    "pde_abs_tol": 1e-9,
    "n_cells": 400,
    "eta_star": 20.0,
    "threshold_hi": 1e-2,
    "threshold_lo": 1e-4,
    "seed_delta": 1e-6,
    "eta_span": 22.0,
    "t_end": None,            # pde horizon; default 1.4 * ell * (q_e + Da)
    "n_snapshots": 101,
    "front_levels": [0.25, 0.5, 0.75],
    "fit_start": None,        # default t_end / 2
    "fit_end": None,          # default t_end
    "pe_values": None,        # default: the standard sweep grid
}
_ISOTHERM_KEYS = {"c_in_values"}
_OUTPUT_DEFAULTS = {"dir": "out", "format": "csv"}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated, fully resolved run configuration."""

    mode: str
    params: DimensionlessParameters
    physical: PhysicalParameters | None
    solver: dict
    isotherm: dict
    output: dict
    resolved: dict

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fail_unknown(section: str, given: dict, allowed: set[str]) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")


def _orders_from(section: dict, where: str) -> ReactionOrders:
    try:
        m, n = section["m"], section["n"]
    except KeyError as exc:
        raise ConfigError(f"{where} must specify the reaction orders m and n") from exc
    return ReactionOrders(m, n)


def _build_physical(section: dict) -> PhysicalParameters:
    _fail_unknown("physical", section, _PHYSICAL_KEYS)
    orders = _orders_from(section, "physical")
    required = ["epsilon", "u_in", "k_ad", "k_de", "c_in", "q_max", "rho_b", "column_length"]
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"physical is missing keys: {', '.join(missing)}")
    return PhysicalParameters(
        epsilon=float(section["epsilon"]), u_in=float(section["u_in"]),
        k_ad=float(section["k_ad"]), k_de=float(section["k_de"]),
        c_in=float(section["c_in"]), q_max=float(section["q_max"]),
        rho_b=float(section["rho_b"]), column_length=float(section["column_length"]),
        orders=orders,
        diffusion=float(section["diffusion"]) if section.get("diffusion") is not None else None,
    )


def _build_dimensionless(section: dict, pe_override: float | None) -> DimensionlessParameters:
    _fail_unknown("dimensionless", section, _DIMENSIONLESS_KEYS)
    orders = _orders_from(section, "dimensionless")
    if "da" not in section:
        raise ConfigError("dimensionless must specify da")
    pe = pe_override if pe_override is not None else section.get("pe")
    if pe is None:
        raise ConfigError("dimensionless must specify pe (or use the top-level override)")
    extra = {}
    if section.get("ell") is not None:
        extra["ell"] = float(section["ell"])
    has_alpha, has_qe = "alpha" in section, "q_e" in section
    if not (has_alpha or has_qe):
        raise ConfigError("dimensionless must specify q_e or alpha")
    if has_alpha and has_qe:
        alpha, q_e = float(section["alpha"]), float(section["q_e"])
        implied = alpha_from_qe(q_e, orders.n)
        if abs(implied - alpha) > ALPHA_QE_CONSISTENCY_TOL * max(1.0, abs(alpha)):
            raise ConsistencyError(
                f"alpha={alpha!r} and q_e={q_e!r} violate the isotherm for n={orders.n}: "
                f"q_e implies alpha={implied!r}"
            )
        return DimensionlessParameters.from_qe(q_e, da=float(section["da"]), pe=float(pe),
                                               orders=orders, **extra)
    if has_qe:
        return DimensionlessParameters.from_qe(float(section["q_e"]), da=float(section["da"]),
                                               pe=float(pe), orders=orders, **extra)
    return DimensionlessParameters.from_alpha(float(section["alpha"]), da=float(section["da"]),
                                              pe=float(pe), orders=orders, **extra)


def parse_config(document: str, mode_override: str | None = None) -> RunConfig:
    """Parse and validate a JSON config document, applying all defaults.

    Unknown keys are rejected with their names; jointly given alpha and q_e
    must satisfy the isotherm; wave and sweep modes refuse orders with m > n.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _fail_unknown("config", raw, {"mode", "physical", "dimensionless", "pe", "solver",
                                  "isotherm", "output"})

    mode = raw.get("mode", mode_override)
    if mode_override is not None and raw.get("mode") is not None and raw["mode"] != mode_override:
        raise ConfigError(f"config mode {raw['mode']!r} conflicts with subcommand {mode_override!r}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    pe_override = float(raw["pe"]) if raw.get("pe") is not None else None
    has_phys = raw.get("physical") is not None
    has_dimless = raw.get("dimensionless") is not None
    if has_phys == has_dimless:
        raise ConfigError("exactly one of physical/dimensionless must be given")

    physical = _build_physical(raw["physical"]) if has_phys else None
    if has_phys:
        if physical.diffusion is None and pe_override is None:
            if mode != "isotherm":
                raise ConfigError("physical needs diffusion, or give the top-level pe")
            pe_override = 0.0  # the isotherm involves no transport
        params = nondimensionalize(physical, pe=pe_override)
    else:
        params = _build_dimensionless(raw["dimensionless"], pe_override)

    solver = dict(_SOLVER_DEFAULTS)
    given_solver = raw.get("solver") or {}
    _fail_unknown("solver", given_solver, set(_SOLVER_DEFAULTS))
    solver.update(given_solver)
    if solver["t_end"] is None:
        solver["t_end"] = 1.4 * params.ell * (params.q_e + params.da)
    if solver["fit_start"] is None:
        solver["fit_start"] = 0.5 * solver["t_end"]
    if solver["fit_end"] is None:
        solver["fit_end"] = solver["t_end"]
    if solver["pe_values"] is None:
        solver["pe_values"] = list(SweepGrid.paper_default().pe_values)

    isotherm = dict(raw.get("isotherm") or {})
    _fail_unknown("isotherm", isotherm, _ISOTHERM_KEYS)
    if mode == "isotherm":
        if physical is None:
            raise ConfigError("isotherm mode requires the physical section")
        if "c_in_values" not in isotherm:
            isotherm["c_in_values"] = list(physical.c_in * np.logspace(-2.0, 2.0, 41))

    output = dict(_OUTPUT_DEFAULTS)
    given_output = raw.get("output") or {}
    _fail_unknown("output", given_output, set(_OUTPUT_DEFAULTS))
    output.update(given_output)
    if output["format"] not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {output['format']!r}")

    if mode in ("wave", "sweep") and params.m > params.n:
        report = analyze_equilibria(params)
        raise ExistenceError(
            f"{mode} mode needs m <= n for a decreasing front; got (m, n) = "
            f"({params.m}, {params.n}) with {report.reason}", report,
        )

    physical_resolved = None
    if physical is not None:
        physical_resolved = {
            k: getattr(physical, k) for k in
            ("epsilon", "u_in", "k_ad", "k_de", "c_in", "q_max", "rho_b",
             "column_length", "diffusion")
        }
        physical_resolved["m"] = physical.orders.m
        physical_resolved["n"] = physical.orders.n
    resolved = {
        "mode": mode,
        "physical": physical_resolved,
        "dimensionless": {
            "da": params.da, "pe": params.pe, "alpha": params.alpha, "q_e": params.q_e,
            "ell": params.ell, "length_scale": params.length_scale,
            "time_scale": params.time_scale, "m": params.m, "n": params.n,
        },
        "solver": solver,
        "isotherm": isotherm,
        "output": {"format": output["format"]},
        "version": __version__,
    }
    return RunConfig(mode=mode, params=params, physical=physical, solver=solver,
                     isotherm=isotherm, output=output, resolved=resolved)


# ---------------------------------------------------------------------------
# artifact writers


CELL_FORMAT = "%.16e"  # 17 significant digits; formats whole CSV rows at once


def _header(config: RunConfig) -> str:
    return f"# adsorb version={__version__} config_sha256={config.config_hash}\n"


def _write_table(path: Path, config: RunConfig, names: list[str], columns) -> None:
    """Write equal-length float columns as a CSV table, or as JSON if configured."""
    rows = list(zip(*(np.asarray(col, dtype=float).tolist() for col in columns)))
    if config.output["format"] == "json":
        payload = {
            "meta": {"version": __version__, "config_sha256": config.config_hash},
            "columns": names,
            "rows": [[CELL_FORMAT % v for v in row] for row in rows],
        }
        path.with_suffix(".json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return
    template = ",".join([CELL_FORMAT] * len(names)) + "\n"
    body = "".join(template % row for row in rows)
    path.write_text(_header(config) + ",".join(names) + "\n" + body,
                    encoding="utf-8", newline="\n")


def _write_json(path: Path, config: RunConfig, payload: dict) -> None:
    body = {"meta": {"version": __version__, "config_sha256": config.config_hash}}
    body.update(payload)
    path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def write_wave_profile(path_csv: Path, meta_path: Path, profile: WaveProfile,
                       config: RunConfig) -> None:
    _write_table(path_csv, config, ["eta", "F", "G"], [profile.eta, profile.f, profile.g])
    _write_json(meta_path, config, {
        "velocity": profile.velocity, "pe": profile.pe,
        "window": [profile.window[0], profile.window[1]],
        "normalized": profile.normalized, "samples": int(profile.eta.size),
    })


def read_wave_profile(path_csv: Path, meta_path: Path) -> WaveProfile:
    """Rebuild a WaveProfile from the wave-mode artifacts."""
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    rows = [line for line in path_csv.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    return WaveProfile(
        eta=data[:, 0], f=data[:, 1], g=data[:, 2],
        velocity=float(meta["velocity"]), pe=float(meta["pe"]),
        normalized=bool(meta["normalized"]),
        window=(float(meta["window"][0]), float(meta["window"][1])),
    )


def _wave_settings(config: RunConfig) -> WaveSolverSettings:
    s = config.solver
    return WaveSolverSettings(
        rel_tol=float(s["rel_tol"]), abs_tol=float(s["abs_tol"]),
        seed_delta=float(s["seed_delta"]), eta_span=float(s["eta_span"]),
    )


def _run_nondim(config: RunConfig, out: Path) -> list[Path]:
    path = out / "nondim.json"
    _write_json(path, config, {"dimensionless": config.resolved["dimensionless"]})
    return [path]


def _run_wave(config: RunConfig, out: Path) -> list[Path]:
    settings = _wave_settings(config)
    if config.params.pe == 0.0:
        profile = solve_leading_order(config.params, settings)
    else:
        profile = solve_full_wave(config.params, settings)
    csv_path, meta_path = out / "wave_profile.csv", out / "wave_meta.json"
    write_wave_profile(csv_path, meta_path, profile, config)
    return [csv_path, meta_path]


def _run_pde(config: RunConfig, out: Path) -> list[Path]:
    s = config.solver
    grid = SpatialGrid(ell=config.params.ell, n_cells=int(s["n_cells"]))
    times = np.linspace(0.0, float(s["t_end"]), int(s["n_snapshots"]))
    sol = solve_pde(config.params, grid, float(s["t_end"]), sample_times=times,
                    settings=PdeSolverSettings(rel_tol=float(s["pde_rel_tol"]),
                                               abs_tol=float(s["pde_abs_tol"])))
    n_times = sol.times.size
    paths = [out / "pde_snapshots.csv", out / "pde_breakthrough.csv", out / "pde_front.csv"]
    _write_table(paths[0], config, ["t", "x", "c", "q"],
                 [np.repeat(sol.times, grid.n_cells), np.tile(grid.nodes, n_times),
                  sol.c.ravel(), sol.q.ravel()])
    _write_table(paths[1], config, ["t", "c_outlet"], [sol.times, sol.breakthrough])
    window = (float(s["fit_start"]), float(s["fit_end"]))
    front_rows, fitted = [], {}
    for level in s["front_levels"]:
        track = track_front(sol, float(level), window)
        fitted[str(level)] = track.fitted_speed
        front_rows += [(float(level), t, pos) for t, pos in track.positions]
    _write_table(paths[2], config, ["level", "t", "position"],
                 np.reshape(front_rows, (-1, 3)).T)
    meta = out / "pde_meta.json"
    _write_json(meta, config, {"fitted_speeds": fitted, "fit_window": list(window),
                               "velocity": config.params.velocity,
                               "mass_residual_max": float(mass_balance_residual(sol).max()),
                               **dataclasses.asdict(sol.stats)})
    return paths + [meta]


def _run_sweep(config: RunConfig, out: Path) -> list[Path]:
    s = config.solver
    grid = SweepGrid(tuple(float(v) for v in s["pe_values"]))
    records = run_sweep(config.params, grid, settings=_wave_settings(config),
                        eta_star=float(s["eta_star"]), hi=float(s["threshold_hi"]),
                        lo=float(s["threshold_lo"]))
    rows = [(r.pe, r.l2_error, r.t_window, r.e_bt) for r in records]
    path = out / "sweep.csv"
    _write_table(path, config, ["pe", "l2_error", "t_window", "e_bt"], np.reshape(rows, (-1, 4)).T)
    failures = {str(r.pe): r.error for r in records if r.error}
    meta = out / "sweep_meta.json"
    _write_json(meta, config, {"failures": failures, "n_records": len(records)})
    return [path, meta]


def _run_isotherm(config: RunConfig, out: Path) -> list[Path]:
    phys = config.physical
    k_l = phys.k_ad / phys.k_de
    c_in = [float(c) for c in config.isotherm["c_in_values"]]
    path = out / "isotherm.csv"
    _write_table(path, config, ["c_in", "q_e"],
                 [c_in, [float(sips_isotherm(c, k_l, phys.q_max, phys.orders)) for c in c_in]])
    return [path]


_RUNNERS = {"nondim": _run_nondim, "wave": _run_wave, "pde": _run_pde,
            "sweep": _run_sweep, "isotherm": _run_isotherm}


def run(config: RunConfig) -> list[Path]:
    """Execute a validated config and return the written artifact paths."""
    out = Path(config.output["dir"])
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.mode](config, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adsorb",
        description="Fixed-bed adsorption column simulation and sensitivity toolkit.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="path to the JSON config document")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed-delta", type=float, default=None,
                       help="backward-integration seed for wave solves")
    args = parser.parse_args(argv)

    try:
        document = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        raw = json.loads(document) if document.strip() else {}
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if args.out is not None:
            raw.setdefault("output", {})["dir"] = args.out
        if args.seed_delta is not None:
            raw.setdefault("solver", {})["seed_delta"] = args.seed_delta
        config = parse_config(json.dumps(raw), mode_override=args.mode)
        paths = run(config)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except ExistenceError as exc:
        print(json.dumps({"error": "ExistenceError", "message": str(exc)}), file=sys.stderr)
        return 3
    except AdsorptionError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 4
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
