"""Command-line front end: JSON config in, deterministic CSV/JSON artifacts out.

Subcommands: ``nondim``, ``wave``, ``pde``, ``sweep``, ``isotherm``.  Every
output file starts with a provenance comment carrying the toolkit version and
a hash of the fully resolved configuration, and floats are written with 17
significant digits, so identical configs produce byte-identical artifacts.
Table cells are the bytes of ``CELL_FORMAT % v``, written in blocks of rows by
a numpy formatter that computes the digits exactly (``_format_cells``).
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
from .analysis import DEFAULT_ETA_STAR, THRESHOLD_HI, THRESHOLD_LO, SweepGrid, run_sweep
from .errors import (
    AdsorptionError,
    ConfigError,
    ConsistencyError,
    DomainError,
    ExistenceError,
)
from .model import (
    DimensionlessParameters,
    PhysicalParameters,
    ReactionOrders,
    analyze_equilibria,
    nondimensionalize,
    sips_isotherm,
)
from .stats import IntegratorStats, PdeSolverSettings
from .wave import WaveProfile, WaveSolverSettings, solve_full_wave, solve_leading_order

MODES = ("nondim", "wave", "pde", "sweep", "isotherm")

ALPHA_QE_CONSISTENCY_TOL = 1e-8

# the physical section spells out PhysicalParameters, with the orders as m and n
_PHYSICAL_FIELDS = [f for f in dataclasses.fields(PhysicalParameters) if f.name != "orders"]
_PHYSICAL_KEYS = {f.name for f in _PHYSICAL_FIELDS} | {"m", "n"}
_DIMENSIONLESS_KEYS = {"da", "pe", "q_e", "alpha", "m", "n", "ell"}
_SOLVER_DEFAULTS = {
    **dataclasses.asdict(WaveSolverSettings()),  # rel_tol, abs_tol, seed_delta, eta_span
    # pde_rel_tol, pde_abs_tol
    **{f"pde_{k}": v for k, v in dataclasses.asdict(PdeSolverSettings()).items()},
    "n_cells": 400,
    "eta_star": DEFAULT_ETA_STAR,
    "threshold_hi": THRESHOLD_HI,
    "threshold_lo": THRESHOLD_LO,
    "t_end": None,            # pde horizon; default 1.4 * ell * (q_e + Da)
    "n_snapshots": 101,
    "front_levels": [0.25, 0.5, 0.75],
    "fit_start": None,        # default t_end / 2
    "fit_end": None,          # default t_end
    "pe_values": None,        # default: the standard sweep grid
}
_ISOTHERM_KEYS = {"c_in_values"}
_INTEGER_KEYS = {"n_cells", "n_snapshots"}
_LIST_KEYS = {"pe_values", "front_levels", "c_in_values"}
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
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_types(section: str, given: dict, nullable=frozenset()) -> None:
    """Reject a value of the wrong JSON type with a ConfigError naming its key.

    Integer and list keys take what their names in ``_INTEGER_KEYS`` and
    ``_LIST_KEYS`` say, the orders m and n are left to ``ReactionOrders``,
    and every other key takes a number; keys in ``nullable`` may be null.
    """
    for key, value in given.items():
        if key in ("m", "n") or (value is None and key in nullable):
            continue
        if key in _LIST_KEYS:
            ok, kind = isinstance(value, list) and all(map(_is_number, value)), "a list of numbers"
        elif key in _INTEGER_KEYS:
            ok = _is_number(value) and (isinstance(value, int) or value.is_integer())
            kind = "an integer"
        else:
            ok, kind = _is_number(value), "a number"
        if not ok:
            raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")


def _orders_from(section: dict, where: str) -> ReactionOrders:
    try:
        m, n = section["m"], section["n"]
    except KeyError as exc:
        raise ConfigError(f"{where} must specify the reaction orders m and n") from exc
    return ReactionOrders(m, n)


def _build_physical(section: dict) -> PhysicalParameters:
    _fail_unknown("physical", section, _PHYSICAL_KEYS)
    _check_types("physical", section, nullable={"diffusion"})
    orders = _orders_from(section, "physical")
    missing = [f.name for f in _PHYSICAL_FIELDS
               if f.default is dataclasses.MISSING and f.name not in section]
    if missing:
        raise ConfigError(f"physical is missing keys: {', '.join(missing)}")
    return PhysicalParameters(orders=orders, **{
        f.name: None if section.get(f.name) is None else float(section[f.name])
        for f in _PHYSICAL_FIELDS
    })


def _build_dimensionless(section: dict, pe_override: float | None) -> DimensionlessParameters:
    _fail_unknown("dimensionless", section, _DIMENSIONLESS_KEYS)
    _check_types("dimensionless", section, nullable={"pe", "ell"})
    orders = _orders_from(section, "dimensionless")
    if "da" not in section:
        raise ConfigError("dimensionless must specify da")
    pe = pe_override if pe_override is not None else section.get("pe")
    if pe is None:
        raise ConfigError("dimensionless must specify pe (or use the top-level override)")
    extra = {}
    if section.get("ell") is not None:
        extra["ell"] = float(section["ell"])
    if "q_e" not in section:
        if "alpha" not in section:
            raise ConfigError("dimensionless must specify q_e or alpha")
        return DimensionlessParameters.from_alpha(float(section["alpha"]), da=float(section["da"]),
                                                  pe=float(pe), orders=orders, **extra)
    params = DimensionlessParameters.from_qe(float(section["q_e"]), da=float(section["da"]),
                                             pe=float(pe), orders=orders, **extra)
    if "alpha" in section:
        alpha = float(section["alpha"])
        if abs(params.alpha - alpha) > ALPHA_QE_CONSISTENCY_TOL * max(1.0, abs(alpha)):
            raise ConsistencyError(
                f"alpha={alpha!r} and q_e={params.q_e!r} violate the isotherm for n={orders.n}: "
                f"q_e implies alpha={params.alpha!r}"
            )
    return params


def parse_config(document: str, mode_override: str | None = None) -> RunConfig:
    """Parse and validate a JSON config document, applying all defaults.

    Unknown keys are rejected with their names; a parameter outside its
    domain is a ``ConfigError``; jointly given alpha and q_e must satisfy the
    isotherm; wave and sweep modes refuse orders with m > n.
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

    _check_types("config", {"pe": raw.get("pe")}, nullable={"pe"})
    pe_override = float(raw["pe"]) if raw.get("pe") is not None else None
    has_phys = raw.get("physical") is not None
    has_dimless = raw.get("dimensionless") is not None
    if has_phys == has_dimless:
        raise ConfigError("exactly one of physical/dimensionless must be given")

    try:
        physical = _build_physical(raw["physical"]) if has_phys else None
        if has_phys:
            if physical.diffusion is None and pe_override is None:
                if mode != "isotherm":
                    raise ConfigError("physical needs diffusion, or give the top-level pe")
                pe_override = 0.0  # the isotherm involves no transport
            params = nondimensionalize(physical, pe=pe_override)
        else:
            params = _build_dimensionless(raw["dimensionless"], pe_override)
    except DomainError as exc:  # a value of the right type outside its domain
        raise ConfigError(str(exc)) from exc

    solver = dict(_SOLVER_DEFAULTS)
    given_solver = raw.get("solver") or {}
    _fail_unknown("solver", given_solver, set(_SOLVER_DEFAULTS))
    _check_types("solver", given_solver,
                 nullable={k for k, v in _SOLVER_DEFAULTS.items() if v is None})
    solver.update(given_solver)
    if solver["t_end"] is None:
        solver["t_end"] = 1.4 * params.ell * (params.q_e + params.da)
    if solver["fit_start"] is None:
        solver["fit_start"] = 0.5 * solver["t_end"]
    if solver["fit_end"] is None:
        solver["fit_end"] = solver["t_end"]
    if solver["pe_values"] is None:
        solver["pe_values"] = list(SweepGrid.paper_default().pe_values)

    isotherm = raw.get("isotherm") or {}
    _fail_unknown("isotherm", isotherm, _ISOTHERM_KEYS)
    _check_types("isotherm", isotherm)
    isotherm = dict(isotherm)
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
    if not isinstance(output["dir"], str):
        raise ConfigError(f"output.dir must be a string, got {output['dir']!r}")

    if mode in ("wave", "sweep") and params.m > params.n:
        report = analyze_equilibria(params)
        raise ExistenceError(
            f"{mode} mode needs m <= n for a decreasing front; got (m, n) = "
            f"({params.m}, {params.n}) with {report.reason}", report,
        )

    physical_resolved = None
    if physical is not None:
        physical_resolved = {f.name: getattr(physical, f.name) for f in _PHYSICAL_FIELDS}
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


CELL_FORMAT = "%.16e"  # 17 significant digits
# Rows per formatted block: one block's cell text and temporaries take a few
# hundred kB, where a whole 20k-row snapshot table at once raised the peak
# memory of repeated pde runs
_BLOCK_ROWS = 1024


# _format_cells writes the bytes of CELL_FORMAT % x without a Python string
# per cell.  For |x| in [1e-6, 1e17) the decimal exponent e lies in [-6, 16],
# so x * 10**(16 - e) takes a power of ten that is an exact double
# (5**22 < 2**53).  Veltkamp's split and Dekker's TwoProduct give that product
# exactly as p + err; the 17 digits are its integer part, rounded half to even.
# The rounding never carries into an 18th digit: the largest double below each
# power of ten in the range scales to at least 4.5 below 10**17.
# A cell is 7 native uint32 words: [0, sign, lead digit, '.'], four words of
# 4 digits, ['e', sign, d, d] and a word of zeros whose last byte is free for a
# separator; zero bytes are padding.  All other values, and any cell whose
# exponent leaves [-6, 16] once its decade is settled, go through CELL_FORMAT.
_CELL_BYTES = 28
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_LEAD = np.frombuffer("".join(f"\0{sign}{d}." for sign in "\0-" for d in range(10)).encode(),
                      dtype=np.uint32)
_EXPONENTS = np.frombuffer("".join(f"e{e:+03d}" for e in range(-6, 17)).encode(),
                           dtype=np.uint32)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k exactly, as p + err with p = fl(a * 10**k) (Dekker's TwoProduct)."""
    p = a * _POW10[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _below(p: np.ndarray, err: np.ndarray, bound: float) -> np.ndarray:
    """Whether the exact sum p + err lies below ``bound``."""
    return (p < bound) | ((p == bound) & (err < 0.0))


def _format_cells(values: np.ndarray) -> np.ndarray:
    """The bytes of ``CELL_FORMAT % v`` for every v, one zero-padded row per cell.

    Returns a ``(values.size, _CELL_BYTES)`` uint8 array in ravel order; the
    last byte of each row is 0, free for a separator.
    """
    x = np.ravel(values)
    ax = np.abs(x)
    fast = (ax >= 1e-6) & (ax < 1e17)
    a = np.where(fast, ax, 1.0)
    # log10 can miss the decade by one next to a power of ten (it reads 17.0
    # just below 1e17): clip to the table, then settle the decade exactly
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 22)
    p, err = _scaled(a, k)
    low, high = _below(p, err, 1e16), ~_below(p, err, 1e17)
    fix = np.flatnonzero(low | high)
    if fix.size:
        wanted = k[fix] + low[fix] - high[fix]
        k[fix] = np.clip(wanted, 0, 22)
        fast[fix] &= k[fix] == wanted
        p[fix], err[fix] = _scaled(a[fix], k[fix])
    whole = np.floor(err)
    frac = err - whole
    digits = p.astype(np.int64) + whole.astype(np.int64)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits & 1).astype(bool))
    hi, lo = np.divmod(digits, 10 ** 8)  # uint32 halves divide faster than int64
    lead, hi = np.divmod(hi.astype(np.uint32), 10 ** 8)
    quads = np.empty((x.size, 4), dtype=np.uint32)
    quads[:, 0], quads[:, 1] = np.divmod(hi, 10000)
    quads[:, 2], quads[:, 3] = np.divmod(lo.astype(np.uint32), 10000)
    words = np.zeros((x.size, _CELL_BYTES // 4), dtype=np.uint32)
    words[:, 0] = _LEAD[lead + 10 * (x < 0.0)]
    words[:, 1:5] = _QUADS[quads]
    words[:, 5] = _EXPONENTS[22 - k]
    text = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = b"".join((CELL_FORMAT % v).encode().ljust(_CELL_BYTES, b"\0")
                         for v in x[slow].tolist())
        text[slow] = np.frombuffer(cells, dtype=np.uint8).reshape(-1, _CELL_BYTES)
    return text


def _text_blocks(table: np.ndarray):
    """Yield the formatted cells of each block of rows, shaped (rows, columns, bytes)."""
    for start in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        yield _format_cells(block).reshape(block.shape[0], block.shape[1], _CELL_BYTES)


def _header(config: RunConfig) -> str:
    return f"# adsorb version={__version__} config_sha256={config.config_hash}\n"


def _write_table(path: Path, config: RunConfig, names: list[str], columns) -> None:
    """Write equal-length float columns as a CSV table, or as JSON if configured."""
    table = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    if config.output["format"] == "json":
        cells = []
        for text in _text_blocks(table):
            text[..., -1] = ord("\n")
            cells += text[text != 0].tobytes().decode("ascii").splitlines()
        payload = {
            "meta": {"version": __version__, "config_sha256": config.config_hash},
            "columns": names,
            "rows": [cells[i:i + len(names)] for i in range(0, len(cells), len(names))],
        }
        path.with_suffix(".json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return
    with path.open("wb") as out:
        out.write((_header(config) + ",".join(names) + "\n").encode("utf-8"))
        for text in _text_blocks(table):
            text[:, :-1, -1] = ord(",")
            text[:, -1, -1] = ord("\n")
            out.write(text[text != 0].tobytes())


def _write_json(path: Path, config: RunConfig, payload: dict) -> None:
    body = {"meta": {"version": __version__, "config_sha256": config.config_hash}}
    body.update(payload)
    path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _counters(stats: IntegratorStats | None) -> dict:
    """The integrator's method and the counters it reports; empty without one."""
    if stats is None:
        return {}
    return {k: v for k, v in dataclasses.asdict(stats).items() if v is not None}


def write_wave_profile(path_csv: Path, meta_path: Path, profile: WaveProfile,
                       config: RunConfig) -> None:
    _write_table(path_csv, config, ["eta", "F", "G"], [profile.eta, profile.f, profile.g])
    _write_json(meta_path, config, {
        "velocity": profile.velocity, "pe": profile.pe,
        "window": [profile.window[0], profile.window[1]],
        "normalized": profile.normalized, "samples": int(profile.eta.size),
        **_counters(profile.stats),
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
    return WaveSolverSettings(**{field.name: float(config.solver[field.name])
                                 for field in dataclasses.fields(WaveSolverSettings)})


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
    # imported here so that no other mode loads scipy
    from .pde import SpatialGrid, mass_balance_residual, solve_pde, track_front

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
                               **_counters(sol.stats)})
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
        for section, key, value in (("output", "dir", args.out),
                                    ("solver", "seed_delta", args.seed_delta)):
            if value is not None:
                given = raw.get(section) or {}
                if not isinstance(given, dict):
                    raise ConfigError(f"{section} must be a JSON object, got {given!r}")
                raw[section] = {**given, key: value}
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
