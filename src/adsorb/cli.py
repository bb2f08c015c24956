"""Command-line front end: JSON config in, deterministic artifacts out.

``adsorb <mode> --config <path> [--out <dir>]``, where the mode is one of
``nondim``, ``wave``, ``pde``, ``sweep``, ``isotherm`` and the flags may come
before or after it.  ``parse_config`` is the only reader of the config
document; ``--out`` overrides ``output.dir``, its one output setting.  Tables
are CSV files, which start with a comment carrying the toolkit version and a
hash of the fully resolved configuration; metadata documents are JSON files,
which carry both as their ``"meta"`` object.  Floats are written with 17
significant digits, so identical configs produce byte-identical artifacts.
Table cells are the bytes of ``CELL_FORMAT % v``, written in blocks of rows by
a numpy formatter that computes the digits exactly (``_format_cells``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import run_sweep
from .errors import AdsorptionError, ConfigError, DomainError, ExistenceError
from .model import (
    DimensionlessParameters,
    PhysicalParameters,
    ReactionOrders,
    _require_sizable,
    nondimensionalize,
    sips_isotherm,
)
from .wave import WaveProfile, solve_full_wave, solve_leading_order

MODES = ("nondim", "wave", "pde", "sweep", "isotherm")

# the physical section spells out PhysicalParameters, with the orders as m and n
_PHYSICAL_FIELDS = [f for f in dataclasses.fields(PhysicalParameters) if f.name != "orders"]
_PHYSICAL_KEYS = {f.name for f in _PHYSICAL_FIELDS} | {"m", "n"}
_DIMENSIONLESS_KEYS = {"da", "pe", "q_e", "m", "n", "ell"}
_SOLVER_DEFAULTS = {
    "n_cells": 400,
    "t_end": None,            # pde horizon; default 1.4 * ell * (q_e + Da)
    "n_snapshots": 101,
}
_INTEGER_KEYS = {"n_cells", "n_snapshots"}
_OUTPUT_DEFAULTS = {"dir": "out"}
# pde mode fits one front speed per level and writes one block of front rows
FRONT_LEVELS = (0.25, 0.5, 0.75)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated, fully resolved run configuration."""

    mode: str
    params: DimensionlessParameters
    physical: PhysicalParameters | None
    solver: dict
    output: dict
    resolved: dict

    @functools.cached_property  # read once per artifact; bound on the first read
    def config_hash(self) -> str:
        payload = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fail_unknown(section: str, given: dict, allowed: set[str]) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")


def _section(raw: dict, name: str, allowed: set[str]) -> dict:
    """The named top-level section; absent or null means no keys given."""
    given = {} if raw.get(name) is None else raw[name]
    _fail_unknown(name, given, allowed)
    return given


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number that is a finite double.

    ``json.loads`` also reads NaN, Infinity and integers past the largest double.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # false for NaN


def _check_types(section: str, given: dict, nullable=frozenset()) -> None:
    """Reject a value of the wrong JSON type with a ConfigError naming its key.

    The orders m and n take a JSON integer, as ``ReactionOrders`` does, the
    counts in ``_INTEGER_KEYS`` an integral number, and every other key a
    number; keys in ``nullable`` may be null.  No number may be NaN or
    infinite, and no value of an integer key may fall outside int64.
    """
    for key, value in given.items():
        if value is None and key in nullable:
            continue
        if key in ("m", "n"):
            ok, kind = _is_number(value) and isinstance(value, int), "an integer"
        elif key in _INTEGER_KEYS:  # numpy sizes its arrays in int64
            ok = (_is_number(value) and (isinstance(value, int) or value.is_integer())
                  and -2 ** 63 <= value < 2 ** 63)
            kind = "a 64-bit integer"
        else:
            ok, kind = _is_number(value), "a finite number"
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
    for key in ("da", "q_e"):
        if key not in section:
            raise ConfigError(f"dimensionless must specify {key}")
    pe = pe_override if pe_override is not None else section.get("pe")
    if pe is None:
        raise ConfigError("dimensionless must specify pe (or use the top-level override)")
    extra = {}
    if section.get("ell") is not None:
        extra["ell"] = float(section["ell"])
    return DimensionlessParameters(da=float(section["da"]), pe=float(pe),
                                   q_e=float(section["q_e"]), orders=orders, **extra)


def parse_config(document: str, mode_override: str | None = None, *,
                 out: str | None = None) -> RunConfig:
    """Parse and validate a JSON config document, applying all defaults.

    Unknown keys and values of the wrong JSON type, NaN and Infinity among
    them, are rejected with their names as a ``ConfigError``; a model parameter
    outside its domain is the parameter types' ``DomainError``.  Solver
    values are left to the solvers, which also refuse orders with m > n in
    wave and sweep modes.  ``out``, when given, replaces ``output.dir`` and is
    checked as that key is.
    """
    try:
        raw = json.loads(document)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _fail_unknown("config", raw, {"mode", "physical", "dimensionless", "pe", "solver",
                                  "output"})

    mode = raw.get("mode")  # null, like an absent key, defers to the mode argument
    if mode is None:
        mode = mode_override
    elif mode_override is not None and mode != mode_override:
        raise ConfigError(f"config mode {mode!r} conflicts with the mode argument "
                          f"{mode_override!r}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    _check_types("config", {"pe": raw.get("pe")}, nullable={"pe"})
    pe_override = float(raw["pe"]) if raw.get("pe") is not None else None
    has_phys = raw.get("physical") is not None
    has_dimless = raw.get("dimensionless") is not None
    if has_phys == has_dimless:
        raise ConfigError("exactly one of physical/dimensionless must be given")

    physical = _build_physical(raw["physical"]) if has_phys else None
    if has_phys:
        if physical.diffusion is None and pe_override is None and mode == "isotherm":
            pe_override = 0.0  # the isotherm involves no transport
        params = nondimensionalize(physical, pe=pe_override)
    else:
        params = _build_dimensionless(raw["dimensionless"], pe_override)

    solver = dict(_SOLVER_DEFAULTS)
    given_solver = _section(raw, "solver", set(_SOLVER_DEFAULTS))
    _check_types("solver", given_solver,
                 nullable={k for k, v in _SOLVER_DEFAULTS.items() if v is None})
    solver.update(given_solver)
    if solver["t_end"] is None:
        solver["t_end"] = 1.4 * params.ell * (params.q_e + params.da)
    if mode == "isotherm" and physical is None:
        raise ConfigError("isotherm mode requires the physical section")

    output = {**_OUTPUT_DEFAULTS, **_section(raw, "output", set(_OUTPUT_DEFAULTS))}
    if out is not None:
        output["dir"] = out
    if not isinstance(output["dir"], str):
        raise ConfigError(f"output.dir must be a string, got {output['dir']!r}")

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
        "version": __version__,
    }
    return RunConfig(mode=mode, params=params, physical=physical, solver=solver,
                     output=output, resolved=resolved)


# ---------------------------------------------------------------------------
# artifact writers


CELL_FORMAT = "%.16e"  # 17 significant digits
# Rows per formatted block: the writer holds one block, never the table.  A
# block's floats, cell text and temporaries take a few hundred kB, where a
# whole 20k-row snapshot table at once raised the peak memory of pde runs
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


def _header(config: RunConfig) -> str:
    return f"# adsorb version={__version__} config_sha256={config.config_hash}\n"


def _write_table(path: Path, config: RunConfig, names: list[str], columns) -> Path:
    """Write equal-length float columns to the CSV table ``path``, a block of rows at a time."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    with path.open("wb") as out:
        out.write((_header(config) + ",".join(names) + "\n").encode("utf-8"))
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            block = np.column_stack([col[start:start + _BLOCK_ROWS] for col in columns])
            text = _format_cells(block).reshape(block.shape[0], block.shape[1], _CELL_BYTES)
            text[:, :-1, -1] = ord(",")
            text[:, -1, -1] = ord("\n")
            out.write(text.tobytes().translate(None, b"\0"))  # drop the cells' NUL padding
    return path


def _write_json(path: Path, config: RunConfig, payload: dict) -> Path:
    body = {"meta": {"version": __version__, "config_sha256": config.config_hash}}
    body.update(payload)
    path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def write_wave_profile(table_path: Path, meta_path: Path, profile: WaveProfile,
                       config: RunConfig) -> list[Path]:
    """Write the profile table and its meta document; returns the two paths written."""
    counters = {} if profile.stats is None else dataclasses.asdict(profile.stats)
    return [_write_table(table_path, config, ["eta", "F", "G"],
                         [profile.eta, profile.f, profile.g]),
            _write_json(meta_path, config, {
                "velocity": profile.velocity, "pe": profile.pe,
                "window": list(profile.window),
                "normalized": True, "samples": int(profile.eta.size), **counters,
            })]


def read_wave_profile(table_path: Path, meta_path: Path) -> WaveProfile:
    """Rebuild a WaveProfile from the wave-mode CSV table and meta document.

    A missing file is an ``OSError``.  A malformed file, or a meta window that
    is not the table's eta range, is a ``DomainError`` naming what is wrong.
    """
    lines = [line for line in table_path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    if not lines or lines[0] != "eta,F,G":
        raise DomainError(f"{table_path} must begin with the column header line eta,F,G")
    rows = [line.split(",") for line in lines[1:]]
    if not rows or any(len(row) != 3 for row in rows):
        raise DomainError(f"{table_path} must hold data rows of 3 cells each")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise DomainError(f"{table_path} holds a cell that is not a number: {exc}") from exc
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        velocity, pe = float(meta["velocity"]), float(meta["pe"])
        window = tuple(float(v) for v in meta["window"])
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise DomainError(f"{meta_path} is not a wave meta document: {exc!r}") from exc
    try:
        profile = WaveProfile(eta=data[:, 0], f=data[:, 1], g=data[:, 2], velocity=velocity,
                              pe=pe)
    except DomainError as exc:
        raise DomainError(f"{table_path} is not a wave profile: {exc}") from exc
    if window != profile.window:
        raise DomainError(f"{meta_path}: window {window} does not match the sampled eta range "
                          f"{profile.window}")
    return profile


def _run_nondim(config: RunConfig, out: Path) -> list[Path]:
    return [_write_json(out / "nondim.json", config,
                        {"dimensionless": config.resolved["dimensionless"]})]


def _run_wave(config: RunConfig, out: Path) -> list[Path]:
    if config.params.pe == 0.0:
        profile = solve_leading_order(config.params)
    else:
        profile = solve_full_wave(config.params)
    return write_wave_profile(out / "wave_profile.csv", out / "wave_meta.json", profile, config)


def _run_pde(config: RunConfig, out: Path) -> list[Path]:
    # imported here: only this mode needs the column solver and its LAPACK binding
    from .pde import SpatialGrid, mass_balance_residual, solve_pde, track_front

    s = config.solver
    grid = SpatialGrid(ell=config.params.ell, n_cells=int(s["n_cells"]))
    n_snapshots = int(s["n_snapshots"])
    if n_snapshots < 2:  # the snapshot count is this mode's own setting
        raise DomainError(f"n_snapshots must be at least 2, got {s['n_snapshots']!r}")
    # the solver keeps one state per snapshot
    _require_sizable("n_snapshots", n_snapshots, n_snapshots * (2 * grid.n_cells - 2))
    t_end = float(s["t_end"])
    window = (0.5 * t_end, t_end)  # the speed is fitted once the front has formed
    times = np.linspace(0.0, t_end, n_snapshots)
    sol = solve_pde(config.params, grid, t_end, sample_times=times)
    # every result exists before the first file is written, so a refusal leaves none
    tracks = [track_front(sol, level, window) for level in FRONT_LEVELS]
    mass_residual_max = float(mass_balance_residual(sol).max())
    front_rows = [(track.level, t, pos) for track in tracks for t, pos in track.positions]
    return [
        _write_table(out / "pde_snapshots.csv", config, ["t", "x", "c", "q"],
                     [np.repeat(sol.times, grid.n_cells), np.tile(grid.nodes, sol.times.size),
                      sol.c.ravel(), sol.q.ravel()]),
        _write_table(out / "pde_breakthrough.csv", config, ["t", "c_outlet"],
                     [sol.times, sol.breakthrough]),
        _write_table(out / "pde_front.csv", config, ["level", "t", "position"],
                     np.reshape(front_rows, (-1, 3)).T),
        _write_json(out / "pde_meta.json", config, {
            "fitted_speeds": {str(level): track.fitted_speed
                              for level, track in zip(FRONT_LEVELS, tracks)},
            "fit_window": list(window), "velocity": config.params.velocity,
            "mass_residual_max": mass_residual_max, **dataclasses.asdict(sol.stats)}),
    ]


def _run_sweep(config: RunConfig, out: Path) -> list[Path]:
    records = run_sweep(config.params)
    rows = [(r.pe, r.l2_error, r.t_window, r.e_bt) for r in records]
    failures = {str(r.pe): r.error for r in records if r.error}
    counters = {str(r.pe): {k: getattr(r.stats, k) for k in ("nfev", "njev", "nlu", "steps")}
                for r in records if r.stats is not None}
    return [_write_table(out / "sweep.csv", config, ["pe", "l2_error", "t_window", "e_bt"],
                         np.reshape(rows, (-1, 4)).T),
            _write_json(out / "sweep_meta.json", config,
                        {"failures": failures, "n_records": len(records),
                         "counters": counters})]


def _run_isotherm(config: RunConfig, out: Path) -> list[Path]:
    phys = config.physical
    k_l = phys.k_ad / phys.k_de
    c_in = (phys.c_in * np.logspace(-2.0, 2.0, 41)).tolist()  # four decades around c_in
    return [_write_table(out / "isotherm.csv", config, ["c_in", "q_e"],
                         [c_in, [float(sips_isotherm(c, k_l, phys.q_max, phys.orders))
                                 for c in c_in]])]


_RUNNERS = {"nondim": _run_nondim, "wave": _run_wave, "pde": _run_pde,
            "sweep": _run_sweep, "isotherm": _run_isotherm}


def run(config: RunConfig) -> list[Path]:
    """Execute a validated config and return the written artifact paths.

    An output directory or artifact that cannot be written is a ``ConfigError``.
    """
    out = Path(config.output["dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {str(out)!r}: {exc}") from exc
    try:
        return _RUNNERS[config.mode](config, out)
    except OSError as exc:  # an artifact path taken by a directory, or not writable
        raise ConfigError(f"cannot write an artifact in {str(out)!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adsorb",
        description="Fixed-bed adsorption column simulation and sensitivity toolkit.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to the JSON config document")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)

    try:
        try:
            document = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        paths = run(parse_config(document, args.mode, out=args.out))
    except AdsorptionError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return (2 if isinstance(exc, (ConfigError, DomainError))
                else 3 if isinstance(exc, ExistenceError) else 4)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
