"""Command-line front end: JSON config in, deterministic artifacts out.

``adsorb <mode> --config <path> [--out <dir>]``, where the mode is one of
``nondim``, ``wave``, ``pde``, ``sweep``, ``isotherm`` and the flags may come
before or after it.  ``parse_config`` is the only reader of the config
document, and ``_SCHEMA`` declares its every key, kind and default; ``--out``
overrides ``output.dir``, its one output setting.  Tables
are CSV files, which start with a comment carrying the toolkit version and a
hash of the fully resolved configuration; metadata documents are JSON files,
which carry both as their ``"meta"`` object.  Floats are written with 17
significant digits, so identical configs produce byte-identical artifacts.
Table cells are the bytes of ``CELL_FORMAT % v``, written in blocks of rows by
a numpy formatter that computes the digits of zeros and of 1e-28 < |v| < 1e17
exactly, on one path for all of them (``_format_cells``); nan, +-inf and the
other magnitudes take ``%`` per cell.  A run whose artifact cannot be written
removes the artifacts it wrote before the failure.  ``main`` builds its
argument parser at its first call and reuses it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import sys
from collections.abc import Iterator
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

# pde mode fits one front speed per level and writes one block of front rows
FRONT_LEVELS = (0.25, 0.5, 0.75)

# Every key of every config section, as key: (kind, default).  A key whose
# default is _REQUIRED must be given; one whose default is None may be null,
# which reads as absent.  The physical section spells out PhysicalParameters,
# with the orders as m and n; "config" is the top level, where only the pe
# override is read through this table.
_REQUIRED = object()
_ORDERS = {"m": ("an integer", _REQUIRED), "n": ("an integer", _REQUIRED)}
_SCHEMA = {
    "config": {"pe": ("a finite number", None)},
    "physical": {
        **{f.name: ("a finite number",
                    _REQUIRED if f.default is dataclasses.MISSING else f.default)
           for f in dataclasses.fields(PhysicalParameters) if f.name != "orders"},
        **_ORDERS,
    },
    "dimensionless": {"da": ("a finite number", _REQUIRED), "pe": ("a finite number", None),
                      "q_e": ("a finite number", _REQUIRED), **_ORDERS,
                      "ell": ("a finite number", None)},
    "solver": {
        "n_cells": ("a 64-bit integer", 400),
        "t_end": ("a finite number", None),  # pde horizon; default 1.4 * ell * (q_e + Da)
        "n_snapshots": ("a 64-bit integer", 101),
    },
    "output": {"dir": ("a string", "out")},
}


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


def _of_kind(value, kind: str) -> bool:
    """Whether the JSON value ``value`` is of the ``_SCHEMA`` kind ``kind``.

    A number must be a finite double: ``json.loads`` also reads NaN, Infinity
    and integers past the largest double.
    """
    if kind == "a string":
        return isinstance(value, str)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # false for NaN
        return False
    if kind == "an integer":  # as ReactionOrders takes them
        return isinstance(value, int)
    if kind == "a 64-bit integer":  # numpy sizes its arrays in int64
        return (isinstance(value, int) or value.is_integer()) and -2 ** 63 <= value < 2 ** 63
    return True


def _read(section: str, given, **override) -> dict:
    """The keys of ``section`` checked against ``_SCHEMA``, with its defaults filled in.

    An absent or null section gives no keys.  An ``override`` value that is not
    None replaces the given one before the kinds are checked.  A required key
    not given reads ``_REQUIRED``; the orders m and n, which a section that
    takes them must give, come back as one ``ReactionOrders`` under ``orders``.
    """
    schema = _SCHEMA[section]
    given = {} if given is None else given
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")
    given = given | {key: value for key, value in override.items() if value is not None}
    for key, value in given.items():
        kind, default = schema[key]
        if not (value is None and default is None or _of_kind(value, kind)):
            raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")
    values = {key: default for key, (_, default) in schema.items()} | given
    if "m" in schema:
        if values["m"] is _REQUIRED or values["n"] is _REQUIRED:
            raise ConfigError(f"{section} must specify the reaction orders m and n")
        values["orders"] = ReactionOrders(values.pop("m"), values.pop("n"))
    return values


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
    unknown = sorted(set(raw) - {"mode", "physical", "dimensionless", "pe", "solver", "output"})
    if unknown:
        raise ConfigError(f"unknown keys in config: {', '.join(unknown)}")

    mode = raw.get("mode")  # null, like an absent key, defers to the mode argument
    if mode is None:
        mode = mode_override
    elif mode_override is not None and mode != mode_override:
        raise ConfigError(f"config mode {mode!r} conflicts with the mode argument "
                          f"{mode_override!r}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    pe_override = _read("config", {"pe": raw.get("pe")})["pe"]
    pe_override = None if pe_override is None else float(pe_override)
    has_phys = raw.get("physical") is not None
    if has_phys == (raw.get("dimensionless") is not None):
        raise ConfigError("exactly one of physical/dimensionless must be given")

    section = "physical" if has_phys else "dimensionless"
    values = _read(section, raw[section])
    missing = [key for key, value in values.items() if value is _REQUIRED]
    if missing and has_phys:
        raise ConfigError(f"physical is missing keys: {', '.join(missing)}")
    if missing:
        raise ConfigError(f"dimensionless must specify {missing[0]}")
    orders = values.pop("orders")
    numbers = {key: float(value) for key, value in values.items() if value is not None}
    physical = None
    if has_phys:
        physical = PhysicalParameters(orders=orders, **numbers)
        if physical.diffusion is None and pe_override is None and mode == "isotherm":
            pe_override = 0.0  # the isotherm involves no transport
        params = nondimensionalize(physical, pe=pe_override)
    else:
        if pe_override is not None:
            numbers["pe"] = pe_override
        if "pe" not in numbers:
            raise ConfigError("dimensionless must specify pe (or use the top-level override)")
        params = DimensionlessParameters(orders=orders, **numbers)

    solver = _read("solver", raw.get("solver"))
    if solver["t_end"] is None:
        solver["t_end"] = 1.4 * params.ell * (params.q_e + params.da)
    if mode == "isotherm" and physical is None:
        raise ConfigError("isotherm mode requires the physical section")
    output = _read("output", raw.get("output"), dir=out)

    physical_resolved = None
    if physical is not None:
        physical_resolved = dataclasses.asdict(physical)
        physical_resolved.update(physical_resolved.pop("orders"))
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
# per cell, for zeros and 10**-28 < |x| < 1e17, on one path.  The 17 digits of
# x are the integer nearest N = |x| * 10**k, rounded half to even, where
# k = 16 - e for the decimal exponent e of x, so k lies in [0, 44].
# - 10**j is an exact double for j <= 22 (5**22 < 2**53).  Veltkamp's split and
#   Dekker's TwoProduct give |x| * 10**min(k, 22) exactly.  Past k = 22 a second
#   TwoProduct scales each part by 10**(k - 22) and Knuth's TwoSum adds the two
#   small parts (_exact).  Either way N = p + s + r exactly, with p a whole
#   number wherever N >= 2**53, |s| < 20 and r a remainder below the lowest set
#   bit of s whose float sign is exact; r = 0 up to k = 22.
# - n = p + floor(s) is floor(N), or one above it where N lies within |r| below
#   the whole number n; next to a power of ten either decade then gives the
#   same text, so one check of n against [1e16, 1e17) settles the decade.
# - N - n - 1/2 has the sign of t = s - (floor(s) + 1/2) where t is not 0,
#   since t is exact wherever |t| < 1/4 and |r| lies below the lowest set bit
#   of s, and that of r where it is; at r = 0 too, n rounds to even.
# - The rounding can carry into an 18th digit: the double 1e-14 is
#   9.99999999999999998819e-15, whose 17 digits round to 10**17, so that cell
#   becomes 10**16 with its exponent raised by one.
# - Zeros of either sign are 17 zero digits with exponent 0.  The sign comes
#   from np.signbit, since -0.0 < 0.0 is false.
# A cell is 7 native uint32 words: [0, sign, lead digit, '.'], four words of
# 4 digits, ['e', sign, d, d] and a word of zeros whose last byte is free for a
# separator; zero bytes are padding.  nan, +-inf, |x| from 1e17 up and nonzero
# |x| up to 10**-28 (subnormals included, and the double 1e-28, which lies
# below 10**-28) go through CELL_FORMAT.
_CELL_BYTES = 28
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_TINY = float(np.nextafter(1e-28, 1.0))  # the least double above 10**-28
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_LEAD = np.frombuffer("".join(f"\0{sign}{d}." for sign in "\0-" for d in range(10)).encode(),
                      dtype=np.uint32)
_EXPONENTS = np.frombuffer("".join(f"e{e:+03d}" for e in range(-28, 17)).encode(),
                           dtype=np.uint32)


def _scaled(a: np.ndarray, k: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k exactly, as p + err with p = fl(a * 10**k) (Dekker's TwoProduct)."""
    p = a * _POW10[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _exact(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a * 10**k for k in [0, 44] exactly, as p + s + r with p = fl(a * 10**k).

    Up to k = 22 this is one TwoProduct and r is 0.  Past it, s is fl(u + q) for
    the small parts u and q of two more, and r is the exact sum of its TwoSum
    error and the error of q, rounded, so it keeps its sign.
    """
    p, s = _scaled(a, np.minimum(k, 22))
    r = np.zeros_like(s)
    deep = np.flatnonzero(k > 22)
    if deep.size:
        p[deep], u = _scaled(p[deep], k[deep] - 22)
        q, q_err = _scaled(s[deep], k[deep] - 22)
        s_deep = u + q
        v = s_deep - u
        s[deep] = s_deep
        r[deep] = ((u - (s_deep - v)) + (q - v)) + q_err
    return p, s, r


def _format_cells(values: np.ndarray) -> np.ndarray:
    """The bytes of ``CELL_FORMAT % v`` for every v, one zero-padded row per cell.

    Returns a ``(values.size, _CELL_BYTES)`` uint8 array in ravel order; the
    last byte of each row is 0, free for a separator.
    """
    x = np.ravel(values)
    ax = np.abs(x)
    inside = (ax >= _TINY) & (ax < 1e17)
    a = np.where(inside, ax, 1.0)
    # log10 can miss the decade by one next to a power of ten (it reads 17.0
    # just below 1e17): clip to the table, then settle the decade exactly
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 44)
    p, s, r = _exact(a, k)
    whole = np.floor(s)
    n = p.astype(np.int64) + whole.astype(np.int64)
    low, high = n < 10 ** 16, n >= 10 ** 17
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] = k[fix] + low[fix] - high[fix]
        p[fix], s[fix], r[fix] = _exact(a[fix], k[fix])
        whole[fix] = np.floor(s[fix])
        n[fix] = p[fix].astype(np.int64) + whole[fix].astype(np.int64)
    t = s - (whole + 0.5)
    up = t > 0.0
    tie = np.flatnonzero(t == 0.0)
    if tie.size:
        up[tie] = (r[tie] > 0.0) | ((r[tie] == 0.0) & (n[tie] % 2 == 1))
    n += up
    carry = np.flatnonzero(n == 10 ** 17)
    n[carry] = 10 ** 16
    k[carry] -= 1
    rest = np.flatnonzero(~inside)
    zero = ax[rest] == 0.0
    n[rest[zero]] = 0  # k is 16 there, as for a = 1.0
    hi = n // 10 ** 8  # one int64 division, then uint32 ones
    lo = (n - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10 ** 8
    hi -= lead * np.uint32(10 ** 8)
    quads = np.empty((x.size, 4), dtype=np.uint32)
    quads[:, 0] = hi // 10000
    quads[:, 1] = hi - quads[:, 0] * np.uint32(10000)
    quads[:, 2] = lo // 10000
    quads[:, 3] = lo - quads[:, 2] * np.uint32(10000)
    words = np.zeros((x.size, _CELL_BYTES // 4), dtype=np.uint32)
    words[:, 0] = _LEAD[lead + 10 * np.signbit(x)]
    words[:, 1:5] = _QUADS.take(quads)  # take casts the uint32 indices faster than []
    words[:, 5] = _EXPONENTS[44 - k]
    text = words.view(np.uint8)
    slow = rest[~zero]
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


def _remove(paths: list[Path]) -> None:
    """Remove the artifacts of a failed write, as far as the file system allows."""
    for path in paths:
        with contextlib.suppress(OSError):
            path.unlink()


def write_wave_profile(table_path: Path, meta_path: Path, profile: WaveProfile,
                       config: RunConfig) -> list[Path]:
    """Write the profile table and its meta document; returns the two paths written.

    A meta document that cannot be written takes the table with it.
    """
    counters = {} if profile.stats is None else dataclasses.asdict(profile.stats)
    table = _write_table(table_path, config, ["eta", "F", "G"],
                         [profile.eta, profile.f, profile.g])
    try:
        meta = _write_json(meta_path, config, {
            "velocity": profile.velocity, "pe": profile.pe, "window": list(profile.window),
            "normalized": True, "samples": int(profile.eta.size), **counters,
        })
    except OSError:
        _remove([table])
        raise
    return [table, meta]


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


# A runner computes its results, then writes its artifacts one by one and
# yields each path once written, so that run knows what to remove on a failure.
def _run_nondim(config: RunConfig, out: Path) -> Iterator[Path]:
    yield _write_json(out / "nondim.json", config,
                      {"dimensionless": config.resolved["dimensionless"]})


def _run_wave(config: RunConfig, out: Path) -> Iterator[Path]:
    if config.params.pe == 0.0:
        profile = solve_leading_order(config.params)
    else:
        profile = solve_full_wave(config.params)
    yield from write_wave_profile(out / "wave_profile.csv", out / "wave_meta.json", profile,
                                  config)


def _run_pde(config: RunConfig, out: Path) -> Iterator[Path]:
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
    yield _write_table(out / "pde_snapshots.csv", config, ["t", "x", "c", "q"],
                       [np.repeat(sol.times, grid.n_cells), np.tile(grid.nodes, sol.times.size),
                        sol.c.ravel(), sol.q.ravel()])
    yield _write_table(out / "pde_breakthrough.csv", config, ["t", "c_outlet"],
                       [sol.times, sol.breakthrough])
    yield _write_table(out / "pde_front.csv", config, ["level", "t", "position"],
                       np.reshape(front_rows, (-1, 3)).T)
    yield _write_json(out / "pde_meta.json", config, {
        "fitted_speeds": {str(level): track.fitted_speed
                          for level, track in zip(FRONT_LEVELS, tracks)},
        "fit_window": list(window), "velocity": config.params.velocity,
        "mass_residual_max": mass_residual_max, **dataclasses.asdict(sol.stats)})


def _run_sweep(config: RunConfig, out: Path) -> Iterator[Path]:
    records = run_sweep(config.params)
    rows = [(r.pe, r.l2_error, r.t_window, r.e_bt) for r in records]
    failures = {str(r.pe): r.error for r in records if r.error}
    counters = {str(r.pe): {k: getattr(r.stats, k) for k in ("nfev", "njev", "nlu", "steps")}
                for r in records if r.stats is not None}
    yield _write_table(out / "sweep.csv", config, ["pe", "l2_error", "t_window", "e_bt"],
                       np.reshape(rows, (-1, 4)).T)
    yield _write_json(out / "sweep_meta.json", config,
                      {"failures": failures, "n_records": len(records), "counters": counters})


def _run_isotherm(config: RunConfig, out: Path) -> Iterator[Path]:
    phys = config.physical
    k_l = phys.k_ad / phys.k_de
    c_in = (phys.c_in * np.logspace(-2.0, 2.0, 41)).tolist()  # four decades around c_in
    yield _write_table(out / "isotherm.csv", config, ["c_in", "q_e"],
                       [c_in, [float(sips_isotherm(c, k_l, phys.q_max, phys.orders))
                               for c in c_in]])


_RUNNERS = {"nondim": _run_nondim, "wave": _run_wave, "pde": _run_pde,
            "sweep": _run_sweep, "isotherm": _run_isotherm}
MODES = tuple(_RUNNERS)


def run(config: RunConfig) -> list[Path]:
    """Execute a validated config and return the written artifact paths.

    An output directory or artifact that cannot be written is a ``ConfigError``,
    and the artifacts this run wrote before it are removed.
    """
    out = Path(config.output["dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {str(out)!r}: {exc}") from exc
    written = []
    try:
        for path in _RUNNERS[config.mode](config, out):
            written.append(path)
    except OSError as exc:  # an artifact path taken by a directory, or not writable
        _remove(written)  # so a failed write leaves no partial set
        raise ConfigError(f"cannot write an artifact in {str(out)!r}: {exc}") from exc
    return written


@functools.cache  # built at the first main call, not at import
def _parser():
    import argparse  # here, so importing the module and parse_config do without it

    parser = argparse.ArgumentParser(
        prog="adsorb",
        description="Fixed-bed adsorption column simulation and sensitivity toolkit.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to the JSON config document")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

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
