import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import adsorb
from adsorb import analysis, cli, pde
from adsorb.analysis import l2_profile_error
from adsorb.cli import (
    CELL_FORMAT,
    _format_cells,
    _header,
    _write_table,
    main,
    parse_config,
    read_wave_profile,
    run,
)
from adsorb.errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    DomainError,
    ExistenceError,
)
from adsorb.model import DimensionlessParameters, ReactionOrders, sips_isotherm
from adsorb.wave import solve_full_wave, solve_leading_order


def wave_doc(**dimensionless):
    payload = {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1}
    payload.update(dimensionless)
    return json.dumps({"mode": "wave", "dimensionless": payload})


PHYSICAL = {
    "epsilon": 0.3357, "u_in": 0.13, "k_ad": 1.13, "k_de": 2.173e-4,
    "c_in": 2.835, "q_max": 0.358, "rho_b": 377.25, "column_length": 5.4e-3,
    "m": 1, "n": 1,
}


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_python_blocks_run(self, tmp_path, child_env):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks
        for code in blocks:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=child_env, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr

    def test_json_blocks_parse(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                            flags=re.DOTALL)
        assert [parse_config(block).mode for block in blocks] == ["wave", "pde"]

    def test_schema_table_is_the_schema(self):
        # each row: sections, keys, kind (without its article), default
        table = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.split("|")[1:-1]]
            if len(cells) != 4 or not cells[0].startswith("`"):
                continue
            default = "required" if cells[3] == "required" else json.loads(cells[3].strip("`"))
            for section in re.findall(r"`(\w+)`", cells[0]):
                for key in re.findall(r"`(\w+)`", cells[1]):
                    table[section, key] = (cells[2], default)
        assert table == {
            (section, key): (kind.split(" ", 1)[1],
                             "required" if default is cli._REQUIRED else default)
            for section, keys in cli._SCHEMA.items() for key, (kind, default) in keys.items()
        }


class TestPublicSurface:
    def test_public_names_are_pinned(self):
        # adding or removing a public name is a contract change: update this list with it
        names = sorted(k for k, v in vars(adsorb).items()
                       if not k.startswith("_") and not isinstance(v, types.ModuleType))
        assert names == [
            "AdsorptionError", "CellPecletWarning", "ConfigError", "ConvergenceError",
            "CoverageError", "DimensionlessParameters", "DomainError", "EquilibriumReport",
            "ExistenceError", "PhysicalParameters", "RawKinetics", "ReactionOrders",
            "WaveProfile", "alpha_from_qe", "analyze_equilibria",
            "closed_form_wave_11", "convert_raw_rates", "equilibrium_fraction_from_masses",
            "equilibrium_polynomial", "full_system_rhs", "g_from_f", "leading_order_rhs",
            "nondimensionalize", "qe_from_alpha", "sips_isotherm", "solve_full_wave",
            "solve_leading_order",
        ]


# documents whose values have the wrong JSON type, with the key the error names
WRONG_TYPES = [
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
      "solver": {"t_end": "long"}}, "solver.t_end"),
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": "x", "pe": 0.1, "m": 1, "n": 1}},
     "dimensionless.da"),
    # the sweep's Pe grid is a constant: a config that still sets it, even
    # to a value of the wrong type, is refused as an unknown key
    ({"mode": "sweep", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0, "m": 1, "n": 1},
      "solver": {"pe_values": 5}}, "unknown keys in solver: pe_values"),
    # json.loads reads NaN and Infinity, which no config number may be
    ({"mode": "sweep", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0, "m": 1, "n": 1},
      "solver": {"n_cells": math.nan}}, "solver.n_cells"),
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
      "solver": {"n_cells": math.inf}}, "solver.n_cells"),
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
      "solver": {"t_end": math.inf}}, "solver.t_end"),
    ({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
      "solver": {"t_end": math.nan}}, "solver.t_end"),
    ({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
      "solver": {"front_levels": [0.5, -math.inf]}}, "unknown keys in solver: front_levels"),
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1,
                                       "ell": math.inf}}, "dimensionless.ell"),
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "m": 1, "n": 1},
      "pe": math.nan}, "config.pe"),
    ({"mode": "nondim", "physical": {**PHYSICAL, "diffusion": -math.inf}}, "physical.diffusion"),
    # and integers that no double holds
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 10 ** 400, "pe": 0.1, "m": 1, "n": 1}},
     "dimensionless.da"),
    # the reaction orders take JSON integers only
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": "1", "n": 1}},
     "dimensionless.m must be an integer, got '1'"),
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": True, "n": 1}},
     "dimensionless.m must be an integer, got True"),
    ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1.5}},
     "dimensionless.n must be an integer, got 1.5"),
    ({"mode": "nondim", "physical": {**PHYSICAL, "n": 1.0}, "pe": 0.1},
     "physical.n must be an integer, got 1.0"),
]


class TestParseConfig:
    def test_default_hash_is_pinned(self):
        # the resolved defaults of a minimal wave document; a drift in any
        # default value moves every artifact's provenance header
        pinned = "1039f0d2def1f2ae7cd7ac2df3843e7da500afb4b420088a624cf6a36d8c3b97"
        assert parse_config(wave_doc()).config_hash == pinned
        nulls = {**json.loads(wave_doc()), "solver": None, "output": None}
        assert parse_config(json.dumps(nulls)).config_hash == pinned

    @pytest.mark.parametrize("doc,key", WRONG_TYPES + [
        ({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
          "solver": {"n_cells": 64.5}}, "solver.n_cells"),
        # numpy sizes arrays in int64, so a count past it is refused by name
        ({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
          "solver": {"n_cells": 1e300}}, "solver.n_cells must be a 64-bit integer"),
        ({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
          "solver": {"n_snapshots": 1e300}}, "solver.n_snapshots must be a 64-bit integer"),
        ({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
          "solver": {"n_snapshots": 2 ** 63}}, "solver.n_snapshots must be a 64-bit integer"),
        ({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
          "solver": {"front_levels": [0.5, None]}}, "unknown keys in solver: front_levels"),
        # the isotherm's inlet grid is a constant, and its section is gone
        ({"mode": "isotherm", "physical": dict(PHYSICAL),
          "isotherm": {"c_in_values": "1,2"}}, "unknown keys in config: isotherm"),
        ({"mode": "nondim", "physical": {**PHYSICAL, "epsilon": True}, "pe": 0.1},
         "physical.epsilon"),
        ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "m": 1, "n": 1},
          "pe": "0.1"}, "config.pe"),
        ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
          "solver": [1]}, "solver must be a JSON object"),
        ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
          "output": {"dir": 3}}, "output.dir"),
    ] + [
        # only an absent or null section means "use the defaults"
        ({**json.loads(wave_doc()), section: value}, f"{section} must be a JSON object")
        for section, value in (("solver", []), ("solver", 0), ("output", ""))
    ] + [
        ({**json.loads(wave_doc()), "isotherm": False}, "unknown keys in config: isotherm"),
    ])
    def test_wrong_value_types_name_the_key(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("section,key", [
        pytest.param(section, key, id=f"{section}.{key}")
        for section, keys in cli._SCHEMA.items() for key in keys])
    def test_every_key_is_kind_checked(self, section, key):
        # a value of another kind names the key; null is refused unless the default is null
        kind, default = cli._SCHEMA[section][key]

        def document(value):
            doc = {**json.loads(wave_doc()), "pe": 0.1}
            if section == "physical":
                doc = {"mode": "nondim", "physical": dict(PHYSICAL), "pe": 0.1}
            if section == "config":
                return json.dumps({**doc, key: value})
            return json.dumps({**doc, section: {**doc.get(section, {}), key: value}})

        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be {kind}, got "):
            parse_config(document(1 if kind == "a string" else "0.5"))
        if default is None:
            parse_config(document(None))
        else:
            with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be {kind}, got None$"):
                parse_config(document(None))

    def test_integral_values_keep_their_resolved_form(self):
        doc = {"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
               "solver": {"n_cells": 64.0, "t_end": 5}}
        solver = parse_config(json.dumps(doc)).resolved["solver"]
        assert (solver["n_cells"], solver["t_end"]) == (64.0, 5)

    def test_minimal_wave_document(self):
        config = parse_config(wave_doc())
        assert config.mode == "wave"
        assert config.params.q_e == pytest.approx(0.7)
        assert config.solver["n_cells"] == 400
        # every settable solver value; a knob added later shows up here
        assert sorted(config.resolved["solver"]) == ["n_cells", "n_snapshots", "t_end"]

    def test_mode_from_subcommand(self):
        doc = json.dumps({"dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0, "m": 1, "n": 1}})
        assert parse_config(doc, mode_override="wave").mode == "wave"
        with pytest.raises(ConfigError):
            parse_config(wave_doc(), mode_override="pde")

    def test_null_mode_defers_to_the_mode_argument(self):
        # null means "absent", as for every section and for pe
        absent = json.loads(wave_doc())
        del absent["mode"]
        null = {**absent, "mode": None}
        config = parse_config(json.dumps(null), mode_override="wave")
        assert config.mode == "wave"
        assert config.config_hash == parse_config(json.dumps(absent), "wave").config_hash
        assert config.config_hash == parse_config(wave_doc()).config_hash
        with pytest.raises(ConfigError, match="mode must be one of"):
            parse_config(json.dumps(null))

    def test_inadmissible_orders_in_wave_mode(self):
        # the front solvers own the existence rule (exit 3 in TestMainEntry)
        for mode in ("wave", "sweep"):
            doc = {**json.loads(wave_doc(m=2, n=1)), "mode": mode}
            assert parse_config(json.dumps(doc)).params.m == 2

    def test_inadmissible_orders_allowed_in_pde_mode(self):
        doc = json.dumps({"mode": "pde",
                          "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 2, "n": 1}})
        assert parse_config(doc).params.m == 2

    @pytest.mark.parametrize("doc,message", [
        ([json.loads(wave_doc())], "config must be a JSON object"),
        ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1}},
         "dimensionless must specify the reaction orders m and n"),
        ({"mode": "nondim", "pe": 0.1,
          "physical": {k: v for k, v in PHYSICAL.items() if k not in ("u_in", "rho_b")}},
         "physical is missing keys: u_in, rho_b"),
        ({"mode": "wave", "dimensionless": {"q_e": 0.7, "pe": 0.1, "m": 1, "n": 1}},
         "dimensionless must specify da"),
        ({"mode": "wave", "dimensionless": {"q_e": 0.7, "da": 0.1, "m": 1, "n": 1}},
         "dimensionless must specify pe"),
        ({"mode": "wave", "dimensionless": {"da": 0.1, "pe": 0.1, "m": 1, "n": 1}},
         "dimensionless must specify q_e$"),
        ({**json.loads(wave_doc()), "mode": "isotherm"},
         "isotherm mode requires the physical section"),
    ])
    def test_incomplete_documents_name_what_is_missing(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(doc))

    def test_dimensionless_key_set_is_pinned(self):
        # q_e is the one isotherm input: alpha is derived from it, not read
        assert set(cli._SCHEMA["dimensionless"]) == {"da", "pe", "q_e", "m", "n", "ell"}

    def test_unknown_keys_rejected_with_names(self):
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(json.dumps({"mode": "wave", "typo_key": 1,
                                     "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0,
                                                       "m": 1, "n": 1}}))
        with pytest.raises(ConfigError, match="zz"):
            parse_config(wave_doc(zz=2.0))
        with pytest.raises(ConfigError, match="n_quad"):
            parse_config(json.dumps({"mode": "sweep", "solver": {"n_quad": 2001},
                                     "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0,
                                                       "m": 1, "n": 1}}))
        # the leg's seed and the breakthrough window are constants, not settings
        removed = {"seed_delta": 1e-6, "threshold_hi": 1e-2, "threshold_lo": 1e-4}
        with pytest.raises(ConfigError,
                           match="unknown keys in solver: seed_delta, threshold_hi, threshold_lo"):
            parse_config(json.dumps({**json.loads(wave_doc()), "solver": removed}))
        # and so are the front's sampled window, the sweep's L2 window and the
        # pde speed-fit window
        removed = {"eta_span": 22.0, "eta_star": 20.0, "fit_start": 1.0, "fit_end": 2.0}
        with pytest.raises(ConfigError,
                           match="unknown keys in solver: eta_span, eta_star, fit_end, fit_start"):
            parse_config(json.dumps({**json.loads(wave_doc()), "solver": removed}))
        # and so are the wave leg's and the column integrator's tolerances
        removed = {"rel_tol": 1e-8, "abs_tol": 1e-10, "pde_rel_tol": 1e-6, "pde_abs_tol": 1e-9}
        with pytest.raises(ConfigError, match="unknown keys in solver: abs_tol, pde_abs_tol, "
                                              "pde_rel_tol, rel_tol"):
            parse_config(json.dumps({**json.loads(wave_doc()), "solver": removed}))
        # and so are the sweep's Pe grid, the pde front levels and the
        # isotherm's inlet grid, whose section is gone with it
        removed = {"pe_values": [0.0, 0.1], "front_levels": [0.5]}
        with pytest.raises(ConfigError, match="unknown keys in solver: front_levels, pe_values"):
            parse_config(json.dumps({**json.loads(wave_doc()), "solver": removed}))
        with pytest.raises(ConfigError, match="unknown keys in config: isotherm$"):
            parse_config(json.dumps({"mode": "isotherm", "physical": PHYSICAL,
                                     "isotherm": {"c_in_values": [1.0, 2.835]}}))
        # every table is CSV, so the output section holds the directory alone
        with pytest.raises(ConfigError, match="unknown keys in output: format"):
            parse_config(json.dumps({**json.loads(wave_doc()), "output": {"format": "json"}}))

    def test_removed_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc())
        with pytest.raises(SystemExit) as exc:
            main(["wave", "--seed-delta", "1e-6", "--config", str(cfg),
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--seed-delta" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_exactly_one_parameter_section(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"mode": "wave"}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"mode": "wave", "physical": PHYSICAL,
                                     "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0,
                                                       "m": 1, "n": 1}}))

    def test_physical_needs_diffusion_or_pe(self):
        doc = {"mode": "nondim", "physical": dict(PHYSICAL)}
        with pytest.raises(DomainError, match="either diffusion or an explicit pe is required"):
            parse_config(json.dumps(doc))
        doc["pe"] = 0.1
        config = parse_config(json.dumps(doc))
        assert config.params.pe == 0.1

    def test_pe_override_beats_diffusion(self):
        doc = {"mode": "nondim", "physical": dict(PHYSICAL, diffusion=1e-6), "pe": 0.25}
        assert parse_config(json.dumps(doc)).params.pe == 0.25

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_hash_changes_with_config(self):
        h1 = parse_config(wave_doc()).config_hash
        h2 = parse_config(wave_doc(pe=0.2)).config_hash
        assert h1 != h2
        assert parse_config(wave_doc()).config_hash == h1

    def test_hash_is_computed_once_per_config(self, monkeypatch):
        # every artifact of a run reads the same hash; it is serialised and hashed once
        config = parse_config(wave_doc())
        calls, sha256 = [], hashlib.sha256
        monkeypatch.setattr(cli.hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
        assert config.config_hash == config.config_hash == parse_config(wave_doc()).config_hash
        assert len(calls) == 2  # one per RunConfig


# one small run of every mode, and of wave mode on both solvers
MODE_RUNS = [
    pytest.param({"mode": "nondim", "physical": PHYSICAL, "pe": 0.1}, id="nondim"),
    pytest.param(json.loads(wave_doc(pe=0.0)), id="wave-pe0"),
    pytest.param(json.loads(wave_doc(pe=0.1)), id="wave-pe0.1"),
    pytest.param({"mode": "pde", "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.5, "m": 1,
                                                   "n": 1, "ell": 5.0},
                  "solver": {"n_cells": 32, "t_end": 2.0, "n_snapshots": 5}}, id="pde"),
    pytest.param({**json.loads(wave_doc(pe=0.0)), "mode": "sweep"}, id="sweep"),
    pytest.param({"mode": "isotherm", "physical": PHYSICAL}, id="isotherm"),
]


class TestImportIsolation:
    # numpy is the only runtime dependency: with scipy unimportable every mode
    # runs, on numpy's LAPACK route and on the tridiagonal port alike
    @pytest.mark.parametrize("route", ["numpy", "port"])
    @pytest.mark.parametrize("doc", MODE_RUNS)
    def test_mode_runs_without_scipy(self, tmp_path, child_env, doc, route):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [doc["mode"], "--config", str(cfg), "--out", str(tmp_path / "out")]
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from adsorb import analysis, cli, pde\n"
                "analysis.PE_VALUES = (0.0, 0.1)\n"  # a short sweep
                + ("pde._numpy_tridiagonal_lapack = lambda: None\n" if route == "port" else "")
                + f"sys.exit(cli.main({argv!r}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert any((tmp_path / "out").iterdir())


class TestRunners:
    def test_nondim_artifacts(self, tmp_path):
        doc = {"mode": "nondim", "physical": dict(PHYSICAL), "pe": 0.1,
               "output": {"dir": str(tmp_path)}}
        paths = run(parse_config(json.dumps(doc)))
        data = json.loads(paths[0].read_text())
        assert data["dimensionless"]["da"] == pytest.approx(7.046802980996702e-3, rel=1e-12)
        assert data["dimensionless"]["ell"] == pytest.approx(18.885097983881472, rel=1e-12)
        assert "config_sha256" in data["meta"]

    def test_wave_dispatch_on_pe(self, tmp_path):
        doc = json.loads(wave_doc(pe=0.0))
        doc["output"] = {"dir": str(tmp_path / "lead")}
        run(parse_config(json.dumps(doc)))
        meta = json.loads((tmp_path / "lead" / "wave_meta.json").read_text())
        assert meta["pe"] == 0.0
        # the Pe = 0 front integrates no ODE, so it reports no counters
        assert set(meta) == {"meta", "velocity", "pe", "window", "normalized", "samples"}

        doc = json.loads(wave_doc(pe=0.1))
        doc["output"] = {"dir": str(tmp_path / "full")}
        run(parse_config(json.dumps(doc)))
        meta = json.loads((tmp_path / "full" / "wave_meta.json").read_text())
        assert meta["pe"] == 0.1
        assert set(meta) == {"meta", "velocity", "pe", "window", "normalized", "samples",
                             "time_method", "nfev", "njev", "nlu", "steps"}
        assert meta["velocity"] == pytest.approx(1.25, rel=1e-12)
        assert meta["time_method"] == "Radau"
        assert meta["nfev"] > meta["njev"] >= 1 and meta["nfev"] > meta["steps"] > 0
        assert meta["nlu"] >= meta["njev"]

    def test_wave_csv_round_trip_preserves_l2(self, tmp_path):
        doc = json.loads(wave_doc(pe=0.1))
        doc["output"] = {"dir": str(tmp_path)}
        run(parse_config(json.dumps(doc)))
        profile = read_wave_profile(tmp_path / "wave_profile.csv", tmp_path / "wave_meta.json")
        p = DimensionlessParameters(da=0.1, pe=0.1, q_e=0.7, orders=ReactionOrders(1, 1))
        lead = solve_leading_order(p)
        e_memory = l2_profile_error(solve_full_wave(p), lead)
        e_file = l2_profile_error(profile, lead)
        assert abs(e_memory - e_file) <= 1e-12

    @pytest.mark.parametrize("pe", [0.0, 0.1])
    def test_wave_reread_is_the_solved_profile_bit_for_bit(self, tmp_path, pe):
        # 17 significant digits give every double back exactly
        doc = {**json.loads(wave_doc(pe=pe)), "output": {"dir": str(tmp_path)}}
        config = parse_config(json.dumps(doc))
        back = read_wave_profile(*run(config))
        solve = solve_leading_order if pe == 0.0 else solve_full_wave
        memory = solve(config.params)
        for name in ("eta", "f", "g"):
            assert np.array_equal(getattr(back, name), getattr(memory, name))
        assert back.window == memory.window

    def test_wave_reread_refuses_a_window_off_the_table(self, tmp_path):
        doc = json.loads(wave_doc(pe=0.1))
        doc["output"] = {"dir": str(tmp_path)}
        run(parse_config(json.dumps(doc)))
        meta_path = tmp_path / "wave_meta.json"
        meta = json.loads(meta_path.read_text())
        meta["window"][1] += 1.0
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DomainError, match="does not match the sampled eta range"):
            read_wave_profile(tmp_path / "wave_profile.csv", meta_path)

    @pytest.mark.parametrize("table_edit,meta_edit,bad,message", [
        (lambda rows: rows[:3] + ["0.1,abc,0.5"] + rows[4:], None, "table",
         "not a number"),
        (lambda rows: rows[:3] + ["0.1,0.5"] + rows[4:], None, "table", "rows of 3 cells"),
        (lambda rows: rows[:2], None, "table", "rows of 3 cells"),
        (None, lambda meta: json.dumps({k: v for k, v in json.loads(meta).items()
                                        if k != "velocity"}), "meta", "KeyError('velocity')"),
        (None, lambda meta: meta[:-3], "meta", "JSONDecodeError"),
        (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], None, "table",
         "eta samples must increase strictly"),
        (lambda rows: rows[:1] + rows[2:], None, "table", "header line eta,F,G"),
    ], ids=["non-numeric-cell", "ragged-row", "no-data-rows", "no-velocity", "not-json",
            "rows-out-of-order", "no-header-line"])
    def test_wave_reread_refuses_malformed_artifacts(self, tmp_path, table_edit, meta_edit,
                                                     bad, message):
        # each is a DomainError naming the file, so a caller catches one type
        doc = {**json.loads(wave_doc(pe=0.0)), "output": {"dir": str(tmp_path)}}
        paths = dict(zip(("table", "meta"), run(parse_config(json.dumps(doc)))))
        if table_edit is not None:
            rows = paths["table"].read_text().splitlines()
            paths["table"].write_text("\n".join(table_edit(rows)) + "\n")
        if meta_edit is not None:
            paths["meta"].write_text(meta_edit(paths["meta"].read_text()))
        with pytest.raises(DomainError, match=re.escape(message)) as exc:
            read_wave_profile(paths["table"], paths["meta"])
        assert str(paths[bad]) in str(exc.value)

    def test_wave_reread_of_a_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_wave_profile(tmp_path / "wave_profile.csv", tmp_path / "wave_meta.json")

    def test_sweep_paper_grid_row_count(self, tmp_path):
        doc = {"mode": "sweep",
               "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0, "m": 1, "n": 1},
               "output": {"dir": str(tmp_path)}}
        run(parse_config(json.dumps(doc)))
        lines = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "pe,l2_error,t_window,e_bt"
        assert len(lines) - 1 == 16
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        assert set(meta) == {"meta", "failures", "n_records", "counters"}
        assert meta["failures"] == {} and meta["n_records"] == 16
        # the leg counters of every solved Pe > 0, keyed like the failures
        positive = [str(pe) for pe in analysis.PE_VALUES if pe > 0.0]
        assert sorted(meta["counters"]) == sorted(positive)
        for work in meta["counters"].values():
            assert set(work) == {"nfev", "njev", "nlu", "steps"}
            assert work["nfev"] > work["steps"] > 0 and work["nlu"] >= work["njev"] >= 1

    def test_pde_artifacts(self, tmp_path):
        doc = {"mode": "pde",
               "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.2, "m": 1, "n": 1, "ell": 8.0},
               "solver": {"n_cells": 64, "t_end": 5.0, "n_snapshots": 11},
               "output": {"dir": str(tmp_path)}}
        paths = run(parse_config(json.dumps(doc)))
        names = {p.name for p in paths}
        assert names == {"pde_snapshots.csv", "pde_breakthrough.csv", "pde_front.csv",
                         "pde_meta.json"}
        meta = json.loads((tmp_path / "pde_meta.json").read_text())
        v = 1.0 / (0.7 + 0.1)
        # one fitted speed per level of cli.FRONT_LEVELS
        assert list(meta["fitted_speeds"]) == ["0.25", "0.5", "0.75"]
        assert meta["fitted_speeds"]["0.5"] == pytest.approx(v, rel=0.1)
        assert meta["fit_window"] == [2.5, 5.0]  # the second half of the horizon
        # deterministic solver diagnostics only: no wall times in hashed artifacts
        assert set(meta) == {"meta", "fitted_speeds", "fit_window", "velocity",
                             "time_method", "nfev", "njev", "nlu", "steps",
                             "mass_residual_max"}
        assert meta["time_method"] == "BDF"
        assert meta["nfev"] > meta["njev"] >= 1 and meta["nfev"] > meta["steps"] > 0
        assert meta["nlu"] >= meta["njev"]
        assert 0.0 < meta["mass_residual_max"] < 1e-2  # 1.8e-3 on this coarse run
        rows = [l for l in (tmp_path / "pde_snapshots.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[0] == "t,x,c,q"
        assert len(rows) - 1 == 11 * 64

    def test_pde_port_writes_the_columns_bytes(self, tmp_path, monkeypatch):
        # the reference column (400 nodes to t = 10) writes the same four files
        # on the tridiagonal port as on numpy's LAPACK route
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "pde", "physical": PHYSICAL, "pe": 0.1, "solver": {
            "n_cells": 400, "t_end": 10.0, "n_snapshots": 51}}))
        digests = []
        for route in ("numpy", "port"):
            if route == "port":
                monkeypatch.setattr(pde, "_numpy_tridiagonal_lapack", lambda: None)
            out = tmp_path / route
            assert main(["pde", "--config", str(cfg), "--out", str(out)]) == 0
            digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in out.iterdir()})
        assert len(digests[0]) == 4 and digests[0] == digests[1]

    def test_isotherm_artifacts(self, tmp_path):
        # 41 inlet concentrations, log-spaced over four decades around c_in,
        # read back bit for bit from their 17 significant digits
        doc = {"mode": "isotherm", "physical": dict(PHYSICAL),
               "output": {"dir": str(tmp_path)}}
        run(parse_config(json.dumps(doc)))
        lines = [l for l in (tmp_path / "isotherm.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "c_in,q_e"
        assert len(lines) - 1 == 41
        c_in, q_e = np.array([[float(v) for v in l.split(",")] for l in lines[1:]]).T
        assert np.array_equal(c_in, PHYSICAL["c_in"] * np.logspace(-2.0, 2.0, 41))
        for i, scale in ((0, 1e-2), (20, 1.0), (40, 1e2)):
            assert c_in[i] == pytest.approx(scale * PHYSICAL["c_in"], rel=1e-15)
        k_l = PHYSICAL["k_ad"] / PHYSICAL["k_de"]
        assert q_e.tolist() == [sips_isotherm(c, k_l, PHYSICAL["q_max"], ReactionOrders(1, 1))
                                for c in c_in.tolist()]

    @pytest.mark.parametrize("doc", MODE_RUNS)
    def test_main_prints_the_files_it_wrote(self, tmp_path, capsys, monkeypatch, doc):
        # each file carries the run's hash: a CSV table in its header line,
        # a JSON metadata document in its meta
        monkeypatch.setattr(analysis, "PE_VALUES", (0.0, 0.1))  # a short sweep
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([doc["mode"], "--config", str(cfg), "--out", str(out)]) == 0
        printed = [Path(line) for line in capsys.readouterr().out.splitlines()]
        assert all(path.is_file() for path in printed)
        assert set(printed) == set(out.iterdir())
        config = parse_config(json.dumps(doc))
        for path in printed:
            if path.suffix == ".csv":
                assert path.read_text().splitlines()[0] == _header(config).rstrip("\n")
            else:
                assert path.suffix == ".json"
                meta = json.loads(path.read_text())["meta"]
                assert meta["config_sha256"] == config.config_hash


def formatted(values) -> list[str]:
    """``_format_cells``' text of each value, one string per cell."""
    text = _format_cells(np.asarray(values, dtype=float))
    text[:, -1] = ord("\n")
    return text[text != 0].tobytes().decode("ascii").splitlines()


def assert_cells_are_the_format(values) -> None:
    """Every cell of ``_format_cells`` is ``CELL_FORMAT % v``, byte for byte."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    text = _format_cells(values)
    text[:, -1] = ord("\n")
    if text[text != 0].tobytes() != "".join([CELL_FORMAT % v + "\n" for v in values]).encode():
        wrong = [(v, cell) for v, cell in zip(values, formatted(values))
                 if cell != CELL_FORMAT % v]
        pytest.fail(f"cells differ from {CELL_FORMAT!r}: {wrong[:5]}")


class TestTableText:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                                       5e-324, 1.0 / 3.0, -1.5e300])
    def test_row_template_matches_fmt(self, value):
        assert CELL_FORMAT % value == f"{value:.16e}"

    def test_table_text_is_the_per_row_format(self, tmp_path):
        # 2,500 rows span several blocks of one % each
        rng = np.random.default_rng(7)
        columns = rng.standard_normal((3, 2500)) * 10.0 ** rng.integers(-300, 300, (3, 2500))
        columns[:, :4] = [[float("nan"), -0.0, 5e-324, float("inf")]] * 3
        config = parse_config(wave_doc())
        _write_table(tmp_path / "table.csv", config, ["a", "b", "c"], columns)
        rows = "".join(f"{CELL_FORMAT},{CELL_FORMAT},{CELL_FORMAT}\n" % row
                       for row in zip(*columns.tolist()))
        assert (tmp_path / "table.csv").read_bytes() == \
            (_header(config) + "a,b,c\n" + rows).encode()

    def test_in_domain_table_is_the_per_row_format(self, tmp_path):
        # magnitudes 1e-28 .. 1e17 of both signs and zeros of both signs: every
        # cell takes the vectorized digits
        rng = np.random.default_rng(11)
        columns = rng.choice([-1.0, 1.0], (4, 3000)) * 10.0 ** rng.uniform(-28.0, 17.0, (4, 3000))
        columns[:, :2] = [[0.0, -0.0]] * 4
        config = parse_config(wave_doc())
        _write_table(tmp_path / "table.csv", config, ["a", "b", "c", "d"], columns)
        rows = "".join(",".join([CELL_FORMAT] * 4) % row + "\n" for row in zip(*columns.tolist()))
        assert (tmp_path / "table.csv").read_bytes() == \
            (_header(config) + "a,b,c,d\n" + rows).encode()

    def test_writer_holds_one_block_not_the_table(self, tmp_path):
        # 100,000 rows of 4 columns are 3.2 MB of floats; stacking the table
        # whole before formatting it peaked at 3.8 MB of traced memory
        columns = np.random.default_rng(3).standard_normal((4, 100_000))
        config = parse_config(wave_doc())
        _header(config)  # the hash is bound before tracing starts
        tracemalloc.start()
        try:
            _write_table(tmp_path / "table.csv", config, ["a", "b", "c", "d"], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            assert_cells_are_the_format(
                rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        # the double 1e-14 lies below 10**-14 but its 17 digits round up to
        # it: the digits carry, and the exponent rises by one
        assert formatted([1e-14, -1e-14]) == ["1.0000000000000000e-14", "-1.0000000000000000e-14"]
        powers = np.array([float(f"1e{e}") for e in range(-30, 19)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        assert_cells_are_the_format(np.concatenate([values, -values]))

    def test_exact_ties_round_half_to_even(self):
        # x = a 2**-j with odd a has the exact decimal a 5**j 10**-j; when that
        # integer has 18 digits its last digit is 5, so 17 digits tie exactly
        rng = np.random.default_rng(5)
        ties = []
        for j in range(2, 26):
            lo = max(-(-10 ** 17 // 5 ** j), 1)
            hi = min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
            a = rng.integers(lo, hi + 1, 2000) | 1
            a = a[a <= hi]
            assert all(int(v) * 5 ** j % 10 == 5 for v in a[:10])
            ties.append(np.ldexp(a.astype(float), -j))
        ties = np.concatenate(ties)
        assert np.count_nonzero((ties >= 1e-6) & (ties < 1e17)) > 30_000
        assert_cells_are_the_format(np.concatenate([ties, -ties]))

    def test_every_exact_tie_below_1e_minus_6(self):
        # a tie x = a 2**-j with odd a needs an 18-digit a 5**j, so j <= 25,
        # and x < 1e-6 then needs j >= 24: nine ties in all, which round on
        # the two-stage exact product, some up and some down
        ties = [math.ldexp(a, -j) for j in range(20, 30)
                for a in range(1, min((10 ** 18 - 1) // 5 ** j, int(1e-6 * 2 ** j)) + 1, 2)
                if a * 5 ** j >= 10 ** 17]
        assert len(ties) == 9 and 1e-8 < min(ties) and max(ties) < 1e-6
        last_digits = {(CELL_FORMAT % v)[17] for v in ties}
        assert len(last_digits) > 1
        assert_cells_are_the_format(ties + [-v for v in ties])

    def test_near_ties_below_1e_minus_6(self):
        # x 10**k = X 5**k / 2**f lies d / 2**f from a half-integer where
        # X 5**k = 2**(f - 1) + d modulo 2**f; past 1e-6 such offsets fall below
        # the last bit of the two-stage product's middle part and only its
        # remainder tells which way the cell rounds
        ties = []
        for k in range(23, 45):
            for f in range(round(2.32 * k) - 6, round(2.32 * k) + 2):
                inverse = pow(5 ** k, -1, 2 ** f)
                for d in range(-300, 301):
                    start = ((2 ** (f - 1) + d) * inverse) % 2 ** f
                    ties += [math.ldexp(x, -(f + k)) for x in range(start, 2 ** 53, 2 ** f)
                             if x >= 2 ** 52 and 10 ** 16 <= x * 5 ** k >> f < 10 ** 17]
        assert len(ties) > 5_000 and max(ties) < 1e-6
        assert_cells_are_the_format(ties + [-v for v in ties])

    def test_near_ties_from_1e_minus_6_up(self):
        # the same construction in the decades of one product, k <= 22, which
        # round by the same rule; a class mod 2**f holds up to 2**(53 - f)
        # mantissas here, so each gives its four least from 2**52 up
        ties = []
        for k in range(23):
            for f in range(max(round(2.32 * k) - 6, 1), round(2.32 * k) + 2):
                inverse = pow(5 ** k, -1, 2 ** f)
                for d in range(-min(300, 2 ** (f - 1)), min(301, 2 ** (f - 1))):
                    start = ((2 ** (f - 1) + d) * inverse) % 2 ** f
                    first = 2 ** 52 + (start - 2 ** 52) % 2 ** f
                    ties += [math.ldexp(x, -(f + k)) for x in range(first, 2 ** 53, 2 ** f)[:4]
                             if 10 ** 16 <= x * 5 ** k >> f < 10 ** 17]
        assert len(ties) > 5_000 and min(ties) >= 1e-6
        assert_cells_are_the_format(ties + [-v for v in ties])

    def test_zeros_and_1e_minus_28_to_1e17_never_take_the_per_cell_format(self, monkeypatch):
        class Refused(str):
            def __mod__(self, value):
                raise AssertionError(f"{value!r} took the per-cell format")

        rng = np.random.default_rng(12)
        values = np.concatenate([
            [0.0, -0.0, np.nextafter(1e-28, 1.0), np.nextafter(1e17, 0.0), 1e-6, 1e-14],
            rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-28.0, 17.0, 20_000)])
        expected = formatted(values)
        monkeypatch.setattr(cli, "CELL_FORMAT", Refused(CELL_FORMAT))
        assert formatted(values) == expected
        for outside in (1e-28, 5e-324, 1e17, float("nan")):  # the fallback is still there
            with pytest.raises(AssertionError, match="per-cell format"):
                formatted([outside])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                                       5e-324, -5e-324])
    def test_special_values(self, value):
        assert formatted([value]) == [CELL_FORMAT % value]

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
    @hypothesis.given(st.lists(st.floats(), max_size=40))
    def test_any_floats(self, values):
        assert_cells_are_the_format(values)


class TestMainEntry:
    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: adsorb")

    def test_usage_error_then_a_valid_run_in_one_process(self, tmp_path, capsys):
        # the parser is built once per process; an error leaves it usable
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc(pe=0.0))
        with pytest.raises(SystemExit) as exit_info:
            main(["wave", "--config", str(cfg), "--seed-delta", "1e-6"])
        assert exit_info.value.code == 2
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "wave_profile.csv").is_file()

    def test_in_process_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc(pe=0.0))
        digests = []
        for name in ("a", "b"):
            rc = main(["wave", "--config", str(cfg), "--out", str(tmp_path / name)])
            assert rc == 0
            digests.append(hashlib.sha256(
                (tmp_path / name / "wave_profile.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read"),  # no such file
        (b"\xff\xfe{}", "cannot read"),  # not UTF-8
        (b'{"mode": "wave",', "not valid JSON"),
        (b"", "not valid JSON"),
        pytest.param(b'{"pe": 1' + b"0" * 5000 + b"}", "not valid JSON", id="int-digit-limit"),
    ])
    def test_unusable_config_file(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["wave", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one JSON line, no traceback
        err = json.loads(err)
        assert err["error"] == "ConfigError" and message in err["message"]

    @pytest.mark.parametrize("doc,key", WRONG_TYPES)
    def test_wrong_value_type_exit_code(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main([doc["mode"], "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]

    @pytest.mark.parametrize("doc,message", [
        (json.loads(wave_doc(q_e=1.5)), "q_e must lie in (0, 1)"),
        (json.loads(wave_doc(m=0)), "reaction order m must be >= 1"),
        ({"mode": "pde", "physical": {**PHYSICAL, "epsilon": -0.3357}, "pe": 0.1}, "epsilon"),
        # c_in^m past the largest double, where float ** raises OverflowError
        ({"mode": "nondim", "physical": {**PHYSICAL, "c_in": 1e200, "m": 2, "n": 2}, "pe": 0.1},
         "c_in = 1e+200, m = 2"),
    ])
    def test_out_of_domain_value_exit_code(self, tmp_path, capsys, doc, message):
        # a model value outside its domain is the parameter types' own
        # DomainError, which exits 2 like a config error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main([doc["mode"], "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError" and message in err["message"]
        with pytest.raises(DomainError, match=re.escape(message)):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("dimensionless", [
        {"alpha": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
        {"alpha": 0.7, "q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1},
    ], ids=["alpha-alone", "alpha-beside-q_e"])
    def test_alpha_key_is_refused(self, tmp_path, capsys, dimensionless):
        # alpha is derived from q_e, so the config does not take it, even when
        # it matches the isotherm
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "wave", "dimensionless": dimensionless}))
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == "unknown keys in dimensionless: alpha"
        assert not (tmp_path / "o").exists()

    def test_out_flag_needs_an_output_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(wave_doc()), "output": 5}))
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc())
        taken = tmp_path / "afile"
        taken.write_text("")
        assert main(["wave", "--config", str(cfg), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one JSON line, no traceback
        err = json.loads(err)
        assert err["error"] == "ConfigError" and str(taken) in err["message"]

    def test_artifact_path_taken_by_a_directory_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc())
        out = tmp_path / "o"
        (out / "wave_profile.csv").mkdir(parents=True)
        assert main(["wave", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one JSON line, no traceback
        err = json.loads(err)
        assert err["error"] == "ConfigError"
        assert str(out / "wave_profile.csv") in err["message"]

    @pytest.mark.parametrize("doc,taken,written", [
        (json.loads(wave_doc(pe=0.0)), "wave_meta.json", ["wave_profile.csv"]),
        ({"mode": "pde",
          "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.2, "m": 1, "n": 1, "ell": 8.0},
          "solver": {"n_cells": 64, "t_end": 5.0, "n_snapshots": 11}},
         "pde_meta.json", ["pde_snapshots.csv", "pde_breakthrough.csv", "pde_front.csv"]),
    ], ids=["wave", "pde"])
    def test_a_failed_write_leaves_no_partial_set(self, tmp_path, capsys, doc, taken, written):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "d2"
        (out / taken).mkdir(parents=True)
        (out / "notes.txt").write_text("kept")  # not this run's file
        assert main([doc["mode"], "--config", str(cfg), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert sorted(path.name for path in out.iterdir()) == ["notes.txt", taken]
        (out / taken).rmdir()  # the same run then writes the whole set
        assert main([doc["mode"], "--config", str(cfg), "--out", str(out)]) == 0
        assert set(written) < {path.name for path in out.iterdir()}

    def test_a_failed_write_keeps_the_files_it_did_not_write(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc(pe=0.0))
        out = tmp_path / "o"
        (out / "wave_profile.csv").mkdir(parents=True)
        (out / "wave_meta.json").write_text("an earlier run's meta")
        assert main(["wave", "--config", str(cfg), "--out", str(out)]) == 2
        assert (out / "wave_meta.json").read_text() == "an earlier run's meta"

    @pytest.mark.parametrize("mode", ["wave", "sweep"])
    def test_existence_refusal_exit_code(self, tmp_path, capsys, mode):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(wave_doc(m=2, n=1)), "mode": mode}))
        out = tmp_path / "o"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ExistenceError"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("mode,solver,error,message", [
        # the tolerances, the sweep's Pe grid and the pde front levels are
        # constants now; a config that still sets one, even to a value the old
        # check refused, is refused as an unknown key
        ("wave", {"rel_tol": 0}, "ConfigError", "unknown keys in solver: rel_tol"),
        ("wave", {"rel_tol": -1}, "ConfigError", "unknown keys in solver: rel_tol"),
        ("sweep", {"rel_tol": -1}, "ConfigError", "unknown keys in solver: rel_tol"),
        ("sweep", {"pe_values": [0.1, 0.0]}, "ConfigError", "unknown keys in solver: pe_values"),
        ("pde", {"n_cells": 8}, "DomainError", "16 nodes"),
        ("pde", {"pde_rel_tol": 0}, "ConfigError", "unknown keys in solver: pde_rel_tol"),
        ("pde", {"pde_rel_tol": 1e-15}, "ConfigError", "unknown keys in solver: pde_rel_tol"),
        ("pde", {"pde_abs_tol": -1e-9}, "ConfigError", "unknown keys in solver: pde_abs_tol"),
        ("pde", {"pde_abs_tol": 0}, "ConfigError", "unknown keys in solver: pde_abs_tol"),
        ("pde", {"t_end": 0}, "DomainError", "t_end"),
        ("pde", {"n_snapshots": 0}, "DomainError", "n_snapshots"),
        ("pde", {"n_snapshots": -3}, "DomainError", "n_snapshots"),
        ("pde", {"n_snapshots": 1}, "DomainError", "n_snapshots"),
        # past the arrays numpy can size: refused before any is asked for
        ("pde", {"n_cells": 2 ** 62}, "DomainError", "n_cells = 4611686018427387904 asks for"),
        ("pde", {"n_snapshots": 2 ** 62}, "DomainError",
         "n_snapshots = 4611686018427387904 asks for"),
        ("pde", {"front_levels": [0.5, 1.0]}, "ConfigError",
         "unknown keys in solver: front_levels"),
        ("pde", {"front_levels": [0.0]}, "ConfigError", "unknown keys in solver: front_levels"),
        ("pde", {"front_levels": [0.5, 0.5]}, "ConfigError",
         "unknown keys in solver: front_levels"),
        ("pde", {"front_levels": []}, "ConfigError", "unknown keys in solver: front_levels"),
    ])
    def test_solver_value_exit_code(self, tmp_path, capsys, mode, solver, error, message):
        # a solver-section value outside its domain is the solvers' DomainError,
        # a removed key the parser's ConfigError: exit 2, one JSON line, no artifact
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(wave_doc(pe=0.1, ell=5.0)), "mode": mode,
                                   "solver": solver}))
        out = tmp_path / "o"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == error and message in err["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_empty_inlet_grid_exit_code(self, tmp_path, capsys):
        # the inlet grid is a constant: an isotherm section, even an empty
        # grid, is refused as an unknown key before anything is written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "isotherm", "physical": PHYSICAL,
                                   "isotherm": {"c_in_values": []}}))
        out = tmp_path / "o"
        assert main(["isotherm", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "unknown keys in config: isotherm"}
        assert not out.exists()

    @pytest.mark.parametrize("solver,message", [
        # the solution never crosses level 0.75 in the fit window
        ({"n_cells": 64, "t_end": 0.01, "n_snapshots": 11}, "level 0.75"),
        # level 0.25 is crossed at every snapshot (the inlet closure sets
        # c_0 = 1/(1+3w) at once), but t^2 underflows and the speed fit fails
        ({"n_cells": 64, "t_end": 1e-300}, "level 0.25: the least-squares speed fit over "
                                           "(5e-301, 1e-300)"),
    ], ids=["uncrossed", "underflowing-horizon"])
    def test_unfittable_level_exit_code(self, tmp_path, capsys, solver, message):
        # valid values whose result falls short: exit 4, one JSON line, no artifact
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(wave_doc(pe=0.1, ell=5.0)), "mode": "pde",
                                   "solver": solver}))
        out = tmp_path / "o"
        assert main(["pde", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "CoverageError" and message in err["message"]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("dimensionless", [
        {"pe": 1e-300}, {"pe": 1e300}, {"n": 700}, {"pe": 0.0, "n": 100}, {"pe": 0.0, "n": 700},
    ], ids=["1e-300", "1e+300", "n700", "pe0-n100", "pe0-n700"])
    def test_extreme_pe_exit_code(self, tmp_path, capsys, dimensionless):
        # at Pe = 1e-300 F'^2 underflows to 0 on the leg; at Pe = 1e300 the
        # saddle's b^2 overflows and the seed slope rounds to -0.0; at n = 700
        # the rate's partial at the clean state, (1/(1 - q_e))^(n - 1),
        # overflows as a float power before the leg starts.  At Pe = 0 and
        # n = 100, F' near F = 1/2 is about 1e-19, so eta reaches 1e16 and its
        # steps round away; at n = 700 the rate's powers overflow and F'(1/2)
        # rounds to -0.0.  RuntimeWarnings are errors here, so none is raised.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc(**dimensionless))
        out = tmp_path / "o"
        assert main(["wave", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ConvergenceError"
        assert not out.exists() or not any(out.iterdir())

    def test_extreme_da_pde_exit_code(self, tmp_path, capsys):
        # at Da = 1e-300 the rate's change over the probe step overflows the
        # error norm, so the first implicit step is zero
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dimensionless": {"q_e": 0.7, "da": 1e-300, "pe": 0.5, "m": 1, "n": 1, "ell": 5.0},
            "solver": {"n_cells": 20, "t_end": 1.0}}))
        out = tmp_path / "o"
        assert main(["pde", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "ConvergenceError" and "step fell below" in err["message"]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("error,code", [
        (ConfigError, 2), (DomainError, 2), (ExistenceError, 3),
        (ConvergenceError, 4), (CoverageError, 4),
    ])
    def test_the_error_type_sets_the_exit_code(self, tmp_path, capsys, monkeypatch,
                                               error, code):
        def runner(config, out):
            raise error("refused")

        monkeypatch.setitem(cli._RUNNERS, "wave", runner)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc())
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": error.__name__, "message": "refused"}

    def test_flags_match_the_same_values_in_the_document(self, tmp_path):
        doc = json.loads(wave_doc(pe=0.1))
        flagged, written = tmp_path / "flagged.json", tmp_path / "written.json"
        flagged.write_text(json.dumps(doc))
        written.write_text(json.dumps({**doc, "output": {"dir": str(tmp_path / "b")}}))
        # the flags may come before or after the mode
        assert main(["--out", str(tmp_path / "a"), "wave", "--config", str(flagged)]) == 0
        assert main(["wave", "--config", str(written)]) == 0
        for name in ("wave_profile.csv", "wave_meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        config = parse_config(flagged.read_text(), "wave", out="x")
        assert config.config_hash == parse_config(written.read_text()).config_hash
        assert config.output["dir"] == "x"

    def test_console_entry_point(self, tmp_path, child_env):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc(pe=0.0))
        proc = subprocess.run(
            [sys.executable, "-m", "adsorb", "wave", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "wave_profile.csv").exists()
