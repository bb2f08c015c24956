import hashlib
import json
import subprocess
import sys

import pytest

from adsorb.analysis import l2_profile_error
from adsorb.cli import CELL_FORMAT, main, parse_config, read_wave_profile, run
from adsorb.errors import ConfigError, ConsistencyError, ExistenceError
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


class TestParseConfig:
    def test_minimal_wave_document(self):
        config = parse_config(wave_doc())
        assert config.mode == "wave"
        assert config.params.q_e == pytest.approx(0.7)
        assert config.solver["n_cells"] == 400
        assert config.solver["eta_star"] == 20.0

    def test_mode_from_subcommand(self):
        doc = json.dumps({"dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0, "m": 1, "n": 1}})
        assert parse_config(doc, mode_override="wave").mode == "wave"
        with pytest.raises(ConfigError):
            parse_config(wave_doc(), mode_override="pde")

    def test_inadmissible_orders_in_wave_mode(self):
        with pytest.raises(ExistenceError):
            parse_config(wave_doc(m=2, n=1))

    def test_inadmissible_orders_allowed_in_pde_mode(self):
        doc = json.dumps({"mode": "pde",
                          "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 2, "n": 1}})
        assert parse_config(doc).params.m == 2

    def test_consistent_alpha_and_qe_accepted(self):
        config = parse_config(wave_doc(alpha=0.7))
        assert config.params.alpha == pytest.approx(0.7, rel=1e-12)

    def test_inconsistent_alpha_and_qe_rejected(self):
        with pytest.raises(ConsistencyError):
            parse_config(wave_doc(alpha=0.62))

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

    def test_exactly_one_parameter_section(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"mode": "wave"}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"mode": "wave", "physical": PHYSICAL,
                                     "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0,
                                                       "m": 1, "n": 1}}))

    def test_physical_needs_diffusion_or_pe(self):
        doc = {"mode": "nondim", "physical": dict(PHYSICAL)}
        with pytest.raises(ConfigError):
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

        doc = json.loads(wave_doc(pe=0.1))
        doc["output"] = {"dir": str(tmp_path / "full")}
        run(parse_config(json.dumps(doc)))
        meta = json.loads((tmp_path / "full" / "wave_meta.json").read_text())
        assert meta["pe"] == 0.1
        assert meta["velocity"] == pytest.approx(1.25, rel=1e-12)

    def test_wave_csv_round_trip_preserves_l2(self, tmp_path):
        doc = json.loads(wave_doc(pe=0.1))
        doc["output"] = {"dir": str(tmp_path)}
        run(parse_config(json.dumps(doc)))
        profile = read_wave_profile(tmp_path / "wave_profile.csv", tmp_path / "wave_meta.json")
        p = DimensionlessParameters.from_qe(0.7, da=0.1, pe=0.1, orders=ReactionOrders(1, 1))
        lead = solve_leading_order(p)
        e_memory = l2_profile_error(solve_full_wave(p), lead)
        e_file = l2_profile_error(profile, lead)
        assert abs(e_memory - e_file) <= 1e-12

    def test_sweep_paper_grid_row_count(self, tmp_path):
        doc = {"mode": "sweep",
               "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.0, "m": 1, "n": 1},
               "output": {"dir": str(tmp_path)}}
        run(parse_config(json.dumps(doc)))
        lines = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "pe,l2_error,t_window,e_bt"
        assert len(lines) - 1 == 16

    def test_pde_artifacts(self, tmp_path):
        doc = {"mode": "pde",
               "dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.2, "m": 1, "n": 1, "ell": 8.0},
               "solver": {"n_cells": 64, "t_end": 5.0, "n_snapshots": 11,
                          "front_levels": [0.5], "fit_start": 3.0, "fit_end": 5.0},
               "output": {"dir": str(tmp_path)}}
        paths = run(parse_config(json.dumps(doc)))
        names = {p.name for p in paths}
        assert names == {"pde_snapshots.csv", "pde_breakthrough.csv", "pde_front.csv",
                         "pde_meta.json"}
        meta = json.loads((tmp_path / "pde_meta.json").read_text())
        v = 1.0 / (0.7 + 0.1)
        assert meta["fitted_speeds"]["0.5"] == pytest.approx(v, rel=0.1)
        # deterministic solver diagnostics only: no wall times in hashed artifacts
        assert set(meta) == {"meta", "fitted_speeds", "fit_window", "velocity",
                             "time_method", "nfev", "njev", "nlu", "mass_residual_max"}
        assert meta["time_method"] == "BDF"
        assert meta["nfev"] > meta["njev"] >= 1 and meta["nlu"] >= meta["njev"]
        assert 0.0 < meta["mass_residual_max"] < 1e-2  # 1.8e-3 on this coarse run
        rows = [l for l in (tmp_path / "pde_snapshots.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[0] == "t,x,c,q"
        assert len(rows) - 1 == 11 * 64

    def test_isotherm_artifacts(self, tmp_path):
        doc = {"mode": "isotherm", "physical": dict(PHYSICAL),
               "isotherm": {"c_in_values": [1.0, 2.835, 10.0]},
               "output": {"dir": str(tmp_path)}}
        run(parse_config(json.dumps(doc)))
        lines = [l for l in (tmp_path / "isotherm.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) - 1 == 3
        c_in, q_e = (float(v) for v in lines[2].split(","))
        expected = sips_isotherm(2.835, 1.13 / 2.173e-4, 0.358, ReactionOrders(1, 1))
        assert c_in == 2.835 and q_e == pytest.approx(expected, rel=1e-14)

    def test_json_output_format(self, tmp_path):
        doc = json.loads(wave_doc(pe=0.0))
        doc["output"] = {"dir": str(tmp_path), "format": "json"}
        run(parse_config(json.dumps(doc)))
        payload = json.loads((tmp_path / "wave_profile.json").read_text())
        assert payload["columns"] == ["eta", "F", "G"]


class TestTableText:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                                       5e-324, 1.0 / 3.0, -1.5e300])
    def test_row_template_matches_fmt(self, value):
        assert CELL_FORMAT % value == f"{value:.16e}"


class TestMainEntry:
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

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["wave", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_existence_refusal_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc(m=2, n=1))
        rc = main(["wave", "--config", str(cfg)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ExistenceError"

    def test_seed_delta_flag_reaches_solver(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(wave_doc(pe=0.1))
        rc = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--seed-delta=-1e-6"])
        assert rc == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DivergenceError"

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
