"""Acceptance gate: one test per production criterion, each printing a
pass/fail line with the measured quantity next to its tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 4 asserts 0 < e_BT < 0.05 at every positive Pe of the
paper grid for the degenerate-clean-state families (2, 2) and (2, 3), and for
Pe <= 0.5 that |e_BT / (S Pe) - 1| <= 0.04 Pe, where S Pe is the window error
of the first-order slow manifold.  For the families (1, n) the clean state is
a saddle and e_BT grows like Pe, so criterion 4 asserts that e_BT is
positive, increases strictly in Pe and lies within 2e-3 relative of the
closed-form saddle oracle 1 + e_BT = lambda_s(0) / lambda_s(Pe).
"""

import hashlib
import itertools
import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from adsorb.analysis import l2_profile_error, run_sweep
from adsorb.errors import ExistenceError
from adsorb.model import REASON_INCREASING, analyze_equilibria
from adsorb.pde import mass_balance_residual, track_front
from adsorb.wave import (
    full_system_rhs,
    leading_order_rhs,
    solve_full_wave,
    solve_leading_order,
)
from adsorb.wave import _leg_field

from conftest import params_for


def report(number, name, ok, detail):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1ClosedFormOracle:
    def test_leading_front_matches_logistic(self):
        t0 = time.perf_counter()
        profile = solve_leading_order(params_for())
        elapsed = time.perf_counter() - t0
        mask = (profile.eta >= -20.0) & (profile.eta <= 20.0)
        rate = 0.7 * (0.7 + 0.1)  # alpha (q_e + Da) for first-order kinetics
        oracle = 1.0 / (1.0 + np.exp(rate * profile.eta[mask]))
        sup = float(np.max(np.abs(profile.f[mask] - oracle)))
        ok = sup <= 1e-6 and elapsed < 1.0
        report(1, "closed-form oracle", ok,
               f"sup-norm {sup:.3e} (tol 1e-6), runtime {elapsed:.3f}s (cap 1s)")
        assert sup <= 1e-6
        assert elapsed < 1.0


class TestCriterion2ExistenceGate:
    def test_admissible_orders_produce_fronts(self):
        pairs = [(m, n) for n in range(1, 4) for m in range(1, n + 1)]
        worst = []
        for m, n in pairs:
            for profile in (solve_leading_order(params_for(m=m, n=n)),
                            solve_full_wave(params_for(pe=0.1, m=m, n=n))):
                assert np.all(np.diff(profile.f) < 0.0), (m, n)
                assert profile.f[0] > 1.0 - 1e-4 and profile.f[-1] < 1e-4, (m, n)
                worst.append(min(profile.f[0] - (1.0 - 1e-4), 1e-4 - profile.f[-1]))
        report(2, "existence gate", True,
               f"{len(pairs)} admissible order pairs, endpoint margin {min(worst):.2e}")

    def test_interior_equilibrium_refusal(self):
        with pytest.raises(ExistenceError) as err:
            solve_leading_order(params_for(q_e=0.7, m=2, n=1))
        c_star = err.value.report.interior_equilibrium
        a = 1.0 / 0.7
        oracle = float(min(np.roots([1.0, -a, a - 1.0])))
        ok = abs(c_star - oracle) <= 1e-6
        report(2, "existence gate, interior equilibrium", ok,
               f"c* = {c_star:.8f} vs quadratic root {oracle:.8f} (tol 1e-6)")
        assert ok

    def test_increasing_solutions_refusal(self):
        report_04 = analyze_equilibria(params_for(q_e=0.4, m=2, n=1))
        ok = (not report_04.admissible) and report_04.reason == REASON_INCREASING
        report(2, "existence gate, increasing solutions", ok,
               f"q_e=0.4, m=2, n=1 -> reason {report_04.reason!r}")
        assert ok
        with pytest.raises(ExistenceError):
            solve_full_wave(params_for(q_e=0.4, pe=0.1, m=2, n=1))


class TestCriterion3ConvergenceToLeadingOrder:
    FAMILIES = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 4)]
    PE_VALUES = (0.01, 0.1, 0.5, 1.5)

    def test_profile_distance_shrinks_with_pe(self):
        t0 = time.perf_counter()
        summaries = []
        ok = True
        for m, n in self.FAMILIES:
            lead = solve_leading_order(params_for(m=m, n=n))
            errors = []
            for pe in self.PE_VALUES:
                full = solve_full_wave(params_for(pe=pe, m=m, n=n))
                errors.append(l2_profile_error(full, lead))
            ordered = all(a < b for a, b in zip(errors, errors[1:]))
            small = errors[0] < 0.02
            ok = ok and ordered and small
            summaries.append(f"({m},{n}) e(0.01)={errors[0]:.4f}")
            assert ordered, (m, n, errors)
            assert small, (m, n, errors[0])
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 60.0
        report(3, "convergence to leading order", ok,
               f"{'; '.join(summaries)}; runtime {elapsed:.1f}s (cap 60s)")
        assert elapsed < 60.0


def saddle_stable_rate(p):
    """Stable eigenvalue of the clean state (0, 0) of ``full_system_rhs`` for (1, n).

    Linearizing the field at (0, 0) gives Pe l^2 - b l - k = 0.  For n >= 2 the
    term (G/q_e)^n is higher order, so b = q_e/(q_e+Da) and k = alpha; for
    n = 1 it is linear, which gives k = alpha q_e and
    b = q_e/(q_e+Da) + alpha (1-q_e) Pe (q_e+Da)/q_e.  The negative root is
    written without cancellation, so Pe = 0 gives the reduced rate -k/b.
    """
    assert p.m == 1, "the clean state is a saddle only for m = 1"
    q_e, da, alpha = p.q_e, p.da, p.alpha
    b, k = q_e / (q_e + da), alpha
    if p.n == 1:
        b += alpha * (1.0 - q_e) * p.pe * (q_e + da) / q_e
        k *= q_e
    return -2.0 * k / (b + np.sqrt(b * b + 4.0 * p.pe * k))


def manifold_partials(p, f):
    """(d/dy, d/dPe) of Phi = Pe y' from ``full_system_rhs`` at Pe = 0, y = h0(F).

    Phi = q_e/(q_e+Da) y - alpha (1-q_e)^n ((a/q_e)^n - F^m (b/(1-q_e))^n) with
    a = q_e F - Pe (q_e+Da) y and b = 1 - a; at Pe = 0, a/q_e = F.
    """
    q_e, da, alpha, m, n = p.q_e, p.da, p.alpha, p.m, p.n
    h0 = leading_order_rhs(f, p)
    d_y = q_e / (q_e + da)
    d_pe = (alpha * (1.0 - q_e) ** n * n * (q_e + da) * h0
            * (f ** (n - 1) / q_e
               + f ** m * ((1.0 - q_e * f) / (1.0 - q_e)) ** (n - 1) / (1.0 - q_e)))
    return d_y, d_pe


def manifold_window_slope(p, hi=1e-2, lo=1e-4):
    """Slope S of e_BT = S Pe + O(Pe^2) on the first-order slow manifold.

    The attracting manifold is F' = h0 + Pe h1 + O(Pe^2) with
    h1 = (h0 h0' - dPhi/dPe) / (dPhi/dy), so the window (1/v) int dF / |F'|
    over [lo, hi] changes by the factor 1 + S Pe with
    S = int h1 / h0^2 dF / int dF / |h0|; both integrals are taken in ln F.
    """
    q_e, alpha, m, n = p.q_e, p.alpha, p.m, p.n
    scale = (q_e + p.da) * q_e ** (n - 1)

    def h1(f):
        h0 = leading_order_rhs(f, p)
        h0_prime = scale * ((1.0 - alpha) * n * f ** (n - 1) - alpha * (
            m * f ** (m - 1) * (1.0 / q_e - f) ** n - n * f ** m * (1.0 / q_e - f) ** (n - 1)))
        d_y, d_pe = manifold_partials(p, f)
        return (h0 * h0_prime - d_pe) / d_y

    def in_log_f(g):
        return quad(lambda s: math.exp(s) * g(math.exp(s)), math.log(lo), math.log(hi),
                    epsrel=1e-12)[0]

    return (in_log_f(lambda f: h1(f) / leading_order_rhs(f, p) ** 2)
            / in_log_f(lambda f: -1.0 / leading_order_rhs(f, p)))


class TestCriterion4BreakthroughRobustness:
    CASES = [(0.1, 1, 1), (0.1, 1, 2), (0.1, 1, 3), (0.1, 2, 2), (0.1, 2, 3),
             (0.5, 1, 1), (0.5, 1, 2), (0.5, 2, 2), (0.5, 2, 3)]  # (Da, m, n)
    ORACLE_RTOL = 2e-3
    MANIFOLD_PE_MAX = 0.5   # the O(Pe^2) remainder is checked below this Pe
    MANIFOLD_TOL = 0.04     # on |e_BT / (S Pe) - 1| / Pe

    def test_window_error_positive_and_small(self):
        failures = []
        lines = []
        for da, m, n in self.CASES:
            records = run_sweep(params_for(da=da, m=m, n=n))
            positive = [r for r in records if r.pe > 0]
            assert all(r.error is None for r in positive)
            e_range = (f"e_bt in [{min(r.e_bt for r in positive):.4f}, "
                       f"{max(r.e_bt for r in positive):.4f}]")
            if m == 1:
                bad = [(r.pe, f"e_bt {r.e_bt:.4f} not > 0")
                       for r in positive if not r.e_bt > 0.0]
                bad += [(b.pe, f"e_bt {b.e_bt:.4f} not above {a.e_bt:.4f}")
                        for a, b in zip(positive, positive[1:]) if not b.e_bt > a.e_bt]
                rate_0 = saddle_stable_rate(params_for(da=da, n=n))
                worst = 0.0
                for r in positive:
                    e_pred = rate_0 / saddle_stable_rate(params_for(da=da, pe=r.pe, n=n)) - 1.0
                    dev = abs((1.0 + r.e_bt) / (1.0 + e_pred) - 1.0)
                    worst = max(worst, dev)
                    if not dev <= self.ORACLE_RTOL:
                        bad.append((r.pe, f"e_bt {r.e_bt:.4f} vs saddle oracle {e_pred:.4f}"))
                lines.append(f"Da={da} ({m},{n}): {e_range}, max saddle-oracle deviation "
                             f"{worst:.2e} (tol {self.ORACLE_RTOL:g})")
            else:
                bad = [(r.pe, f"e_bt {r.e_bt:.4f} outside (0, 0.05)")
                       for r in positive if not (0.0 < r.e_bt < 0.05)]
                outside = len(bad)
                slope = manifold_window_slope(params_for(da=da, m=m, n=n))
                worst = 0.0
                for r in positive:
                    if r.pe > self.MANIFOLD_PE_MAX:
                        continue
                    dev = abs(r.e_bt / (slope * r.pe) - 1.0) / r.pe
                    worst = max(worst, dev)
                    if not dev <= self.MANIFOLD_TOL:
                        bad.append((r.pe, f"e_bt {r.e_bt:.4e} vs slow-manifold oracle "
                                          f"{slope * r.pe:.4e}"))
                lines.append(f"Da={da} ({m},{n}): {e_range}, "
                             f"{outside}/{len(positive)} out of (0, 0.05), max "
                             f"|e_bt/(S Pe) - 1|/Pe {worst:.4f} (tol {self.MANIFOLD_TOL:g})")
            failures.extend((da, m, n, pe, why) for pe, why in bad)
        ok = not failures
        report(4, "breakthrough robustness", ok, "; ".join(lines))
        assert ok, "breakthrough-window errors failed: " + ", ".join(
            f"Da={da} (m,n)=({m},{n}) Pe={pe:g}: {why}" for da, m, n, pe, why in failures
        )

    @pytest.mark.parametrize("da", [0.1, 0.5])
    def test_saddle_rate_matches_field_jacobian(self, da):
        h = 1e-6
        for n, pe in itertools.product((1, 2, 3), (0.05, 0.5, 1.5)):
            p = params_for(da=da, pe=pe, n=n)
            jacobian = np.column_stack([
                np.subtract(full_system_rhs(dx, dy, p), full_system_rhs(-dx, -dy, p)) / (2.0 * h)
                for dx, dy in ((h, 0.0), (0.0, h))
            ])
            eigenvalues = np.linalg.eigvals(jacobian)
            assert np.all(np.isreal(eigenvalues))
            assert min(eigenvalues.real) < 0.0 < max(eigenvalues.real)
            assert min(eigenvalues.real) == pytest.approx(saddle_stable_rate(p), rel=1e-6)

    @pytest.mark.parametrize("pe", [1e-3, 0.5, 1.5])
    @pytest.mark.parametrize("q_e,da", [(0.7, 0.1), (0.99993, 0.007)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_library_saddle_rate_matches_oracle(self, n, q_e, da, pe):
        # the leg's seed and tail read lambda_s from the bound rate law
        p = params_for(q_e=q_e, da=da, pe=pe, n=n)
        assert _leg_field(p)[2](1.0) == pytest.approx(saddle_stable_rate(p), rel=1e-12)

    @pytest.mark.parametrize("da", [0.1, 0.5])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_manifold_partials_match_field(self, m, n, da):
        p = params_for(da=da, m=m, n=n)

        def phi(pe, y):
            return pe * full_system_rhs(f, y, replace(p, pe=pe))[1]

        for f in (0.1, 0.5):
            y = float(leading_order_rhs(f, p))
            d_y, d_pe = manifold_partials(p, f)
            # Phi(Pe = 0) = 0 on the slow set: Richardson on Phi / Pe, then a
            # central difference in y at a Pe small enough to be Pe = 0
            h = 1e-3
            fd_pe = 2.0 * phi(h / 2.0, y) / (h / 2.0) - phi(h, y) / h
            k = 1e-6
            fd_y = (phi(1e-9, y + k) - phi(1e-9, y - k)) / (2.0 * k)
            assert fd_pe == pytest.approx(d_pe, rel=1e-4)
            assert fd_y == pytest.approx(d_y, rel=1e-4)


class TestCriterion5FrontSpeedConsistency:
    def test_fitted_speeds(self, front_speed_run, eq_column_params):
        sol, elapsed = front_speed_run
        v = eq_column_params.velocity
        speeds = {level: track_front(sol, level, (8.0, 16.0)).fitted_speed
                  for level in (0.25, 0.5, 0.75)}
        mid_err = abs(speeds[0.5] - v) / v
        spread = (max(speeds.values()) - min(speeds.values())) / min(speeds.values())
        ok = mid_err < 0.05 and spread < 0.02 and elapsed < 120.0
        report(5, "front speed consistency", ok,
               f"|speed-v|/v = {mid_err:.2e} (tol 0.05), level spread {spread:.2e} "
               f"(tol 0.02), solve {elapsed:.0f}s (cap 120s)")
        assert mid_err < 0.05
        assert spread < 0.02
        assert elapsed < 120.0


class TestCriterion6ConservationAudit:
    def test_residual_small_and_second_order(self, front_speed_run, refinement_residuals):
        sol, _ = front_speed_run
        residual = float(mass_balance_residual(sol).max())
        ratio = refinement_residuals[400] / refinement_residuals[800]
        ok = residual < 1e-3 and ratio >= 3.5
        report(6, "conservation audit", ok,
               f"max residual {residual:.2e} (tol 1e-3), refinement ratio {ratio:.2f} "
               f"(needs >= 3.5)")
        assert residual < 1e-3
        assert ratio >= 3.5


class TestCriterion7SlowManifoldDistance:
    def test_distance_shrinks_with_pe(self):
        def distance(pe):
            p = params_for(pe=pe)
            w = solve_full_wave(p)
            mask = (w.eta >= -15.0) & (w.eta <= 15.0) & (w.f >= 0.05) & (w.f <= 0.95)
            y = (p.q_e * w.f[mask] - w.g[mask]) / (pe * (p.q_e + p.da))
            return float(np.max(np.abs(y - leading_order_rhs(w.f[mask], p))))

        d_small, d_large = distance(0.01), distance(0.1)
        ok = d_small < d_large
        report(7, "slow-manifold distance", ok,
               f"max |y - slow set| = {d_small:.2e} at Pe=0.01 vs {d_large:.2e} at Pe=0.1")
        assert ok


class TestCriterion8Determinism:
    RUNS = {
        "wave": ({"dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.1, "m": 1, "n": 1}},
                 ("wave_profile.csv", "wave_meta.json")),
        # the BDF port, its Newton matrices factored by LAPACK's tridiagonal
        # dgttrf, must repeat itself bit for bit
        "pde": ({"dimensionless": {"q_e": 0.7, "da": 0.1, "pe": 0.2, "m": 1, "n": 1,
                                   "ell": 8.0},
                 "solver": {"n_cells": 64, "t_end": 5.0, "n_snapshots": 11}},
                ("pde_snapshots.csv", "pde_breakthrough.csv", "pde_front.csv",
                 "pde_meta.json")),
    }

    def test_repeated_cli_runs_are_byte_identical(self, tmp_path, child_env):
        details, ok = [], True
        for mode, (doc, files) in self.RUNS.items():
            cfg = tmp_path / f"{mode}.json"
            cfg.write_text(json.dumps({"mode": mode, **doc}))
            digests = []
            for name in ("first", "second"):
                out = tmp_path / mode / name
                proc = subprocess.run(
                    [sys.executable, "-m", "adsorb", mode, "--config", str(cfg),
                     "--out", str(out)],
                    capture_output=True, text=True, env=child_env,
                )
                assert proc.returncode == 0, proc.stderr
                blob = b"".join(sorted((out / f).read_bytes() for f in files))
                digests.append(hashlib.sha256(blob).hexdigest())
            ok = ok and digests[0] == digests[1]
            details.append(f"{mode} artifact sha256 {digests[0][:16]}...")
        report(8, "determinism", ok, f"{', '.join(details)} twice each")
        assert ok
