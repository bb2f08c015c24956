"""End-to-end benchmark of the adsorb CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {column,sweep,profiles} --seed N \
        --seconds S --trace {0,1}

Each run

1. writes the workload's config documents, drawn from ``--seed``;
2. with ``--trace 0``, times ``SETUP_RUNS`` fresh interpreters that import
   ``adsorb.cli`` and ``parse_config`` those documents (``setup_s`` is the
   median of their times scaled to the reference host speed, see
   ``ref_scale``);
3. starts one worker process that calls ``adsorb.cli.main`` for every
   invocation of the workload, pass after pass, for ``--seconds`` (at least two
   passes); ``wall_ref_s`` and ``cpu_ref_s`` are medians over passes of the
   pass's wall and CPU time scaled to the reference host speed (see
   ``ref_scale``), ``peak_rss_mb`` is the worker's peak resident memory;
4. with ``--trace 1``, adds one traced pass in the same worker (see
   ``tracer.py``) and reports the per-layer metrics instead;
5. checks the artifacts against the acceptance tolerances and checks that
   every pass, the traced one included, wrote byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the environment and every metric by name and unit, including the
unscaled ``wall_s`` and ``cpu_s`` and ``failed_frac``.  Thread pools are pinned
to one thread and ``ADSORB_THREADS`` is removed, so sweeps run serially.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from worker import SpeedSampler  # next to this script, so on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170.0
SETUP_RUNS = 3
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_CODE = (
    "import sys\n"
    "from pathlib import Path\n"
    "from adsorb.cli import parse_config\n"
    "for mode, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
    "    parse_config(Path(path).read_text(encoding='utf-8'), mode_override=mode)\n"
)

E2E_UNITS = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}
# Median time of worker.speed_probe on the reference host, a 2-vCPU VM with
# Python 3.11.7 and numpy 2.4.6.  It is only a fixed scale: a comparison of two
# commits runs both on one host, where it cancels.
REF_PROBE_S = 2.8e-4


def ref_scale(probe_s: float) -> float:
    """Factor that scales times to the reference host speed.

    ``probe_s`` is the median probe time measured while the timed work ran; it
    measures how fast the shared host ran meanwhile, so the scaled times follow
    the program, not the host's drift.
    """
    return REF_PROBE_S / probe_s


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ADSORB_THREADS"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def remaining(t0: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t0)
    if left <= 0:
        raise TimeoutError("benchmark deadline exceeded")
    return left


def measure_setup(plan, env, t0: float) -> list[tuple[float, float]]:
    """(seconds, probe_s) of each set-up; the probes run in this process meanwhile."""
    args = [sys.executable, "-c", SETUP_CODE]
    for mode, path, _name in plan:
        args += [mode, path]
    times = []
    for _ in range(SETUP_RUNS):
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            subprocess.run(args, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, timeout=remaining(t0))
            seconds = time.perf_counter() - start
        times.append((seconds, sampler.median()))
    return times


def per_layer(result: dict, diagnostics: dict, untraced_wall_ref: float) -> dict:
    totals = result["totals"]
    counters = result["counters"]
    written = result["traced"]["written"]

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for name in ("model.analyze_equilibria", "model.nondimensionalize", "pde.solve_pde",
                 "wave.solve_full_wave", "wave.solve_leading_order", "wave.full_system_rhs",
                 "wave.leading_order_rhs", "wave.WaveProfile.f_at", "wave.WaveProfile.eta_at",
                 "analysis.l2_profile_error", "analysis.breakthrough_window_time",
                 "pde.assemble_rhs"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")
    for name in ("pde.solve_pde", "wave.solve_full_wave", "analysis.run_sweep", "cli.run"):
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("pde.track_front", "analysis.run_sweep", "cli.parse_config", "cli.run",
                 "cli.write_wave_profile"):
        out[f"{name}.s"] = (get(name, "s"), "s")
    calls = get("pde.assemble_rhs", "calls")
    out["pde.assemble_rhs.us_per_call"] = (
        1e6 * get("pde.assemble_rhs", "s") / calls if calls else 0.0, "us")
    out["pde.mass_balance_residual.s"] = (diagnostics.get("pde.mass_balance_residual.s", 0.0), "s")
    for name in ("pde.speed_rel_err", "pde.level_spread", "pde.mass_residual_max"):
        out[name] = (diagnostics.get(name, 0.0), "1")

    durations = sorted(totals.get("wave.solve_full_wave", {}).get("durations", []))
    n = len(durations)
    out["wave.solve_full_wave.ms_p50"] = (1e3 * statistics.median(durations) if n else 0.0, "ms")
    # highest percentile with at least 10 calls beyond it: the value at rank n - 11,
    # which is the 100 (n - 10) / n percentile for n = wave.solve_full_wave.calls
    out["wave.solve_full_wave.ms_tail"] = (1e3 * durations[n - 11] if n > 10 else 0.0, "ms")
    out["wave.profile_points"] = (counters["profile_points"], "count")
    out["analysis.records"] = (counters["records"], "count")
    out["analysis.ok_ratio"] = (
        counters["records_ok"] / counters["records"] if counters["records"] else 0.0, "1")
    out["cli.files_written"] = (written["files"], "count")
    out["cli.rows_written"] = (written["rows"], "count")
    out["cli.bytes_written"] = (written["bytes"], "bytes")
    traced = result["traced"]
    out["host.probe_us"] = (1e6 * statistics.median(p["probe_s"] for p in result["passes"]), "us")
    out["trace.wall_s"] = (traced["wall_s"], "s")
    out["trace.overhead_s"] = (traced["wall_s"] * ref_scale(traced["probe_s"])
                               - untraced_wall_ref, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adsorb" / "cli.py").is_file():
        print(f"perfbench: no adsorb sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ADSORB_THREADS", None)
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    import workloads  # next to this script, so on sys.path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    env = pinned_env()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    run_dir = RUNS / run_id
    try:
        calls = workloads.build(args.workload, args.seed)
        plan = workloads.write_configs(calls, run_dir / "configs")
        setup = measure_setup(plan, env, t0) if args.trace == 0 else []

        plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
        plan_path.write_text(json.dumps({
            "invocations": plan, "seconds": args.seconds, "trace": bool(args.trace),
            "work_dir": str(run_dir / "out"), "run_id": run_id,
            "trace_file": str(RUNS / f"trace_{args.workload}_seed{args.seed}.json"),
        }), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                               str(result_path)], env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=remaining(t0))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))

        passes = result["passes"] + ([result["traced"]] if args.trace else [])
        try:
            checks, diagnostics = workloads.check(args.workload, calls, Path(passes[0]["dir"]))
        except Exception as exc:  # a missing or malformed artifact is a failed check
            traceback.print_exc()
            checks, diagnostics = [("artifact checks", False, repr(exc))], {}
        for i, p in enumerate(passes):
            for (mode, _path, name), code in zip(plan, p["codes"]):
                checks.append((f"pass {i} {mode} {name} exit code", code == 0, f"exit {code}"))
        hashes = {p["sha256"] for p in passes}
        checks.append(("artifacts identical across passes", len(hashes) == 1,
                       f"{len(passes)} passes, {len(hashes)} distinct sha256"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        if not ok:
            print(f"perfbench: FAILED {name}: {detail}", file=sys.stderr)
    untraced = result["passes"]
    walls = [p["wall_s"] for p in untraced]
    e2e = {
        "setup_s": statistics.median(t * ref_scale(pr) for t, pr in setup) if setup else None,
        "wall_ref_s": statistics.median(p["wall_s"] * ref_scale(p["probe_s"]) for p in untraced),
        "cpu_ref_s": statistics.median(p["cpu_s"] * ref_scale(p["probe_s"]) for p in untraced),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    env_record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "nproc": len(os.sched_getaffinity(0)),
                  "git_commit": git_commit(), "pass_wall_s": walls,
                  "pass_probe_us": [round(1e6 * p["probe_s"], 2) for p in untraced],
                  "artifact_sha256": sorted(hashes), **result["versions"]}
    print("env " + json.dumps(env_record, sort_keys=True))
    summary = {name: value for name, value in e2e.items() if value is not None}
    if setup:
        summary["setup_unscaled_s"] = statistics.median(t for t, _ in setup)
    summary["wall_s"] = statistics.median(walls)
    summary["cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    summary["failed_frac"] = failed / len(checks)
    summary_units = dict(E2E_UNITS, setup_unscaled_s="s", wall_s="s", cpu_s="s", failed_frac="1")
    print("end_to_end " + " ".join(f"{k}={v:.6g} {summary_units[k]}" for k, v in summary.items()))
    if args.trace:
        layers = per_layer(result, diagnostics, e2e["wall_ref_s"])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        for name, (value, unit) in layers.items():
            print(f"per_layer {name}={value:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
