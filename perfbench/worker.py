"""Run one workload's CLI invocations in this process and time them.

Usage: ``python3 perfbench/worker.py <plan.json> <result.json>``.  The plan
lists the invocations, the measuring time and whether to add a traced pass.
Every pass calls ``adsorb.cli.main`` once per invocation and writes its
artifacts to a directory of its own, which is hashed afterwards.

The host is shared, and its speed per instruction drifts by tens of percent
over seconds to minutes.  While a pass runs, a sampler thread wakes every
``SAMPLE_PERIOD_S`` and times ``speed_probe``, a fixed computation that does not
touch adsorb; the median probe time of the pass records how fast the host ran
during it, so that ``run.py`` can scale the pass to a reference speed.  The
probes hold the GIL for about 1.5% of the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

MIN_PASSES = 2
SAMPLE_PERIOD_S = 0.02
PROBE_X = np.linspace(0.0, 1.0, 400)


def cpu_seconds() -> float:
    """User plus sys time of this process and of the children it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def speed_probe() -> float:
    """Small numpy vector updates and Python float arithmetic, the mix adsorb runs."""
    y, s = PROBE_X, 0.0
    for k in range(12):
        y = 0.5 * (y + np.roll(PROBE_X, 1)) - 0.01 * y * y
        s += float(y[k]) * 1.0001 + k
    return s


class SpeedSampler:
    """Times ``speed_probe`` every ``SAMPLE_PERIOD_S`` in a thread while in use."""

    def __enter__(self):
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = perf_counter()
            speed_probe()
            self.probes.append(perf_counter() - start)

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def median(self) -> float:
        """Median probe time; one probe now if the work was shorter than a period."""
        return statistics.median(self.probes or [speed_probe()])


def run_pass(cli, invocations, out: Path) -> dict:
    codes = []
    with (open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink),
          SpeedSampler() as sampler):
        wall0, cpu0 = perf_counter(), cpu_seconds()
        for mode, config, name in invocations:
            codes.append(cli.main([mode, "--config", config, "--out", str(out / name)]))
        wall, cpu = perf_counter() - wall0, cpu_seconds() - cpu0
    return {"dir": str(out), "wall_s": wall, "cpu_s": cpu, "codes": codes,
            "probe_s": sampler.median(), "sha256": digest(out)}


def digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def written(root: Path) -> dict:
    files = [p for p in root.rglob("*") if p.is_file()]
    rows = 0
    for path in files:
        if path.suffix == ".csv":
            lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                     if ln and not ln.startswith("#")]
            rows += len(lines) - 1  # minus the column header
    return {"files": len(files), "rows": rows, "bytes": sum(p.stat().st_size for p in files)}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import adsorb.cli as cli
    import numpy
    import scipy

    work = Path(plan["work_dir"])
    invocations = plan["invocations"]
    passes = []
    start = perf_counter()
    # At least two passes, so that the determinism check compares two untraced
    # passes and a pass longer than the measuring time is not a lone sample.
    while len(passes) < MIN_PASSES or perf_counter() - start < plan["seconds"]:
        passes.append(run_pass(cli, invocations, work / f"pass{len(passes)}"))
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if plan["trace"]:
        from tracer import Tracer  # next to this script, so on sys.path

        tracer = Tracer(plan["run_id"])
        tracer.install()
        try:
            traced = run_pass(cli, invocations, work / "traced")
        finally:
            tracer.uninstall()
        traced["written"] = written(work / "traced")
        result["traced"] = traced
        result["totals"] = tracer.totals()
        result["counters"] = {"profile_points": tracer.profile_points,
                              "records": tracer.records, "records_ok": tracer.records_ok}
        Path(plan["trace_file"]).write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
