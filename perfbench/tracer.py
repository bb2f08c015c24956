"""Span tracing of the adsorb layers, installed from outside the package.

`Tracer.install` wraps every public function of ``adsorb.model``, ``pde``,
``wave``, ``analysis`` and ``cli`` where it is defined and at every site that
imports it by name: all ``adsorb`` module globals bound to the original object
are rebound, so the RHS closures, which look the RHS functions up as module
globals, call the wrapper too.  ``uninstall`` puts the originals back.

Spans are kept in memory as (name, start, end, parent, child seconds).  The
hot RHS leaves would make millions of spans, so they only add to a call count
and a time total, and charge that time to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("model", "pde", "wave", "analysis", "cli")
LEAVES = {"pde.assemble_rhs", "wave.full_system_rhs", "wave.leading_order_rhs"}
# Called only from assemble_rhs and the snapshot loops; their time stays in
# those callers, and wrapping them would triple the cost of the hottest leaf.
UNWRAPPED = {"pde.step_kinetics", "pde.reconstruct_boundaries"}
METHODS = (("wave", "WaveProfile", "f_at"), ("wave", "WaveProfile", "eta_at"))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.leaves: dict[str, list] = {}
        self.profile_points = 0
        self.records = 0
        self.records_ok = 0
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, frame[1])
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        cell = self.leaves.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                cell[0] += 1
                cell[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _count_profile(self, profile) -> None:
        self.profile_points += int(profile.eta.size)

    def _count_records(self, records) -> None:
        self.records += len(records)
        self.records_ok += sum(1 for r in records if r.error is None)

    _after = {"wave.solve_full_wave": _count_profile,
              "wave.solve_leading_order": _count_profile,
              "analysis.run_sweep": _count_records}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = []  # (name, original)
        for layer in LAYERS:
            module = importlib.import_module(f"adsorb.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__ and name not in UNWRAPPED):
                    targets.append((name, obj))
        sites = [m for key, m in sys.modules.items() if key == "adsorb" or key.startswith("adsorb.")]
        for name, original in targets:
            wrapper = (self._leaf if name in LEAVES else self._span)(name, original)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._restore.append((site, attr, original))
                        setattr(site, attr, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"adsorb.{layer}"], cls_name)
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._span(f"{layer}.{cls_name}.{attr}", original))
        missed = [f"{site.__name__}.{attr}" for site in sites
                  for attr, value in vars(site).items()
                  if any(value is original for _, original in targets)]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left unwrapped bindings: {missed}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per name: calls, total seconds, self seconds and per-call durations."""
        out: dict[str, dict] = {}
        for name, start, end, _parent, child in self.spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
            entry["durations"].append(end - start)
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "s": seconds, "self_s": seconds, "durations": []}
        return out

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [[name, start, end, parent, self.run_id]
                      for name, start, end, parent, _child in self.spans],
            "leaves": {name: {"calls": c, "s": s} for name, (c, s) in self.leaves.items()},
        }
