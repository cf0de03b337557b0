"""Span recorder for the traced benchmark run.

``install`` wraps every public function of the mkglab layer modules and
rebinds each name wherever it is looked up: in the defining module, in every
module that did ``from .x import y`` (``pipeline.evolve``,
``evolution.interp_values``, ``null_extraction.integrate_log_kernel``, ...),
in the package namespace, and in any extra module passed in.  A span is
(name, start, end, parent, run id, work); spans stay in a list in memory
until ``write`` puts them on disk after the run.  The ``RadialGrid.r``
property gets a counting wrapper instead of spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("config", "data_builder", "grid", "core", "evolution",
          "null_extraction", "quadrature", "interior", "asymptotic_system",
          "wave_oracle", "pipeline")

# work counted per call, beside the span (the default is 0)
_WORK = {
    "evolution.step": lambda a, k: (a[1] if len(a) > 1 else k["grid"]).n_cells,
    "grid.interp_values": lambda a, k: int(np.size(a[2] if len(a) > 2 else k["x"])),
}

MONITORS = ("evolution.lorenz_residual", "evolution.charge_monitor",
            "evolution.energy_monitor")

SETUP, RUN = "bench.setup", "bench.run"


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []       # (name, start, end, parent index, run id, work)
        self._stack: list[int] = []
        self.r_builds = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float, work: int) -> None:
        t1 = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, self.run_id, work)

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span called name."""
        return self.wrap(name, fn)(*args)

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0, work(args, kwargs) if work else 0)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("name,start,end,parent,run_id,work\n")
            for name, t0, t1, parent, run_id, work in self.spans:
                f.write(f"{name},{t0!r},{t1!r},{parent},{run_id},{work}\n")

    def stats(self) -> dict:
        """Per-layer metrics named <module>.<function>.<stat>.

        calls, s (inclusive) and self_s (minus direct child spans) for every
        wrapped function that was called, <module>.self_s per layer module,
        and the benchmark's own time outside every layer span as
        trace.unattributed_s.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        fn: dict = {}
        for i, (name, t0, t1, _, _, work) in enumerate(self.spans):
            d = fn.setdefault(name, [0, 0.0, 0.0, 0])
            d[0] += 1
            d[1] += t1 - t0
            d[2] += t1 - t0 - child[i]
            d[3] += work
        out = {f"{mod}.self_s": 0.0 for mod in LAYERS}
        for name, (calls, s, self_s, _) in fn.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
            mod = name.split(".", 1)[0]
            if mod in LAYERS:
                out[f"{mod}.self_s"] += self_s
        roots = [fn.get(r, [0, 0.0, 0.0, 0]) for r in (SETUP, RUN)]
        out["trace.setup_s"] = roots[0][1]
        out["trace.run_s"] = roots[1][1]
        out["trace.unattributed_s"] = roots[0][2] + roots[1][2]
        out["trace.spans"] = len(self.spans)
        cells = fn.get("evolution.step", [0, 0.0, 0.0, 0])
        out["evolution.step.ns_per_cell"] = (
            1e9 * cells[1] / cells[3] if cells[3] else 0.0)
        out["grid.interp_values.points"] = fn.get("grid.interp_values", [0, 0, 0, 0])[3]
        out["evolution.monitors.calls"] = sum(fn.get(m, [0])[0] for m in MONITORS)
        out["evolution.monitors.s"] = sum(fn.get(m, [0, 0.0])[1] for m in MONITORS)
        out["grid.r.builds"] = self.r_builds
        return out


def install(rec: Recorder, extra_modules=()) -> int:
    """Wrap the layer modules' public functions; returns how many."""
    pkg = importlib.import_module("mkglab")
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"mkglab.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = rec.wrap(f"{layer}.{attr}", obj)
    targets = [m for n, m in sys.modules.items()
               if n == "mkglab" or n.startswith("mkglab.")]
    for mod in targets + [pkg] + list(extra_modules):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])

    grid_cls = importlib.import_module("mkglab.grid").RadialGrid
    r_prop = grid_cls.__dict__["r"]

    def r_counted(self):
        rec.r_builds += 1
        return r_prop.fget(self)
    grid_cls.r = property(r_counted, doc=r_prop.__doc__)
    return len(wrappers)
