"""Per-layer tracing of a pressurelab run, installed from outside the package.

`install` wraps each traced public function in every pressurelab module that
holds it by name (``studies`` imports the solver functions directly, ``cli``
imports ``load_config``), the two methods of ``StiffnessPreconditioner``, and
the ``evaluate``/``gradient`` callables of the pressure fields that
``RunContext`` builds.  Spans stay in memory; a layer's self time is its span
minus the spans of its wrapped children.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs wrapped wherever pressurelab holds them by name
FUNCTIONS = [
    ("cli", "run"),
    ("config", "load_config"),
    ("geometry", "build_domain"),
    ("linear_solver", "assemble_stiffness"),
    ("linear_solver", "solve_linearized"),
    ("nonlinear_solver", "assemble_energy"),
    ("nonlinear_solver", "assemble_gradient"),
    ("nonlinear_solver", "minimize_energy"),
    ("rotations", "rotation_functional"),
    ("rotations", "find_optimal_rotations"),
    ("rotations", "el_residual"),
    ("rotations", "second_variation"),
    ("studies", "extract_rotation"),
    ("studies", "multistart_minimize"),
    ("studies", "minimize_limit_energy"),
    ("studies", "gamma_study"),
]
PRECONDITIONER = "nonlinear_solver.StiffnessPreconditioner"
PRESSURE = ("pressure.evaluate", "pressure.gradient")

# Every per-layer metric a traced run prints, with its unit, in print order.
_WITH_CALLS = [
    "linear_solver.solve_linearized", "linear_solver.assemble_stiffness",
    "nonlinear_solver.assemble_energy", "nonlinear_solver.assemble_gradient",
    "nonlinear_solver.minimize_energy", PRECONDITIONER,
    "rotations.rotation_functional", "studies.extract_rotation", "geometry.build_domain",
]
_SELF_ONLY = [
    "rotations.find_optimal_rotations", "rotations.el_residual", "rotations.second_variation",
    "studies.multistart_minimize", "studies.minimize_limit_energy", "studies.gamma_study",
    "cli.run", "config.load_config",
]
PER_LAYER = (
    [(f"{n}.{k}", u) for n in _WITH_CALLS for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{n}.self_s", "s") for n in _SELF_ONLY]
    + [(f"{n}.{k}", u) for n in PRESSURE for k, u in (("points", "count"), ("self_s", "s"))]
    + [
        (f"{PRECONDITIONER}.factorizations", "count"),
        ("nonlinear_solver.energy_evals_per_gradient", "ratio"),
        ("nonlinear_solver.iterations", "count"),
        ("traced.wall_s", "s"),
    ]
)


class Tracer:
    """In-memory span recorder: spans[i] = [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, on_return=None, points=False):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            if points and not (parent >= 0 and self.spans[parent][0] in PRESSURE):
                # points handed to the outermost field call only: the tapered
                # extension forwards its points to the field it extends
                self.counts[f"{name}.points"] += int(np.asarray(args[0]).size // 2)
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if on_return is not None:
                on_return(result)
            return result

        return functools.wraps(fn)(traced)

    def wrap_field(self, field):
        return dataclasses.replace(
            field,
            evaluate=self.wrap(PRESSURE[0], field.evaluate, points=True),
            gradient=self.wrap(PRESSURE[1], field.gradient, points=True),
        )

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[i]
        return out


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an imported pressurelab in place."""
    import pressurelab.cli  # noqa: F401  (loads every module the CLI uses)
    from pressurelab.config import RunContext
    from pressurelab.nonlinear_solver import StiffnessPreconditioner

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pressurelab"]
    for module_name, fn_name in FUNCTIONS:
        original = getattr(sys.modules[f"pressurelab.{module_name}"], fn_name)
        on_return = None
        if fn_name == "minimize_energy":
            def on_return(result):
                tracer.counts["nonlinear_solver.iterations"] += result[1].iterations
        wrapped = tracer.wrap(f"{module_name}.{fn_name}", original, on_return=on_return)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    def count_factorization(_):
        tracer.counts[f"{PRECONDITIONER}.factorizations"] += 1

    StiffnessPreconditioner.__init__ = tracer.wrap(
        PRECONDITIONER, StiffnessPreconditioner.__init__, on_return=count_factorization)
    StiffnessPreconditioner.solve = tracer.wrap(PRECONDITIONER, StiffnessPreconditioner.solve)

    for prop in ("pressure", "pressure_extended"):
        fget = getattr(RunContext, prop).fget
        setattr(RunContext, prop, property(lambda self, fget=fget: tracer.wrap_field(fget(self))))


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, dict]:
    """Every metric of PER_LAYER, by name, with its unit."""
    agg = tracer.aggregate()
    values: dict[str, float] = {}
    for name, stats in agg.items():
        values[f"{name}.calls"] = stats["calls"]
        values[f"{name}.self_s"] = stats["self_s"]
    values.update(tracer.counts)
    energy = values.get("nonlinear_solver.assemble_energy.calls", 0)
    gradient = values.get("nonlinear_solver.assemble_gradient.calls", 0)
    values["nonlinear_solver.energy_evals_per_gradient"] = energy / gradient if gradient else 0.0
    values["traced.wall_s"] = traced_wall_s
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
