"""What the benchmark's tracer (benchmarks/tracer.py) needs from the package.

The tracer wraps functions by module and name, two RunContext properties and
the preconditioner's methods; a rename here would otherwise surface only when
a traced benchmark run is made.  The tracer patches the preconditioner it
imports from nonlinear_solver, which must be the class the linear solve uses
too, so that traced runs count the limit solves' factor applications.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pressurelab import quadrant_bump_pressure
import pressurelab.linear_solver
from pressurelab.config import RunContext
from pressurelab.nonlinear_solver import StiffnessPreconditioner

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    for module_name, fn_name in tracer.FUNCTIONS:
        module = importlib.import_module(f"pressurelab.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_traced_properties_and_methods_exist():
    for prop in ("pressure", "pressure_extended"):
        assert isinstance(getattr(RunContext, prop), property), prop
    assert callable(getattr(StiffnessPreconditioner, "solve", None))


def test_one_preconditioner_class_serves_both_solvers():
    assert StiffnessPreconditioner is pressurelab.linear_solver.StiffnessPreconditioner


def test_wrapped_field_keeps_its_support(tracer):
    # a traced run must take the same rotation-layer path as an untraced one
    field = quadrant_bump_pressure("flat")
    wrapped = tracer.Tracer().wrap_field(field)
    assert wrapped.support == field.support
    assert wrapped.polar == field.polar
    pts = np.array([[1.5, 1.2], [-0.5, 2.0]])
    assert np.array_equal(wrapped.evaluate(pts), field.evaluate(pts))


def test_wrapped_extension_keeps_its_potential_and_energy(tracer):
    # the solvers read a field through its potential, which the tracer does
    # not wrap: a traced run's energies are an untraced run's
    from pressurelab import DomainSpec, MaterialModel, assemble_energy, build_domain, extend_pressure
    from pressurelab.nonlinear_solver import rigid_map

    field = extend_pressure(quadrant_bump_pressure("strict"), None, 2.2, 1.0)
    wrapped = tracer.Tracer().wrap_field(field)
    assert wrapped.potential is field.potential
    pts = np.array([[1.5, 1.2], [-0.5, 2.0], [2.6, 0.4]])
    for got, want in zip(wrapped.potential(pts), field.potential(pts)):
        assert np.array_equal(got, want)
    mesh = build_domain(DomainSpec.four_lobe(resolution=8))
    y = 1.1 * rigid_map(mesh, 0.4)
    material = MaterialModel()
    assert assemble_energy(mesh, material, wrapped, y, 0.05) == assemble_energy(mesh, material, field, y, 0.05)
