"""Quick structural checks of every module on tiny meshes; run by `selftest`."""

from __future__ import annotations

import math

import numpy as np

from . import geometry, linear_solver, material, nonlinear_solver, pressure, rotations, studies


def _check(ok: bool, label: str, lines: list[str]) -> bool:
    lines.append(f"{'ok' if ok else 'FAIL'}  {label}")
    return ok


def run_selftest() -> tuple[bool, list[str]]:
    lines: list[str] = []
    good = True
    mesh = geometry.build_domain(geometry.DomainSpec.disk(1.0, 8))
    lobe = geometry.build_domain(geometry.DomainSpec.four_lobe(resolution=8))
    model = material.MaterialModel()

    # geometry
    shifted = mesh.translated(np.array([0.3, -0.2]))
    good &= _check(
        np.allclose(geometry.barycenter(shifted), [0.3, -0.2], atol=1e-12),
        "geometry: barycenter shifts with the mesh", lines)
    good &= _check(
        abs(geometry.boundary_integral(mesh, lambda p, n: np.zeros(len(p)))) == 0.0,
        "geometry: zero boundary integrand integrates to zero", lines)

    # material
    good &= _check(material.g_mixed(0.0, 1.5) == 0.0, "material: penalty vanishes at zero", lines)
    good &= _check(abs(material.g_mixed(1.0, 1.2) - 0.5) < 1e-15,
                   "material: penalty branches agree at one", lines)
    good &= _check(material.dist_so2(material.rotation(0.7)) < 1e-12,
                   "material: rotations are at distance zero", lines)
    good &= _check(material.energy_density(model, np.eye(2)) == 0.0,
                   "material: reference state is stress free", lines)
    good &= _check(material.energy_density(model, np.diag([1.0, -0.5])) == math.inf,
                   "material: orientation reversal costs infinity", lines)
    good &= _check(np.allclose(material.stress(model, np.eye(2)), 0.0),
                   "material: stress vanishes at the identity", lines)
    good &= _check(material.quadratic_form(model, material.SKEW_GENERATOR) == 0.0,
                   "material: skew strains carry no quadratic energy", lines)
    good &= _check(material.det_expansion(np.zeros((2, 2)), 0.3) == 1.0,
                   "material: determinant expansion at zero matrix", lines)

    # pressure
    zero = pressure.builtin_pressure("zero")
    hydro = pressure.builtin_pressure("hydrostatic", {"coefficient": 1.0})
    const = pressure.builtin_pressure("constant", {"value": 2.0})
    good &= _check(zero.evaluate(np.array([0.3, 0.4])) == 0.0, "pressure: zero field", lines)
    good &= _check(abs(hydro.evaluate(np.array([0.3, -2.0])) - 2.0) < 1e-15
                   and hydro.evaluate(np.array([0.3, 2.0])) == 0.0,
                   "pressure: hydrostatic negative part", lines)
    good &= _check(np.all(const.gradient(np.array([[1.0, 2.0]])) == 0.0),
                   "pressure: constant field has zero gradient", lines)
    hat = pressure.extend_pressure(const, 1.0, 2.0, 0.5)
    good &= _check(abs(hat.evaluate(np.array([1.5, 0.0])) - 2.0) < 1e-15,
                   "pressure: extension coincides on the trusted annulus", lines)

    # rotations
    good &= _check(abs(rotations.rotation_functional(mesh, zero, 1.0)) == 0.0,
                   "rotations: zero pressure, zero functional", lines)
    good &= _check(abs(rotations.el_residual(mesh, const, 0.3)) < 1e-12,
                   "rotations: constant pressure satisfies stationarity", lines)
    good &= _check(rotations.second_variation(mesh, const, 0.1, a=0.0) == 0.0,
                   "rotations: zero amplitude, zero second variation", lines)

    # nonlinear solver
    bump = pressure.quadrant_bump_pressure("strict")
    y_r = nonlinear_solver.rigid_map(lobe, 0.0)
    e_id = nonlinear_solver.assemble_energy(lobe, model, bump, y_r, 0.05)
    good &= _check(abs(e_id) < 1e-14, "nonlinear: the identity map has zero energy", lines)
    g = nonlinear_solver.assemble_gradient(mesh, model, zero, nonlinear_solver.identity_map(mesh), 0.0)
    good &= _check(np.allclose(g, 0.0, atol=1e-12),
                   "nonlinear: zero gradient at the unloaded reference", lines)
    gp = nonlinear_solver.project_gradient(mesh, np.tile([0.4, -0.7], (mesh.n_nodes, 1)))
    good &= _check(np.allclose(gp.sum(axis=0), 0.0, atol=1e-9 * mesh.n_nodes),
                   "nonlinear: projection removes the translation component", lines)

    # linear solver
    factor = linear_solver.StiffnessPreconditioner(mesh, model)
    disp, e0 = linear_solver.solve_linearized(factor, linear_solver.assemble_load(mesh, zero, 0.0))
    good &= _check(abs(e0) < 1e-14 and np.allclose(disp.values, 0.0, atol=1e-12),
                   "linear: zero load gives the zero minimizer", lines)
    b, v = linear_solver.divergence_form_check(mesh, const, 0.0, np.zeros_like(mesh.nodes))
    good &= _check(b == 0.0 and v == 0.0, "linear: divergence identity on the zero field", lines)

    # studies
    alpha = 1.2345
    y_rot = nonlinear_solver.rigid_map(mesh, alpha)
    good &= _check(abs(studies.extract_rotation(mesh, model, y_rot) - alpha) < 1e-6,
                   "studies: rotation extraction recovers rigid maps", lines)
    u = 0.01 * np.stack([np.sin(mesh.nodes[:, 0]), mesh.nodes[:, 1] ** 2], axis=1)
    u = nonlinear_solver.zero_average(mesh, u)
    y = studies.rebuild_deformation(mesh, u, alpha, 0.01)
    u_back = studies.rescaled_displacement(mesh, y, alpha, 0.01)
    good &= _check(np.allclose(u_back, u, atol=1e-12),
                   "studies: displacement round trip", lines)
    return good, lines
