"""The one-gather energy and gradient kernels against the matrix formulation
and against the fancy-indexed kernels the sparse P1 gather replaced (the
gather bit for bit, the gradient through its transpose to rounding); the
transpose as the adjoint of the gather and as a view of its arrays; the
reuse of an energy evaluation's state; the direct path of the pressure
extension, and the reference potential, evaluated once per mesh and field."""

import dataclasses

import numpy as np
import pytest
from conftest import fancy_gather, fancy_gradient, noisy_start

from pressurelab import DomainSpec, MaterialModel, build_domain, builtin_pressure, extend_pressure, nonlinear_solver, rotations
from pressurelab.geometry import SIMPSON, edge_rule
from pressurelab.linear_solver import _p1_gather, gather, gather_transpose
from pressurelab.material import g_mixed
from pressurelab.nonlinear_solver import (
    assemble_energy,
    assemble_gradient,
    deformation_gradients,
    minimize_energy,
    project_gradient,
)
from pressurelab.pressure import polar_factor

FIELDS = [("zero", {}, None), ("constant", {"value": 0.1}, None), ("constant", {"value": -0.3}, None),
          ("hydrostatic", {"coefficient": 0.5}, None), ("quadrant_bump", {}, "strict"),
          ("quadrant_bump", {}, "flat")]
MATERIALS = [MaterialModel(), MaterialModel(c1=1.3, c2=0.7, p=1.5, q=1.5)]


def _extended(pi, mesh):
    r = float(np.max(np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])))
    return extend_pressure(pi, None, 1.1 * r, 0.5 * r)


def _matrix_gradients(mesh, y):
    yt = y[mesh.triangles]
    F = np.matmul(yt.transpose(0, 2, 1), mesh.basis_gradients)
    return F, F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]


def _matrix_work(mesh, pi_hat, y):
    """The boundary pressure work of y as one sum over the rule points of
    each edge (a, b), SIMPSON[0] @ [y_a, y_b], and its nodal gradient
    scattered with np.add.at."""
    (bary, weights), ends = SIMPSON, y[mesh.boundary_edges]
    pts = np.stack([bary[g, 0] * ends[:, 0] + bary[g, 1] * ends[:, 1] for g in range(3)], axis=1)
    nrm = (ends[:, 1] - ends[:, 0]) @ np.array([[0.0, -1.0], [1.0, 0.0]])
    phi, jac = pi_hat.potential(pts.reshape(-1, 2))
    phi, jac = phi.reshape(pts.shape), jac.reshape(pts.shape + (2,))
    work = float(np.einsum("g,egi,ei->", weights, phi, nrm))
    at_points = np.einsum("g,egij,ei->egj", weights, jac, nrm)
    along = np.einsum("g,egi->ei", weights, phi) @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    contrib = np.matmul(bary.T, at_points) + np.stack([-along, along], axis=1)
    grad = np.zeros_like(y)
    np.add.at(grad, mesh.boundary_edges, contrib)
    return work, grad


def _matrix_energy(mesh, material, pi_hat, y, eps):
    F, det = _matrix_gradients(mesh, y)
    a = F[:, 0, 0] + F[:, 1, 1]
    b = F[:, 1, 0] - F[:, 0, 1]
    d = np.sqrt(np.maximum(np.einsum("tij,tij->t", F, F) + 2.0 - 2.0 * np.hypot(a, b), 0.0))
    w_el = material.c1 * g_mixed(d, material.p) + material.c2 * g_mixed(np.abs(det - 1.0), material.q)
    work = _matrix_work(mesh, pi_hat, y)[0] - _matrix_work(mesh, pi_hat, mesh.nodes)[0]
    return float(mesh.areas @ w_el) + eps * work


def _matrix_gradient(mesh, material, pi_hat, y, eps):
    F, det = _matrix_gradients(mesh, y)
    a = F[:, 0, 0] + F[:, 1, 1]
    b = F[:, 1, 0] - F[:, 0, 1]
    s = np.hypot(a, b)
    d = np.sqrt(np.maximum(np.einsum("tij,tij->t", F, F) + 2.0 - 2.0 * s, 0.0))
    h = np.where(d <= 1.0, 1.0, np.maximum(d, 1.0) ** (material.p - 2.0))
    R = np.stack([np.stack([a, -b], -1), np.stack([b, a], -1)], -2) / s[:, None, None]
    t = det - 1.0
    k = np.where(np.abs(t) <= 1.0, t, np.sign(t) * np.maximum(np.abs(t), 1.0) ** (material.q - 1.0))
    cof = np.stack([np.stack([F[:, 1, 1], -F[:, 1, 0]], -1), np.stack([-F[:, 0, 1], F[:, 0, 0]], -1)], -2)
    S = material.c1 * h[:, None, None] * (F - R) + material.c2 * k[:, None, None] * cof
    G = mesh.basis_gradients
    contrib = mesh.areas[:, None, None] * np.matmul(G, S.transpose(0, 2, 1))
    grad = np.zeros_like(y)
    np.add.at(grad, mesh.triangles, contrib)
    return project_gradient(mesh, grad + eps * _matrix_work(mesh, pi_hat, y)[1])


def _random_maps(mesh, n=3):
    rng = np.random.default_rng(17)
    maps = []
    for alpha, amp in zip((0.0, 2.2, 4.0), (1e-3, 1e-2, 3e-2)[:n]):
        y = noisy_start(mesh, alpha, amp * mesh.diameter, rng)
        # a smooth dilation by 0.7 to 2.7 moves triangles off the quadratic branches
        maps.append(y * (1.7 + np.sin(0.25 * mesh.nodes[:, :1] + alpha)))
    return maps


@pytest.mark.parametrize("mesh_name", ["disk16", "lobe16"])
def test_kernels_match_the_matrix_formulation(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    for y in _random_maps(mesh):
        F_ref, det_ref = _matrix_gradients(mesh, y)
        assert np.all(det_ref > 0.0)
        F, det = deformation_gradients(mesh, y)
        assert np.max(np.abs(F - F_ref)) <= 1e-13 * (1.0 + np.max(np.abs(F_ref)))
        assert np.max(np.abs(det - det_ref)) <= 1e-13 * (1.0 + np.max(np.abs(det_ref)))
        for name, params, variant in FIELDS:
            pi = builtin_pressure(name, params, variant)
            for field in (pi, _extended(pi, mesh)):
                for material in MATERIALS:
                    e_ref = _matrix_energy(mesh, material, field, y, 0.05)
                    e = assemble_energy(mesh, material, field, y, 0.05)
                    assert abs(e - e_ref) <= 1e-13 * (1.0 + abs(e_ref)), (name, variant)
                    g_ref = _matrix_gradient(mesh, material, field, y, 0.05)
                    g = assemble_gradient(mesh, material, field, y, 0.05)
                    assert np.max(np.abs(g - g_ref)) <= 1e-13 * (1.0 + np.max(np.abs(g_ref))), (name, variant)


@pytest.mark.parametrize("mesh_name", ["disk16", "annulus32", "lobe16", "lobe32"])
def test_gather_and_its_transpose_match_the_fancy_indexed_kernels(mesh_name, request):
    # the gather sums each row in the fancy-indexed order, bit for bit; the
    # gradient goes through its transpose, which sums in another order
    mesh = request.getfixturevalue(mesh_name)
    for y in _random_maps(mesh):
        reference = fancy_gather(mesh, y)
        for got, want in zip(gather(mesh, y), reference):
            assert np.array_equal(got, want)
        if np.any(reference[1] <= 0.0):
            continue  # the largest map folds one triangle of annulus32: no gradient there
        for name, params, variant in FIELDS:
            hat = _extended(builtin_pressure(name, params, variant), mesh)
            g_ref = fancy_gradient(mesh, MATERIALS[1], hat, y, 0.05)
            g = assemble_gradient(mesh, MATERIALS[1], hat, y, 0.05)
            assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref)), (name, variant)


@pytest.mark.parametrize("mesh_name", ["disk16", "annulus32", "lobe16"])
def test_gather_transpose_is_the_adjoint_of_the_gather(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    m = len(mesh.triangles)
    rng = np.random.default_rng(11)
    y = rng.normal(size=(mesh.n_nodes, 2))
    f_bar = rng.normal(size=(2, 2, m))
    f, _ = gather(mesh, y)
    terms = (f * f_bar).ravel()
    adjoint = float(np.sum(y * gather_transpose(mesh, f_bar)))
    assert abs(np.sum(terms) - adjoint) <= 1e-13 * np.sum(np.abs(terms))
    assert _p1_gather(mesh).shape == (2 * m, mesh.n_nodes)  # the gradient rows alone


@pytest.mark.parametrize("mesh_name", ["disk16", "annulus32", "lobe16"])
def test_gather_transpose_is_a_view_that_sums_like_a_csr_copy(mesh_name, request):
    # the CSC view shares the gather's arrays and, like a CSR copy of the
    # transpose, sums each node's terms in increasing gather-row order
    mesh = request.getfixturevalue(mesh_name)
    m = len(mesh.triangles)
    rng = np.random.default_rng(5)
    f_bar = rng.normal(size=(2, 2, m))
    out = gather_transpose(mesh, f_bar)
    G = mesh.tables["p1"]
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(mesh.tables["p1T"], name), getattr(G, name))
    assert np.array_equal(out, G.T.tocsr() @ np.reshape(f_bar, (2, -1)).T)


def test_gradient_from_a_kept_energy_state_is_the_fresh_gradient(lobe16):
    for name, params, variant in FIELDS:
        hat = _extended(builtin_pressure(name, params, variant), lobe16)
        for y in _random_maps(lobe16, n=2):
            energy, state = assemble_energy(lobe16, MATERIALS[0], hat, y, 0.05, with_state=True)
            assert energy == assemble_energy(lobe16, MATERIALS[0], hat, y, 0.05)
            assert np.array_equal(assemble_gradient(lobe16, MATERIALS[0], hat, y, 0.05, state),
                                  assemble_gradient(lobe16, MATERIALS[0], hat, y, 0.05))


def test_an_inadmissible_evaluation_keeps_no_state(disk16):
    hat = _extended(builtin_pressure("constant", {"value": 0.1}), disk16)
    y = disk16.nodes * np.array([-1.0, 1.0])  # a reflection
    energy, state = assemble_energy(disk16, MATERIALS[0], hat, y, 0.05, with_state=True)
    assert energy == np.inf and state is None
    with pytest.raises(ValueError):
        assemble_gradient(disk16, MATERIALS[0], hat, y, 0.05, state)


def test_a_solve_that_reuses_evaluation_states_matches_one_that_gathers_afresh(disk16, monkeypatch):
    # the gradient at every accepted step, derivative-tested candidates
    # included, must come from that step's own energy evaluation
    hat = _extended(builtin_pressure("constant", {"value": 0.1}), disk16)
    init = noisy_start(disk16, 0.0, 1e-3 * disk16.diameter, np.random.default_rng(6))
    y, diags = minimize_energy(disk16, MATERIALS[0], hat, 0.04, init, grad_tol=1e-13)
    assert diags.converged and diags.backtracks > 0
    reusing = nonlinear_solver.assemble_gradient
    monkeypatch.setattr(nonlinear_solver, "assemble_gradient", lambda *args: reusing(*args[:5]))
    fresh_y, fresh_diags = minimize_energy(disk16, MATERIALS[0], hat, 0.04, init, grad_tol=1e-13)
    assert np.array_equal(y, fresh_y) and diags == fresh_diags


def test_operators_are_built_once_per_mesh_and_only_by_the_solvers():
    mesh = build_domain(DomainSpec.four_lobe(resolution=8))
    pi = builtin_pressure("quadrant_bump", {}, "flat")
    rotations.find_optimal_rotations(mesh, pi, 256)
    assert "p1" not in mesh.tables  # the rotation layer gathers no P1 values
    hat = _extended(pi, mesh)
    rng = np.random.default_rng(2)
    minimize_energy(mesh, MATERIALS[0], hat, 0.05, noisy_start(mesh, 0.3, 1e-3, rng), max_iter=5)
    ops = mesh.tables["p1"]
    minimize_energy(mesh, MATERIALS[0], hat, 0.05, noisy_start(mesh, 1.3, 1e-3, rng), max_iter=5)
    assert mesh.tables["p1"] is ops


def test_the_reference_sums_are_evaluated_once_per_mesh_and_field(disk16):
    # the potential is evaluated at the reference rule points by the first
    # solve alone; every later evaluation on this mesh and field reads the table
    hat = _extended(builtin_pressure("constant", {"value": 0.1}), disk16)
    reference = edge_rule(disk16, disk16.nodes, SIMPSON)[0].reshape(-1, 2)
    at_reference = []

    def counting(pts):
        at_reference.append(np.array_equal(pts, reference))
        return hat.potential(pts)

    counted = dataclasses.replace(hat, potential=counting)
    init = noisy_start(disk16, 0.3, 1e-3 * disk16.diameter, np.random.default_rng(8))
    for _ in range(2):
        minimize_energy(disk16, MATERIALS[0], counted, 0.04, init, max_iter=5)
    assert sum(at_reference) == 1 and len(at_reference) > 2


def _taper(pi, pts, r_ref, slope, sgn):
    """Reference value of the radial taper outside (sgn = +1) or inside (-1) the
    core: the field's factors at (r_ref, theta), less the slope times the gap."""
    s = np.hypot(pts[:, 0], pts[:, 1])
    radial, rate = pi.polar[:2]
    edge = polar_factor(radial, np.full(len(s), r_ref)) * polar_factor(rate, np.arctan2(pts[:, 1], pts[:, 0]))
    return np.maximum(edge - sgn * slope * (s - r_ref), 0.0)


@pytest.mark.parametrize("r_inner", [None, 1.0])
def test_extension_direct_path(r_inner):
    rng = np.random.default_rng(5)
    r_outer, delta = 2.2, 0.5
    lo = 0.0 if r_inner is None else r_inner
    theta = rng.uniform(0.0, 2.0 * np.pi, 200)
    rho = np.sqrt(rng.uniform(lo ** 2, r_outer ** 2, 200))
    core = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
    outer = core * ((r_outer + rng.uniform(1e-6, 0.45, 200)) / rho)[:, None]
    far = core * (r_outer + 2.0 * delta) / rho[:, None]
    for name, params, variant in FIELDS:
        pi = builtin_pressure(name, params, variant)
        if pi.sign_class == "signed":
            continue  # signed fields are extended through their nonnegative shift
        hat = extend_pressure(pi, r_inner, r_outer, delta)
        slope = hat.params["extension"]["slope"]
        # all points in the core: the field itself, exactly as the masked path gives it
        direct_v, direct_g = hat.evaluate(core), hat.gradient(core)
        assert np.array_equal(direct_v, pi.evaluate(core))
        assert np.array_equal(direct_g, pi.gradient(core))
        mixed = np.concatenate([core, outer, far])
        mixed_v, mixed_g = hat.evaluate(mixed), hat.gradient(mixed)
        assert np.array_equal(mixed_v[:200], direct_v)
        assert np.array_equal(mixed_g[:200], direct_g)
        assert np.allclose(mixed_v[200:400], _taper(pi, outer, r_outer, slope, 1.0), rtol=0.0, atol=1e-14)
        assert np.all(mixed_v[400:] == 0.0) and np.all(mixed_g[400:] == 0.0)
        if r_inner is not None:
            inner = core * ((r_inner - rng.uniform(1e-6, 0.45, 200)) / np.hypot(*core.T))[:, None]
            v = hat.evaluate(np.concatenate([core[:5], inner]))
            assert np.array_equal(v[:5], direct_v[:5])
            assert np.allclose(v[5:], _taper(pi, inner, r_inner, slope, -1.0), rtol=0.0, atol=1e-14)
