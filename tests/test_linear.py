import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from pressurelab import (
    DomainSpec,
    MaterialModel,
    assemble_load,
    builtin_pressure,
    build_domain,
    divergence_form_check,
    el_residual,
    quadrant_bump_pressure,
)
from pressurelab.linear_solver import StiffnessPreconditioner, apply_gauge, skew_mean, solve_linearized
from pressurelab.material import SKEW_GENERATOR
from pressurelab.studies import Problem, minimize_limit_energy

from conftest import add_at_load


def strain_energy(mesh, material, u):
    """Element-wise 1/2 integral of the strain quadratic form: an oracle for the stiffness."""
    G = np.einsum("tia,tib->tab", np.asarray(u, float)[mesh.triangles], mesh.basis_gradients)
    sym = 0.5 * (G + np.swapaxes(G, 1, 2))
    tr = G[:, 0, 0] + G[:, 1, 1]
    q = material.c1 * np.einsum("tij,tij->t", sym, sym) + material.c2 * tr * tr
    return float(0.5 * mesh.areas @ q)


def rotation_field(mesh):
    """J x, flattened like the load."""
    return (mesh.nodes @ SKEW_GENERATOR.T).ravel()


def limit_energy(factor, load, u):
    """E0 = 1/2 u.K u + load.u."""
    flat = np.asarray(u, dtype=float).ravel()
    return float(0.5 * flat @ (factor.stiffness @ flat) + load @ flat)


P0 = 0.1


@pytest.fixture(scope="module")
def bench_system(disk32, default_material):
    """The factor of disk 32 and the constant-pressure load at angle 0."""
    const = builtin_pressure("constant", {"value": P0})
    return StiffnessPreconditioner(disk32, default_material), assemble_load(disk32, const, 0.0)


def test_zero_load_zero_minimizer(disk16, default_material):
    factor = StiffnessPreconditioner(disk16, default_material)
    disp, e0 = solve_linearized(factor, assemble_load(disk16, builtin_pressure("zero"), 0.0))
    assert np.allclose(disp.values, 0.0, atol=1e-13)
    assert abs(e0) < 1e-14


def test_skew_fields_have_zero_strain_energy(disk16, default_material):
    u = disk16.nodes @ SKEW_GENERATOR.T
    assert abs(strain_energy(disk16, default_material, u)) < 1e-13


def test_strain_energy_of_identity_field(disk32, default_material):
    # 1/2 (2 c1 + 4 c2) |domain|
    got = strain_energy(disk32, default_material, disk32.nodes.copy())
    want = 0.5 * (2.0 * default_material.c1 + 4.0 * default_material.c2) * disk32.total_area
    assert abs(got - want) <= 1e-12 * want


def test_stiffness_annihilates_rigid_modes(bench_system, disk32):
    K = bench_system[0].stiffness
    scale = abs(K).max()
    n = disk32.n_nodes
    modes = np.zeros((3, 2 * n))
    modes[0, 0::2] = 1.0
    modes[1, 1::2] = 1.0
    modes[2] = rotation_field(disk32)
    for mode in modes:
        assert np.max(np.abs(K @ mode)) <= 1e-10 * scale * (1.0 + np.max(np.abs(mode)))


def test_kernel_dimension_exactly_three(default_material):
    mesh = build_domain(DomainSpec.disk(1.0, 6))
    K = StiffnessPreconditioner(mesh, default_material).stiffness.toarray()
    assert np.max(np.abs(K - K.T)) <= 1e-13 * np.abs(K).max()  # symmetry
    vals = np.linalg.eigvalsh(K)
    assert vals.min() >= -1e-12 * vals.max()  # positive semidefinite
    near_zero = np.sum(vals < 1e-10 * vals.max())
    assert near_zero == 3


def test_rotation_load_component_equals_el_residual(lobe16, default_material):
    bump = quadrant_bump_pressure("strict")
    alpha0 = 0.6  # deliberately non-optimal
    rotation_load = float(assemble_load(lobe16, bump, alpha0) @ rotation_field(lobe16))
    res = el_residual(lobe16, bump, alpha0)
    assert abs(rotation_load - res) <= 1e-13 * (1.0 + abs(res))
    assert abs(res) > 1e-4  # the check is non-trivial at this angle


def test_assembled_quadratic_form_matches_elementwise(disk16, weak_material):
    K = StiffnessPreconditioner(disk16, weak_material).stiffness
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = rng.normal(size=(disk16.n_nodes, 2))
        quad = 0.5 * float(u.ravel() @ (K @ u.ravel()))
        elem = strain_energy(disk16, weak_material, u)
        assert abs(quad - elem) <= 1e-12 * (1.0 + abs(elem))


def test_benchmark_solution_is_radial(bench_system, disk32, default_material):
    disp, e0 = solve_linearized(*bench_system)
    beta = -P0 / (default_material.c1 + 2.0 * default_material.c2)
    exact = beta * disk32.nodes
    rel = np.linalg.norm(disp.values - exact) / np.linalg.norm(exact)
    assert rel < 0.02
    want = -np.pi * P0 ** 2 / (default_material.c1 + 2.0 * default_material.c2)
    assert abs(e0 - want) <= 0.02 * abs(want)


@pytest.mark.parametrize("alpha0", [np.pi / 4, 0.6])
def test_solve_matches_bordered_constrained_solve(lobe16, default_material, alpha0):
    # the hydrostatic load has a nonzero resultant, so the zero-average
    # constraint must be the lumped-mass one the gauge uses; at the
    # non-optimal angle 0.6 it also has a rotation component, which the
    # skew-mean constraint absorbs
    hyd = builtin_pressure("hydrostatic", {"coefficient": 0.1})
    factor = StiffnessPreconditioner(lobe16, default_material)
    load = assemble_load(lobe16, hyd, alpha0)
    n = lobe16.n_nodes
    assert np.linalg.norm(load.reshape(n, 2).sum(axis=0)) > 0.1
    # constraint rows: the lumped means of both components and the skew mean,
    # 1/2 sum over T of |T| (u_i2 d1 phi_i - u_i1 d2 phi_i)
    C = np.zeros((3, 2 * n))
    C[0, 0::2] = lobe16.node_masses
    C[1, 1::2] = lobe16.node_masses
    grad_integral = np.zeros((n, 2))
    np.add.at(grad_integral, lobe16.triangles, lobe16.areas[:, None, None] * lobe16.basis_gradients)
    C[2, 0::2] = -0.5 * grad_integral[:, 1]
    C[2, 1::2] = 0.5 * grad_integral[:, 0]
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.normal(size=(n, 2))
        assert abs(C[2] @ u.ravel() - skew_mean(lobe16, u)) <= 1e-12 * np.abs(u).sum()
    bordered = sp.bmat([[factor.stiffness, sp.csr_matrix(C.T)], [sp.csr_matrix(C), None]])
    rhs = np.concatenate([-load, np.zeros(3)])
    u_kkt = splu(bordered.tocsc()).solve(rhs)[:2 * n]
    e_kkt = limit_energy(factor, load, u_kkt)

    disp, e0 = solve_linearized(factor, load)
    assert abs(e0 - e_kkt) <= 1e-12 * abs(e_kkt)
    assert np.max(np.abs(disp.values.ravel() - u_kkt)) <= 1e-8 * np.max(np.abs(u_kkt))


def test_gauge_sets_mean_skew_to_zero(bench_system, disk32):
    disp, _ = solve_linearized(*bench_system)
    assert abs(skew_mean(disk32, disp.values)) < 1e-10
    mean = disk32.node_masses @ disp.values / disk32.total_mass
    assert np.max(np.abs(mean)) < 1e-12


def test_energy_invariant_under_infinitesimal_rotations(bench_system, disk32):
    factor, load = bench_system
    disp, e0 = solve_linearized(factor, load)
    amp = 0.45
    shifted = disp.values + amp * (disk32.nodes @ SKEW_GENERATOR.T)
    e_shift = limit_energy(factor, load, shifted)
    bound = 1e-8 * abs(e0) + abs(load @ rotation_field(disk32)) * amp * disk32.diameter
    assert abs(e_shift - e0) <= bound


def test_apply_gauge_removes_given_rotation(disk16):
    rng = np.random.default_rng(33)
    u = rng.normal(size=(disk16.n_nodes, 2))
    u = apply_gauge(disk16, u)
    assert abs(skew_mean(disk16, u)) < 1e-10
    u2 = apply_gauge(disk16, u + 2.2 * (disk16.nodes @ SKEW_GENERATOR.T))
    assert np.max(np.abs(u2 - u)) < 1e-10


def test_divergence_check_constant_displacement(disk16):
    const = builtin_pressure("constant", {"value": 1.0})
    u = np.tile([0.3, -0.4], (disk16.n_nodes, 1))
    b, v = divergence_form_check(disk16, const, 0.0, u)
    assert abs(b) < 1e-12 and abs(v) < 1e-12
    b, v = divergence_form_check(disk16, const, 0.0, np.zeros_like(disk16.nodes))
    assert b == 0.0 and v == 0.0  # the zero field, exactly


def test_divergence_check_identity_field(disk32):
    const = builtin_pressure("constant", {"value": 1.0})
    b, v = divergence_form_check(disk32, const, 0.0, disk32.nodes.copy())
    assert abs(b - 2.0 * disk32.total_area) < 1e-12
    assert abs(v - 2.0 * disk32.total_area) < 1e-12


def test_divergence_check_gap_shrinks_under_refinement(default_material):
    bump = quadrant_bump_pressure("strict")

    def gap(res):
        mesh = build_domain(DomainSpec.four_lobe(resolution=res))
        u = np.stack([np.sin(mesh.nodes[:, 0]), mesh.nodes[:, 1] ** 2], axis=1)
        b, v = divergence_form_check(mesh, bump, 0.0, u)
        return abs(b - v)

    g16, g32 = gap(16), gap(32)
    assert g32 < 0.8 * g16


def test_divergence_check_relative_agreement(lobe32):
    bump = quadrant_bump_pressure("strict")
    rng = np.random.default_rng(41)
    u = rng.normal(scale=0.3, size=(lobe32.n_nodes, 2))
    b, v = divergence_form_check(lobe32, bump, 0.0, u)
    scale = max(abs(b), abs(v), 1e-3)
    assert abs(b - v) <= 2e-2 * scale  # random rough fields carry larger quadrature error


_HYDROSTATIC = builtin_pressure("hydrostatic", {"coefficient": 0.1})
_STRICT_BUMP = quadrant_bump_pressure("strict")  # supported on 1 <= |x| <= 3: no load on the unit disk


@pytest.mark.parametrize("spec,field", [
    pytest.param(DomainSpec.disk(1.0, 16), _HYDROSTATIC, id="disk16-hydrostatic"),
    pytest.param(DomainSpec.annulus(1.0, 2.0, 8), _HYDROSTATIC, id="annulus8-hydrostatic"),
    pytest.param(DomainSpec.four_lobe(resolution=16), _HYDROSTATIC, id="lobe16-hydrostatic"),
    pytest.param(DomainSpec.annulus(1.0, 2.0, 8), _STRICT_BUMP, id="annulus8-strict_bump"),
    pytest.param(DomainSpec.four_lobe(resolution=16), _STRICT_BUMP, id="lobe16-strict_bump"),
])
def test_load_scatter_matches_add_at_oracle(spec, field):
    # each boundary node closes exactly two edges, so the bincount sums equal
    # the edge-by-edge np.add.at sums to the bit
    mesh = build_domain(spec)
    load = assemble_load(mesh, field, 0.6)
    assert np.any(load != 0.0)
    assert np.array_equal(load, add_at_load(mesh, field, 0.6))


@pytest.mark.parametrize("p0", [0.1, -0.3])
@pytest.mark.parametrize("spec", [
    DomainSpec.disk(1.0, 12), DomainSpec.annulus(1.0, 2.0, 8), DomainSpec.four_lobe(resolution=8),
], ids=["disk12", "annulus8", "lobe8"])
def test_constant_pressure_limit_is_p1_exact(spec, p0):
    # under constant pressure the limit minimizer is beta x with beta =
    # -p0/(c1 + 2 c2) on any domain; it is P1, and the boundary load of a P1
    # field is exactly the integral of its divergence over the polygon, so the
    # discrete minimum is -|Omega_h| p0^2/(c1 + 2 c2) up to rounding
    mesh = build_domain(spec)
    material = MaterialModel(c1=1.3, c2=0.7)
    const = builtin_pressure("constant", {"value": p0})
    e0, _, disp, table, _ = minimize_limit_energy(Problem(mesh, material, const, const), [0.0, 2.0])
    stiff = material.c1 + 2.0 * material.c2
    want = -mesh.total_area * p0 ** 2 / stiff
    beta = -p0 / stiff
    assert abs(e0 - want) <= 1e-12 * abs(want)
    assert np.max(np.abs(disp.values - beta * mesh.nodes)) <= 1e-9 * abs(beta)
    assert table[0]["E0"] == table[1]["E0"]
