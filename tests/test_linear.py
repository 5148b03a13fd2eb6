import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from pressurelab import (
    DomainSpec,
    MaterialModel,
    Polar,
    assemble_load,
    builtin_pressure,
    build_domain,
    extend_pressure,
    polar_field,
    quadrant_bump_pressure,
)
from pressurelab import linear_solver
from pressurelab.linear_solver import (SolverError, StiffnessPreconditioner, apply_gauge, assemble_stiffness,
                                      skew_mean, solve_linearized)
from pressurelab.material import SKEW_GENERATOR, rotation
from pressurelab.nonlinear_solver import assemble_energy
from pressurelab.studies import Problem, minimize_limit_energy

from conftest import add_at_load, divergence_pair, kron_stiffness, quadratic_field, work_slope


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
    assert np.allclose(disp, 0.0, atol=1e-13)
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
    # the load is the first variation of the boundary pressure work, so its
    # rotation component is the slope of the rotation functional, the same
    # work at R(alpha) x, that the optimal set minimizes
    bump = quadrant_bump_pressure("strict")
    alpha0 = 0.6  # deliberately non-optimal
    rotation_load = float(assemble_load(lobe16, bump, alpha0) @ rotation_field(lobe16))
    res = work_slope(lobe16, bump, alpha0)
    assert abs(rotation_load - res) <= 1e-12 * abs(res)
    assert abs(res) > 1e-4  # the check is non-trivial at this angle


def _half_square(rho):
    return 0.5 * np.square(rho)


@pytest.mark.parametrize("spec,field,alpha0", [
    pytest.param(DomainSpec.four_lobe(resolution=16), quadrant_bump_pressure("strict"), 0.6, id="lobe16-strict_bump"),
    pytest.param(DomainSpec.annulus(1.0, 2.0, 16), builtin_pressure("hydrostatic", {"coefficient": 1.0}), 0.3,
                 id="annulus16-hydrostatic"),
    # a number rate on a sector is not radially symmetric: its load turns with alpha0
    pytest.param(DomainSpec.disk(1.0, 16), polar_field("sector", "lipschitz",
                                                        Polar(1.0, 0.7, 0.0, 0.0, _half_square),
                                                        support=(0.0, math.inf, 0.2, 1.4)), 0.9,
                 id="disk16-number_rate_sector"),
])
def test_load_is_first_variation_of_pressure_work(spec, field, alpha0, default_material):
    # the central difference of the nonlinear energy's pressure term along
    # y = R0 (x + h v) is the load . v up to O(h^2); a boundary quadrature of
    # the load misses it by its own discretization error at fixed h
    mesh = build_domain(spec)
    x, R, h = mesh.nodes, rotation(alpha0), 1e-5
    rng = np.random.default_rng(17)
    v = np.stack([np.sin(x[:, 0]) + x[:, 1] ** 2, x[:, 0] * np.cos(x[:, 1])], axis=1) + 0.1 * rng.normal(size=x.shape)

    def work(t):
        y = (x + t * v) @ R.T
        return (assemble_energy(mesh, default_material, field, y, 1.0)
                - assemble_energy(mesh, default_material, field, y, 0.0))

    slope = (work(h) - work(-h)) / (2.0 * h)
    want = float(assemble_load(mesh, field, alpha0) @ v.ravel())
    assert abs(slope - want) <= 1e-8 * abs(want)


def test_assembled_quadratic_form_matches_elementwise(disk16, annulus32, lobe16, weak_material):
    rng = np.random.default_rng(21)
    for mesh in (disk16, annulus32, lobe16):
        K = StiffnessPreconditioner(mesh, weak_material).stiffness
        for _ in range(10):
            u = rng.normal(size=(mesh.n_nodes, 2))
            quad = 0.5 * float(u.ravel() @ (K @ u.ravel()))
            elem = strain_energy(mesh, weak_material, u)
            assert abs(quad - elem) <= 1e-12 * (1.0 + abs(elem))


@pytest.mark.parametrize("mesh_name", ["disk16", "annulus32", "lobe16"])
def test_stiffness_matches_the_kron_oracle(mesh_name, default_material, weak_material, request):
    # one strain operator B and K = B^T W B sum in another order than the four kron forms
    mesh = request.getfixturevalue(mesh_name)
    for material in (default_material, weak_material):
        K, want = assemble_stiffness(mesh, material), kron_stiffness(mesh, material)
        assert abs(K - want).max() <= 1e-14 * abs(want).max()


def test_benchmark_solution_is_radial(bench_system, disk32, default_material):
    disp, e0 = solve_linearized(*bench_system)
    beta = -P0 / (default_material.c1 + 2.0 * default_material.c2)
    exact = beta * disk32.nodes
    rel = np.linalg.norm(disp - exact) / np.linalg.norm(exact)
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
    assert np.max(np.abs(disp.ravel() - u_kkt)) <= 1e-8 * np.max(np.abs(u_kkt))


def test_limit_solve_applies_the_factor_once_per_iteration_up_to_the_cap(lobe16, default_material, monkeypatch):
    factor = StiffnessPreconditioner(lobe16, default_material)
    load = assemble_load(lobe16, quadrant_bump_pressure("strict"), 0.3)
    calls = []
    solve = factor.solve
    monkeypatch.setattr(factor, "solve", lambda v: calls.append(1) or solve(v))
    solve_linearized(factor, load)
    assert len(calls) == 7  # seven CG iterations, and no application to probe the operator
    calls.clear()
    monkeypatch.setattr(linear_solver, "_CG_MAX_ITER", 1)
    with pytest.raises(SolverError, match="did not converge in 1 iterations"):
        solve_linearized(factor, load)
    assert len(calls) == 1


def test_gauge_sets_mean_skew_to_zero(bench_system, disk32):
    disp, _ = solve_linearized(*bench_system)
    assert abs(skew_mean(disk32, disp)) < 1e-10
    mean = disk32.node_masses @ disp / disk32.total_mass
    assert np.max(np.abs(mean)) < 1e-12


def test_energy_invariant_under_infinitesimal_rotations(bench_system, disk32):
    factor, load = bench_system
    disp, e0 = solve_linearized(factor, load)
    amp = 0.45
    shifted = disp + amp * (disk32.nodes @ SKEW_GENERATOR.T)
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
    b, v = divergence_pair(disk16, const, 0.0, u)
    assert abs(b) < 1e-12 and abs(v) < 1e-12
    b, v = divergence_pair(disk16, const, 0.0, np.zeros_like(disk16.nodes))
    assert b == 0.0 and v == 0.0  # the zero field, exactly


def test_divergence_check_identity_field(disk32):
    const = builtin_pressure("constant", {"value": 1.0})
    b, v = divergence_pair(disk32, const, 0.0, disk32.nodes.copy())
    assert abs(b - 2.0 * disk32.total_area) < 1e-12
    assert abs(v - 2.0 * disk32.total_area) < 1e-12


def test_divergence_check_gap_shrinks_under_refinement(default_material):
    bump = quadrant_bump_pressure("strict")

    def gap(res):
        mesh = build_domain(DomainSpec.four_lobe(resolution=res))
        u = np.stack([np.sin(mesh.nodes[:, 0]), mesh.nodes[:, 1] ** 2], axis=1)
        b, v = divergence_pair(mesh, bump, 0.0, u)
        return abs(b - v)

    g16, g32 = gap(16), gap(32)
    assert g32 < 0.8 * g16


def test_divergence_check_relative_agreement(lobe32):
    bump = quadrant_bump_pressure("strict")
    rng = np.random.default_rng(41)
    u = rng.normal(scale=0.3, size=(lobe32.n_nodes, 2))
    b, v = divergence_pair(lobe32, bump, 0.0, u)
    scale = max(abs(b), abs(v), 1e-3)
    assert abs(b - v) <= 2e-2 * scale  # random rough fields carry larger quadrature error


@pytest.mark.parametrize("spec", [
    DomainSpec.disk(1.0, 16), DomainSpec.annulus(1.0, 2.0, 8), DomainSpec.four_lobe(resolution=16),
], ids=["disk16", "annulus8", "lobe16"])
def test_constant_pressure_load_is_the_boundary_load(spec):
    # for constant pressure the work is p0 times the polygon's shoelace area,
    # whose first variation is the boundary integral of p0 n phi_i exactly;
    # each entry is a difference of potential terms p0 x / 2, so it rounds
    # relative to p0 max |x| / 2, not to the entry
    mesh = build_domain(spec)
    const = builtin_pressure("constant", {"value": 0.7})
    load = assemble_load(mesh, const, 0.6)
    scale = 0.5 * 0.7 * np.max(np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]))
    assert np.max(np.abs(load - add_at_load(mesh, const, 0.6))) <= 4.0 * np.finfo(float).eps * scale
    assert np.array_equal(load, assemble_load(mesh, const, 0.0))  # built in the reference frame


def test_the_load_of_an_extension_is_the_load_of_its_field(disk16, lobe16):
    # an extension keeps no polar factors, so its load is built in the rotated
    # frame; on a body inside its core it is its field, and so is its load: bit
    # for bit for the bump, whose load is rotated too, and to rounding for
    # constant pressure, whose load is the one of angle 0
    bump = quadrant_bump_pressure("strict")
    bump_hat = extend_pressure(bump, None, 2.2, 1.0)
    const = builtin_pressure("constant", {"value": 0.1})
    const_hat = extend_pressure(const, None, 1.1, 0.5)
    for alpha0 in (0.0, 0.3, np.pi):
        assert np.array_equal(assemble_load(lobe16, bump_hat, alpha0), assemble_load(lobe16, bump, alpha0))
        load = assemble_load(disk16, const, alpha0)
        assert np.max(np.abs(assemble_load(disk16, const_hat, alpha0) - load)) <= 1e-14 * np.max(np.abs(load))


@pytest.mark.parametrize("p0", [0.1, -0.3])
@pytest.mark.parametrize("spec", [
    DomainSpec.disk(1.0, 12), DomainSpec.annulus(1.0, 2.0, 8), DomainSpec.four_lobe(resolution=8),
], ids=["disk12", "annulus8", "lobe8"])
def test_constant_pressure_limit_is_p1_exact(spec, p0):
    # under constant pressure the limit minimizer is beta x with beta =
    # -p0/(c1 + 2 c2) on any domain; it is P1, and the load of a constant
    # pressure is p0 times the divergence integrated over the polygon, which
    # no angle changes, so the discrete minimum is -|Omega_h| p0^2/(c1 + 2 c2)
    # up to rounding
    mesh = build_domain(spec)
    material = MaterialModel(c1=1.3, c2=0.7)
    const = builtin_pressure("constant", {"value": p0})
    e0, _, disp, table, _ = minimize_limit_energy(Problem(mesh, material, const, const), [0.0, 2.0])
    stiff = material.c1 + 2.0 * material.c2
    want = -mesh.total_area * p0 ** 2 / stiff
    beta = -p0 / stiff
    assert abs(e0 - want) <= 1e-12 * abs(want)
    assert np.max(np.abs(disp - beta * mesh.nodes)) <= 1e-9 * abs(beta)
    assert table[0]["E0"] == table[1]["E0"]


def _annulus_limit(s, b, mu, lam):
    """E0 = -1/2 integral of sigma : C^-1 sigma on the annulus (1, 2) under the
    pressure s rho^2 (1 + b sin 2 theta), from the stresses alone: the traction
    -pi n on both circles gives sigma_rr = -pi and sigma_rtheta = 0 there.
    Mode 0 is Lame's, Airy A log r + B r^2; mode 2 is Michell's, Airy
    f(r) sin 2 theta with f = a r^2 + b r^4 + c r^-2 + d (Barber, Elasticity,
    ch. 8).  The 2D compliance is C^-1 sigma = (sigma - lam/(2(mu + lam)) tr
    sigma I)/(2 mu); the modes are orthogonal in theta."""
    r, w = np.polynomial.legendre.leggauss(20)
    r, w = 1.5 + 0.5 * r, 0.5 * w

    def radial_integral(srr, stt, srt):  # integral over [1, 2] of sigma : C^-1 sigma r dr
        density = srr ** 2 + stt ** 2 + 2.0 * srt ** 2 - lam / (2.0 * (mu + lam)) * (srr + stt) ** 2
        return w @ (r * density) / (2.0 * mu)

    A, B = 4.0 * s, -2.5 * s  # sigma_rr = A/r^2 + 2B = -s r^2 at r = 1 and r = 2
    mode0 = 2.0 * math.pi * radial_integral(A / r ** 2 + 2.0 * B, -A / r ** 2 + 2.0 * B, 0.0 * r)
    # per r in (1, 2): the sin 2 theta coefficient of sigma_rr = f'/r - 4 f/r^2 is
    # -s b r^2, and (f/r)' = 0, so that sigma_rtheta = -2 (f/r)' cos 2 theta vanishes
    rows, rhs = [], []
    for rr in (1.0, 2.0):
        rows += [[-2.0, 0.0, -6.0 / rr ** 4, -4.0 / rr ** 2], [1.0, 3.0 * rr ** 2, -3.0 / rr ** 4, -1.0 / rr ** 2]]
        rhs += [-s * b * rr ** 2, 0.0]
    ca, cb, cc, cd = np.linalg.solve(np.array(rows), rhs)
    f = ca * r ** 2 + cb * r ** 4 + cc / r ** 2 + cd
    df = 2.0 * ca * r + 4.0 * cb * r ** 3 - 2.0 * cc / r ** 3
    ddf = 2.0 * ca + 12.0 * cb * r ** 2 + 6.0 * cc / r ** 4
    mode2 = math.pi * radial_integral(df / r - 4.0 * f / r ** 2, ddf, -2.0 * (df / r - f / r ** 2))
    return -0.5 * (mode0 + mode2)


def test_loaded_annulus_limit_converges_to_the_closed_form(default_material):
    # the limit of a loaded body against an exact value, not only against its
    # own refinements: P1 energies converge at O(h^2), so each halving of h
    # cuts the error by about 4
    exact = _annulus_limit(0.1, 0.5, default_material.c1 / 2.0, default_material.c2)
    assert abs(exact - (-1.9412425)) <= 1e-7  # the Chebyshev-Ritz value
    pi = quadratic_field()
    errors = []
    for res in (8, 16, 32):
        mesh = build_domain(DomainSpec.annulus(1.0, 2.0, res))
        errors.append(abs(solve_linearized(StiffnessPreconditioner(mesh, default_material),
                                           assemble_load(mesh, pi, 0.0))[1] - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.4 <= coarse / fine <= 4.6, errors
