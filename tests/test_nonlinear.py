import math

import numpy as np
import pytest

from pressurelab import (TriMesh, assemble_energy, assemble_gradient, assemble_load, builtin_pressure, extend_pressure,
                         minimize_energy, nonlinear_solver, quadrant_bump_pressure, rotation_functional,
                         solve_linearized)
from pressurelab.geometry import SIMPSON, edge_rule
from pressurelab.linear_solver import pressure_work
from pressurelab.material import rotation
from pressurelab.nonlinear_solver import (
    StiffnessPreconditioner,
    _energy_rounding_floor,
    admissible_start,
    deformation_gradients,
    project_gradient,
    rigid_map,
    zero_average,
)

from conftest import identity_map, noisy_start


@pytest.fixture(scope="module")
def const_hat():
    return extend_pressure(builtin_pressure("constant", {"value": 0.1}), None, 1.1, 0.5)


@pytest.fixture(scope="module")
def bump_hat():
    return extend_pressure(quadrant_bump_pressure("strict"), None, 2.2, 1.0)


def test_identity_map_has_zero_energy(disk16, lobe16, default_material, const_hat, bump_hat):
    for mesh, pi_hat in ((disk16, const_hat), (lobe16, bump_hat)):
        y = identity_map(mesh)
        for eps in (0.0, 0.02, 0.08):
            assert abs(assemble_energy(mesh, default_material, pi_hat, y, eps)) < 1e-14


def test_energy_at_rotations_equals_functional_difference(lobe16, default_material):
    # the extension equals the bump wherever the rotated body reaches, so the
    # solver's work W(R x) - W(x) is the rotation profile's F(alpha) - F(0):
    # one discrete functional, to rounding
    eps = 0.03
    for variant in ("strict", "flat"):
        bump = quadrant_bump_pressure(variant)
        hat = extend_pressure(bump, None, 2.2, 1.0)
        ref = rotation_functional(lobe16, bump, 0.0)
        for alpha in (0.0, 0.3, np.pi / 2, 1.9, np.pi, 2.1, 4.4):
            y = rigid_map(lobe16, alpha)
            want = rotation_functional(lobe16, bump, alpha) - ref
            assert abs(pressure_work(lobe16, hat, y).change() - want) <= 1e-15
            e = assemble_energy(lobe16, default_material, hat, y, eps)
            expect = eps * (rotation_functional(lobe16, bump, alpha) - ref)
            assert abs(e - expect) <= 1e-12 * (1.0 + abs(expect))


def test_constant_pressure_work_is_the_shoelace_area_change(disk16, lobe16, annulus32):
    # W of Phi = c x / 2 is c times the area enclosed by the mapped boundary polygon
    def shoelace(mesh, y):
        a, b = y[mesh.boundary_edges[:, 0]], y[mesh.boundary_edges[:, 1]]
        return 0.5 * float(np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))

    rng = np.random.default_rng(23)
    for mesh in (disk16, lobe16, annulus32):
        for c in (0.7, -1.3):
            hat = extend_pressure(builtin_pressure("constant", {"value": c}), None, 1.1 * mesh.diameter, 1.0)
            y = 1.2 * noisy_start(mesh, 0.9, 1e-2 * mesh.diameter, rng)
            assert np.all(deformation_gradients(mesh, y)[1] > 0.0)
            want = c * (shoelace(mesh, y) - shoelace(mesh, mesh.nodes))
            assert abs(pressure_work(mesh, hat, y).change() - want) <= 1e-14 * abs(c) * mesh.total_area


def test_optimal_rotation_energy_zero(lobe16, default_material, bump_hat):
    # the bump vanishes on the body, so optimal rigid states cost nothing
    y = rigid_map(lobe16, np.pi)
    assert abs(assemble_energy(lobe16, default_material, bump_hat, y, 0.05)) < 1e-14


def test_rotated_rigid_state_costs_the_sweep_value(lobe16, default_material, bump_hat):
    eps = 0.05
    y = rigid_map(lobe16, np.pi / 2)
    e = assemble_energy(lobe16, default_material, bump_hat, y, eps)
    assert e > 0.0
    assert abs(e - eps * rotation_functional(lobe16, quadrant_bump_pressure("strict"), np.pi / 2)) < 1e-12


def test_energy_infinite_when_orientation_reverses(disk16, default_material, const_hat):
    y = identity_map(disk16).copy()
    y[:, 0] *= -1.0  # global reflection
    assert assemble_energy(disk16, default_material, const_hat, y, 0.01) == math.inf


def test_gradient_matches_finite_differences(lobe16, weak_material, bump_hat):
    # y = 1.4 R(1.2) x carries the body across the bump sectors and into the
    # taper, so that the pressure term is O(1) (on the unit disk the bump's
    # extension stays below 1e-9 and only the elastic term would be checked)
    rng = np.random.default_rng(4)
    y = 1.4 * noisy_start(lobe16, 1.2, 1e-3 * lobe16.diameter, rng)
    eps = 1.0
    pressure = (assemble_energy(lobe16, weak_material, bump_hat, y, eps)
                - assemble_energy(lobe16, weak_material, bump_hat, y, 0.0))
    assert abs(pressure) > 0.1
    g = assemble_gradient(lobe16, weak_material, bump_hat, y, eps)
    h = 1e-6
    for _ in range(20):
        d = zero_average(lobe16, rng.normal(size=y.shape))
        d /= np.linalg.norm(d)
        ep = assemble_energy(lobe16, weak_material, bump_hat, y + h * d, eps)
        em = assemble_energy(lobe16, weak_material, bump_hat, y - h * d, eps)
        fd = (ep - em) / (2.0 * h)
        assert abs(float(np.sum(g * d)) - fd) <= 1e-5 * (1.0 + abs(fd))


def test_gradient_zero_at_unloaded_reference(disk16, default_material):
    zero_hat = builtin_pressure("zero")
    g = assemble_gradient(disk16, default_material, zero_hat, identity_map(disk16), 0.05)
    assert np.max(np.abs(g)) < 1e-13


def test_projection_removes_translation_component(disk16):
    rng = np.random.default_rng(8)
    g = rng.normal(size=(disk16.n_nodes, 2))
    p = project_gradient(disk16, g)
    # no net component along either constant-shift direction
    assert np.max(np.abs(p.sum(axis=0))) <= 1e-9 * disk16.n_nodes
    const = np.tile([1.7, -0.3], (disk16.n_nodes, 1))
    assert np.max(np.abs(project_gradient(disk16, const).sum(axis=0))) <= 1e-9 * disk16.n_nodes


def test_gradient_rejects_inadmissible_state(disk16, default_material, const_hat):
    y = identity_map(disk16).copy()
    y[:, 0] *= -1.0
    with pytest.raises(ValueError):
        assemble_gradient(disk16, default_material, const_hat, y, 0.01)


def test_minimize_recovers_rigid_state(disk16, default_material):
    zero_hat = builtin_pressure("zero")
    init = noisy_start(disk16, 0.7, 1e-3 * disk16.diameter, np.random.default_rng(5))
    y, diag = minimize_energy(disk16, default_material, zero_hat, 0.05, init, grad_tol=1e-10)
    assert diag.energy <= 1e-12
    assert np.all(deformation_gradients(disk16, y)[1] > 0.0)
    assert diag.converged


def test_minimize_benchmark_energy_window(disk16, default_material, const_hat):
    eps = 0.01
    init = noisy_start(disk16, 0.0, 1e-3 * disk16.diameter, np.random.default_rng(6))
    pre = StiffnessPreconditioner(disk16, default_material)
    fld, diag = minimize_energy(disk16, default_material, const_hat, eps, init,
                                grad_tol=1e-12, max_iter=4000, precond=pre)
    assert diag.converged
    assert -0.02 * eps ** 2 <= diag.energy < 0.0  # two-sided window around -pi p0^2/3 * eps^2
    assert abs(diag.energy / eps ** 2 + np.pi * 0.01 / 3.0) < 1e-3


def test_minimize_monotone_descent_and_admissibility(disk16, default_material, const_hat, monkeypatch):
    # Accepted energies may rise only at a derivative-accepted step, and by at
    # most the rounding floor at the iterate it leaves.  A rise fails Armijo,
    # so the step's line search took the derivative test, which first computes
    # that floor: the floors a step computes are those the solve cut after it
    # computes beyond the solve cut before it.  Of the three seeds, 17 rises,
    # at a converged candidate taken at once.
    real_floor, floors = nonlinear_solver._energy_rounding_floor, []

    def recording(*args):
        floors.append(real_floor(*args))
        return floors[-1]

    monkeypatch.setattr(nonlinear_solver, "_energy_rounding_floor", recording)
    for seed in (3, 7, 17):
        init = noisy_start(disk16, 0.0, 1e-3 * disk16.diameter, np.random.default_rng(seed))
        e0 = assemble_energy(disk16, default_material, const_hat, init, 0.05)
        y, diag = minimize_energy(disk16, default_material, const_hat, 0.05, init,
                                  grad_tol=1e-10, max_iter=500)
        assert diag.energy <= e0
        assert np.all(deformation_gradients(disk16, y)[1] > 0.0)
        hist, computed = [], []
        for k in range(diag.iterations + 1):  # the accepted energies, from the same solve cut after k iterations
            floors.clear()
            hist.append(minimize_energy(disk16, default_material, const_hat, 0.05, init,
                                        grad_tol=1e-10, max_iter=k)[1].energy)
            computed.append(list(floors))
        assert hist[-1] == diag.energy
        for k in np.flatnonzero(np.diff(hist) > 0.0):
            step_floors = computed[k + 1][len(computed[k]):]
            assert len(step_floors) == 1 and hist[k + 1] - hist[k] <= step_floors[0], seed


@pytest.mark.parametrize("noise", [1e-6, 1e-3])
def test_rounding_floor_fits_the_energy_sum(disk16, default_material, noise):
    # Reversing the triangle order changes only the summation order of the
    # energy, so the spread of the two sums is rounding the floor must cover.
    # Near a rotation the floor follows dist and |det - 1|, not |F|^2 + 2.
    zero_hat = builtin_pressure("zero")
    y = noisy_start(disk16, 0.7, noise, np.random.default_rng(3))
    reversed_mesh = TriMesh.from_arrays(disk16.nodes, disk16.triangles[::-1])
    energy, state = assemble_energy(disk16, default_material, zero_hat, y, 0.05, with_state=True)
    spread = abs(energy - assemble_energy(reversed_mesh, default_material, zero_hat, y, 0.05))
    floor = _energy_rounding_floor(disk16, default_material, state, 0.05)
    assert spread <= floor
    if noise == 1e-6:
        assert floor <= 1e-17


def test_minimize_rejects_inadmissible_init(disk16, default_material, const_hat):
    y = identity_map(disk16).copy()
    y[:, 0] *= -1.0
    with pytest.raises(ValueError):
        minimize_energy(disk16, default_material, const_hat, 0.01, y)


def test_zero_average_is_projection(disk16):
    rng = np.random.default_rng(9)
    y = rng.normal(size=(disk16.n_nodes, 2))
    z = zero_average(disk16, y)
    mean = disk16.node_masses @ z / disk16.total_mass
    assert np.max(np.abs(mean)) < 1e-14
    assert np.allclose(zero_average(disk16, z), z, atol=1e-14)


def test_admissible_start_halves_an_inadmissible_offset(disk16):
    # the offset R(-3 x1, 0) flips the body (det -2) and its half still does
    # (det -0.5); the quarter is the first admissible offset (det 0.25)
    alpha = 0.3
    d = np.stack([-3.0 * disk16.nodes[:, 0], np.zeros(disk16.n_nodes)], axis=1) @ rotation(alpha).T
    y = admissible_start(disk16, alpha, d)
    assert np.array_equal(y, zero_average(disk16, rigid_map(disk16, alpha) + 0.25 * d))
    _, det = deformation_gradients(disk16, y)
    assert np.all(det > 0.0)


def test_rigid_start_is_admissible_on_thin_meshes(lobe16):
    y = noisy_start(lobe16, 1.0, 1e-3 * lobe16.diameter, np.random.default_rng(10))
    _, det = deformation_gradients(lobe16, y)
    assert np.all(det > 0.0)
    mean = lobe16.node_masses @ y / lobe16.total_mass
    assert np.max(np.abs(mean)) < 1e-12


def test_minimize_reaches_tight_tolerance_at_rigid_state(disk16, default_material):
    # without load the energy near the rigid minimizer stops resolving descent
    # long before |g| reaches 1e-12; the solve must still end on the gradient test
    zero_hat = builtin_pressure("zero")
    init = noisy_start(disk16, 0.7, 1e-3 * disk16.diameter, np.random.default_rng(5))
    y, diag = minimize_energy(disk16, default_material, zero_hat, 0.05, init, grad_tol=1e-12)
    assert diag.stop_reason == "gradient" and diag.converged
    assert diag.grad_norm <= 1e-12 * (1.0 + abs(diag.energy))
    assert np.all(deformation_gradients(disk16, y)[1] > 0.0)


def test_converged_derivative_candidate_ends_the_search(disk16, default_material, const_hat, monkeypatch):
    # From the limit prediction the last line search of a 1e-13 solve reaches
    # the derivative test, where the energy no longer resolves the step; a
    # candidate whose gradient already passes the solve's test is taken with
    # no Armijo retry, so the solve ends on it.  At eps 0.02 the search before
    # it takes an unconverged candidate whose predicted decrease lies below
    # the rounding floor, with no retry either.
    const = builtin_pressure("constant", {"value": 0.1})
    factor = StiffnessPreconditioner(disk16, default_material)
    u0 = solve_linearized(factor, assemble_load(disk16, const, 0.0))[0]
    log = []

    def logged(name, value):
        real = getattr(nonlinear_solver, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            log.append((name, value(out)))
            return out

        monkeypatch.setattr(nonlinear_solver, name, wrapper)

    logged("assemble_energy", lambda out: out[0])
    logged("assemble_gradient", lambda out: float(np.linalg.norm(out)))
    logged("_energy_rounding_floor", lambda out: out)
    for eps in (0.04, 0.02):
        log.clear()
        init = admissible_start(disk16, 0.0, eps * u0)
        _, diag = minimize_energy(disk16, default_material, const_hat, eps, init,
                                  grad_tol=1e-13, max_iter=20000, precond=factor)
        assert diag.stop_reason == "gradient" and diag.converged
        # a gradient right after the floor is the derivative test of the trial before the floor
        names = [name for name, _ in log]
        tested = [i for i in range(2, len(log))
                  if names[i] == "assemble_gradient" and names[i - 1] == "_energy_rounding_floor"]
        converged = [i for i in tested if log[i][1] <= 1e-13 * (1.0 + abs(log[i - 2][1]))]
        assert converged == [len(log) - 1], eps
        assert names.count("assemble_energy") == names.count("assemble_gradient"), eps


def test_stalled_or_capped_solve_is_not_converged(disk16, default_material, const_hat):
    init = noisy_start(disk16, 0.0, 1e-3 * disk16.diameter, np.random.default_rng(6))
    _, diag = minimize_energy(disk16, default_material, const_hat, 0.05, init,
                              grad_tol=1e-12, max_iter=2)
    assert diag.stop_reason == "maxiter" and not diag.converged


def _taylor_fields():
    const = builtin_pressure("constant", {"value": 0.1})
    hydro = builtin_pressure("hydrostatic", {"coefficient": 0.1})
    strict = quadrant_bump_pressure("strict")
    flat = quadrant_bump_pressure("flat")
    out = {}
    for name, field in (("constant", const), ("hydrostatic", hydro), ("strict", strict), ("flat", flat)):
        out[name] = field
        out[name + "_extended"] = extend_pressure(field, None, 2.2, 1.0)
    return out


TAYLOR_FIELDS = _taylor_fields()


@pytest.mark.parametrize("name", sorted(TAYLOR_FIELDS))
def test_energy_taylor_remainder_is_second_order(lobe16, default_material, name):
    # E(y + h v) - E(y) - h g.v = O(h^2) exactly when g is the derivative of E.
    # y = 1.4 R(1.0) x carries the four-lobe body (radii 1..2) to radii 1.4..2.8,
    # across the bump sectors and the taper (2.2, 3.2] of the extended fields:
    # a large lobe's radial edge, at angle 1.0, crosses the flat bump's taper.
    # The elastic part alone (eps = 0) is subtracted out too, so that the
    # pressure term is checked on its own.
    pi_hat = TAYLOR_FIELDS[name]
    rng = np.random.default_rng(12)
    y = 1.4 * noisy_start(lobe16, 1.0, 1e-3 * lobe16.diameter, rng)
    yq = edge_rule(lobe16, y, SIMPSON)[0].reshape(-1, 2)
    in_taper = np.abs(np.hypot(yq[:, 0], yq[:, 1]) - 2.7) < 0.5
    assert np.any(in_taper & (pi_hat.evaluate(yq) != 0.0))
    v = zero_average(lobe16, rng.normal(size=y.shape))
    v /= np.max(np.abs(v))
    hs = 1e-4 * 0.5 ** np.arange(5)

    def energy(z):
        return np.array([assemble_energy(lobe16, default_material, pi_hat, z, eps) for eps in (1.0, 0.0)])

    grads = [assemble_gradient(lobe16, default_material, pi_hat, y, eps) for eps in (1.0, 0.0)]
    slope = np.array([float(np.sum(g * v)) for g in grads])
    e0 = energy(y)
    for combo in (np.array([1.0, 0.0]), np.array([1.0, -1.0])):  # total, pressure term
        rem = np.array([abs(combo @ (energy(y + h * v) - e0 - h * slope)) for h in hs])
        orders = np.log2(rem[:-1] / rem[1:])
        assert np.all(orders > 1.9), (combo, orders)
