"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy fixtures (the
constant-pressure sweep and the slow-rotation study) are shared across
criteria, so the whole module stays well inside the per-criterion budgets.
"""

import time

import numpy as np
import pytest

from pressurelab import (
    DomainSpec,
    MaterialModel,
    build_domain,
    builtin_pressure,
    el_residual,
    extend_pressure,
    find_optimal_rotations,
    quadrant_bump_pressure,
    second_variation,
)
from pressurelab.material import angular_distance, dist_so2, energy_density, g_mixed, rotation, stress, quadratic_form
from pressurelab.nonlinear_solver import rigid_map, zero_average
from pressurelab.rotations import rotation_functional_profile
from pressurelab.studies import (
    Plan,
    Problem,
    almost_minimizer_scaling,
    extract_rotation,
    gamma_study,
    rebuild_deformation,
    rescaled_displacement,
)

from conftest import angular_total, divergence_pair, rotation_sweep_value, work_slope

P0 = 0.1
EPS_LIST = [0.08, 0.04, 0.02, 0.01]


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} - {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {label} {detail}"


@pytest.fixture(scope="module")
def lobe64():
    return build_domain(DomainSpec.four_lobe(resolution=64))


@pytest.fixture(scope="module")
def strict_bump():
    return quadrant_bump_pressure("strict")


@pytest.fixture(scope="module")
def flat_bump():
    return quadrant_bump_pressure("flat")


@pytest.fixture(scope="module")
def material():
    return MaterialModel(c1=1.0, c2=1.0, p=2.0, q=2.0)


@pytest.fixture(scope="module")
def strict_optimal(lobe64, strict_bump):
    return find_optimal_rotations(lobe64, strict_bump, grid_n=1024)


@pytest.fixture(scope="module")
def bench_reports(material):
    """Constant-pressure sweep at two resolutions (criteria 5 through 8)."""
    const = builtin_pressure("constant", {"value": P0})
    hat = extend_pressure(const, None, 1.1, 0.5)
    plan = Plan(grad_tol=1e-13, max_iter=20000, multistart_angles=(0.0,), eps_list=tuple(EPS_LIST),
                seed=2024, rotation_grid=256)
    t0 = time.time()
    reports = {}
    for res in (32, 64):
        mesh = build_domain(DomainSpec.disk(1.0, res))
        reports[res] = gamma_study(Problem(mesh, material, const, hat, resolution=res), plan)
    reports["elapsed"] = time.time() - t0
    return reports


@pytest.fixture(scope="module")
def lambda_report(lobe64, material, strict_bump):
    hat = extend_pressure(strict_bump, None, 2.2, 1.0)
    plan = Plan(grad_tol=1e-11, max_iter=2000, multistart_angles=(0.0, np.pi), eps_list=tuple(EPS_LIST),
                lambda_exponent=0.4, seed=2024, rotation_grid=1024)
    t0 = time.time()
    rep = almost_minimizer_scaling(Problem(lobe64, material, strict_bump, hat, resolution=64), plan)
    rep.meta["elapsed"] = time.time() - t0
    return rep


def test_criterion_01_rotation_functional_profile(lobe64, strict_bump):
    t0 = time.time()
    alphas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    got = rotation_functional_profile(lobe64, strict_bump, alphas)
    want = rotation_sweep_value(strict_bump, alphas)
    err = float(np.max(np.abs(got - want)))
    elapsed = time.time() - t0
    _report(1, "rotation functional matches the angular sweep profile",
            err <= 1e-3 and elapsed <= 30.0, f"max err {err:.2e}, {elapsed:.1f}s")


def test_criterion_02_optimal_rotation_recovery(lobe64, strict_bump, flat_bump, strict_optimal):
    t0 = time.time()
    angles = sorted(strict_optimal.angles)
    ok_strict = (
        len(strict_optimal.arcs) == 0
        and len(angles) == 2
        and strict_optimal.distance(0.0) <= 1e-3
        and strict_optimal.distance(np.pi) <= 1e-3
        and angular_distance(angles[0], 0.0) <= 1e-3
        and angular_distance(angles[1], np.pi) <= 1e-3
    )
    flat_opt = find_optimal_rotations(lobe64, flat_bump, grid_n=1024)
    ok_flat = len(flat_opt.arcs) >= 1 and all(
        flat_opt.distance(a) <= 2.0 * flat_opt.grid_step
        for a in np.linspace(0.0, np.pi / 4, 17)
    )
    elapsed = time.time() - t0
    _report(2, "optimal rotations: isolated pair and flat arc recovered",
            ok_strict and ok_flat and elapsed <= 60.0,
            f"angles {angles}, arcs {len(flat_opt.arcs)}, {elapsed:.1f}s")


def test_criterion_03_stationarity_and_second_variation(lobe64, strict_bump, flat_bump, strict_optimal):
    t0 = time.time()
    scale = angular_total(strict_bump)
    checks = []
    for a0 in strict_optimal.angles:
        checks.append(abs(el_residual(lobe64, strict_bump, a0)) <= 1e-3 * scale)
        checks.append(second_variation(lobe64, strict_bump, a0, 1.0) >= -1e-6 * scale)
    flat_opt = find_optimal_rotations(lobe64, flat_bump, grid_n=512)
    for a0 in flat_opt.sample_angles(per_arc=3):
        checks.append(abs(el_residual(lobe64, flat_bump, a0)) <= 1e-3 * scale)
        checks.append(second_variation(lobe64, flat_bump, a0, 1.0) >= -1e-6 * scale)
    rel = []
    for a in (0.4, 0.8, 2.2, 4.0):
        b = el_residual(lobe64, strict_bump, a)
        v = work_slope(lobe64, strict_bump, a)
        rel.append(abs(b - v) / abs(v))
    checks.append(max(rel) <= 1e-3)
    elapsed = time.time() - t0
    _report(3, "stationarity residuals and second variation at recovered optima",
            all(checks) and elapsed <= 60.0,
            f"max EL-form mismatch {max(rel):.2e}, {elapsed:.1f}s")


def test_criterion_04_linear_benchmark(material):
    from pressurelab.linear_solver import StiffnessPreconditioner, assemble_load, solve_linearized

    t0 = time.time()
    mesh = build_domain(DomainSpec.disk(1.0, 64))
    const = builtin_pressure("constant", {"value": P0})
    disp, e0 = solve_linearized(StiffnessPreconditioner(mesh, material), assemble_load(mesh, const, 0.0))
    beta = -P0 / (material.c1 + 2.0 * material.c2)
    exact = beta * mesh.nodes
    u_err = float(np.linalg.norm(disp - exact) / np.linalg.norm(exact))
    e_want = -np.pi * P0 ** 2 / (material.c1 + 2.0 * material.c2)
    e_err = abs(e0 - e_want) / abs(e_want)
    elapsed = time.time() - t0
    _report(4, "closed-form linear benchmark",
            u_err <= 0.02 and e_err <= 0.02 and elapsed <= 120.0,
            f"u err {u_err:.2e}, E0 err {e_err:.2e}, {elapsed:.1f}s")


def test_criterion_05_order_eps_squared(bench_reports):
    ok = True
    detail = []
    for res in (32, 64):
        rows = bench_reports[res].rows
        cs = [-row["energy"] / row["eps"] ** 2 for row in rows]
        ok &= all(row["energy"] < 0.0 for row in rows)
        ok &= max(cs) / min(cs) <= 2.0
        detail.append(f"res {res}: C in [{min(cs):.5f}, {max(cs):.5f}]")
    ok &= bench_reports["elapsed"] <= 1200.0
    _report(5, "rescaled minima form a two-sided order-eps^2 band",
            ok, "; ".join(detail) + f", {bench_reports['elapsed']:.0f}s total")


def test_criterion_06_limit_of_rescaled_minima(bench_reports):
    ok = True
    detail = []
    for res in (32, 64):
        rep = bench_reports[res]
        gaps = [row["gap_to_min_E0"] for row in rep.rows]
        ok &= all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        detail.append(f"res {res} gaps {['%.2e' % g for g in gaps]}")
    rep64 = bench_reports[64]
    final_gap = rep64.rows[-1]["gap_to_min_E0"]
    ok &= final_gap <= 0.1 * abs(rep64.limits["min_E0"])
    _report(6, "rescaled minima approach the limit value monotonically",
            ok, f"final rel gap {final_gap / abs(rep64.limits['min_E0']):.2e}; " + "; ".join(detail))


def test_criterion_07_compactness_diagnostics(bench_reports):
    ok = True
    detail = []
    for res in (32, 64):
        rows = bench_reports[res].rows
        det = [row["det_dev_sq_over_eps2"] for row in rows]
        gp = [row["gp_over_eps2"] for row in rows]
        r1 = max(det) / min(det)
        r2 = max(gp) / min(gp)
        ok &= r1 <= 4.0 and r2 <= 4.0
        detail.append(f"res {res}: det ratio {r1:.3f}, gp ratio {r2:.3f}")
    _report(7, "determinant and gradient compactness diagnostics stay bounded",
            ok, "; ".join(detail))


def test_criterion_08_strong_convergence_proxy(bench_reports):
    ok = True
    detail = []
    for res in (32, 64):
        rep = bench_reports[res]
        dists = [row["u_dist_w1p"] for row in rep.rows]
        ok &= all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        ok &= dists[-1] <= 0.05 * rep.limits["u0_norm_w1p"]
        detail.append(f"res {res}: final {dists[-1]:.2e} vs norm {rep.limits['u0_norm_w1p']:.3f}")
    _report(8, "displacements converge to the limit minimizer", ok, "; ".join(detail))


def test_criterion_09_slow_rotation_almost_minimizers(lambda_report):
    rows = lambda_report.rows
    ratios = [row["remainder_over_target"] for row in rows]
    gaps = [row["gap_over_eps2"] for row in rows]
    ok = max(ratios) / min(ratios) <= 4.0
    ok &= all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    ok &= gaps[-1] <= 0.5 * gaps[0]
    ok &= all(0.5 <= row["dist_over_lambda"] <= 2.0 for row in rows)
    ok &= lambda_report.meta["elapsed"] <= 1200.0
    _report(9, "slow-rotation states are almost minimizers at the cubic rate",
            ok,
            f"ratio window {min(ratios):.3f}..{max(ratios):.3f}, gaps {gaps[0]:.3f}->{gaps[-1]:.3f}, "
            f"{lambda_report.meta['elapsed']:.0f}s")


def test_criterion_10_property_suites(material):
    t0 = time.time()
    rng = np.random.default_rng(77)
    weak = MaterialModel(c1=1.3, c2=0.7, p=1.5, q=1.5)
    ok = True

    # frame indifference and coercivity
    for _ in range(100):
        F = np.eye(2) + rng.normal(scale=0.7, size=(2, 2))
        if np.linalg.det(F) <= 0.0:
            continue
        R = rotation(rng.uniform(0.0, 2.0 * np.pi))
        w = energy_density(weak, F)
        ok &= abs(energy_density(weak, R @ F) - w) <= 1e-12 * (1.0 + w)
        ok &= w >= weak.c1 * g_mixed(dist_so2(F), weak.p) - 1e-14
        ok &= w >= weak.c2 * g_mixed(abs(np.linalg.det(F) - 1.0), weak.q) - 1e-14
        if abs(np.linalg.det(F) - 1.0) <= 1.0:
            ok &= w >= 0.5 * weak.c2 * (np.linalg.det(F) - 1.0) ** 2 - 1e-14

    # stress and quadratic-form consistency
    h = 1e-6
    for _ in range(100):
        F = np.eye(2) + rng.normal(scale=0.5, size=(2, 2))
        if not (0.2 <= np.linalg.det(F) <= 5.0):
            continue
        S = stress(weak, F)
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2))
                E[i, j] = h
                fd = (energy_density(weak, F + E) - energy_density(weak, F - E)) / (2.0 * h)
                ok &= abs(S[i, j] - fd) <= 1e-5 * (1.0 + abs(fd))
    for _ in range(20):
        E = rng.normal(size=(2, 2))
        t = 1e-4
        fd = (energy_density(weak, np.eye(2) + t * E) + energy_density(weak, np.eye(2) - t * E)) / t ** 2
        ok &= abs(fd - quadratic_form(weak, E)) <= 1e-3 * (1.0 + abs(fd))

    # divergence-theorem closure on a generated mesh
    from pressurelab import boundary_integral
    mesh = build_domain(DomainSpec.four_lobe(resolution=16))
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        lhs = boundary_integral(mesh, lambda p, n: np.einsum("ij,ij->i", p @ A.T + b, n))
        ok &= abs(lhs - np.trace(A) * mesh.total_area) <= 1e-10 * (1.0 + np.abs(A).sum() + np.abs(b).sum())

    # tapered-extension properties
    bump = quadrant_bump_pressure("strict")
    hat = extend_pressure(bump, None, 2.2, 1.0)
    pts = rng.uniform(-6.0, 6.0, size=(1000, 2))
    ok &= bool(np.all(hat.evaluate(pts) <= bump.evaluate(pts) + 1e-12))
    ok &= bool(np.all(hat.evaluate(pts) >= 0.0))
    r = rng.uniform(0.0, 2.2, 300)
    th = rng.uniform(0.0, 2 * np.pi, 300)
    trusted = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    ok &= bool(np.max(np.abs(hat.evaluate(trusted) - bump.evaluate(trusted))) == 0.0)

    # rotation-extraction round trip
    disk = build_domain(DomainSpec.disk(1.0, 16))
    v = zero_average(disk, 0.05 * rng.normal(size=(disk.n_nodes, 2)))
    y = rebuild_deformation(disk, v, 1.3, 0.01)
    alpha = extract_rotation(disk, material, y)
    u = rescaled_displacement(disk, y, alpha, 0.01)
    y2 = rebuild_deformation(disk, u, alpha, 0.01)
    ok &= bool(np.max(np.abs(rescaled_displacement(disk, y2, alpha, 0.01) - u)) < 1e-12)
    ok &= angular_distance(extract_rotation(disk, material, rigid_map(disk, 2.7)), 2.7) < 1e-6

    # divergence-form agreement for the limit load (smooth displacement field)
    lobe = build_domain(DomainSpec.four_lobe(resolution=32))
    u_smooth = np.stack([np.sin(lobe.nodes[:, 0]), lobe.nodes[:, 1] ** 2], axis=1)
    bval, vval = divergence_pair(lobe, bump, 0.0, u_smooth)
    ok &= abs(bval - vval) <= 1e-3 * max(abs(vval), 1e-6)

    elapsed = time.time() - t0
    _report(10, "module property suites", ok and elapsed <= 300.0, f"{elapsed:.1f}s")
