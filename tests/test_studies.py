import numpy as np
import pytest

from pressurelab import DomainSpec, build_domain, builtin_pressure, extend_pressure, quadrant_bump_pressure
from pressurelab.config import RunContext
from pressurelab.linear_solver import assemble_load, gather
from pressurelab.material import angular_distance, g_mixed
from pressurelab.nonlinear_solver import assemble_energy, assemble_gradient, rigid_map, zero_average
from pressurelab.rotations import find_optimal_rotations
from pressurelab.studies import (
    Plan,
    Problem,
    almost_minimizer_scaling,
    extract_rotation,
    gamma_study,
    minimize_energy,
    minimize_limit_energy,
    multistart_minimize,
    rebuild_deformation,
    refined_study,
    rescaled_displacement,
    w1p_norm,
)

from conftest import quadratic_field, rotation_penalty, scanned_rotation


@pytest.fixture(scope="module")
def bench_fields():
    const = builtin_pressure("constant", {"value": 0.1})
    return const, extend_pressure(const, None, 1.1, 0.5)


@pytest.fixture(scope="module")
def bump_fields():
    bump = quadrant_bump_pressure("strict")
    return bump, extend_pressure(bump, None, 2.2, 1.0)


# --- rotation extraction -----------------------------------------------------

def test_extract_rotation_recovers_rigid_maps(disk16):
    for alpha in (0.0, 1.234, np.pi, 5.9):
        got = extract_rotation(disk16, rigid_map(disk16, alpha))
        assert angular_distance(got, alpha) < 1e-6


def test_extract_rotation_linear_error_decay(disk16):
    # nodal field with unit mean rotation rate: the fitted angle shifts by ~eps
    u = np.stack([-disk16.nodes[:, 1] * (1.0 + disk16.nodes[:, 0]), disk16.nodes[:, 0]], axis=1)
    u = zero_average(disk16, u)
    errs = []
    for eps in (1e-2, 1e-3):
        y = rebuild_deformation(disk16, u, 0.9, eps)
        errs.append(angular_distance(extract_rotation(disk16, y), 0.9))
    assert errs[0] < 3e-2
    assert errs[1] <= 0.2 * errs[0]  # at least linear decay


def test_extract_rotation_matches_dense_grid(disk16, weak_material):
    # gradient equal to the average of two rotations everywhere: every triangle
    # has one distance, monotone in the angle to the fit, so the fit minimizes
    # the mixed penalty at every p, here at distance 0.38 past the certificate.
    # The penalty is therefore unimodal on the circle: the minimum of the fine
    # grid lies between the neighbours of the minimum of every 64th grid angle
    from pressurelab.material import rotation

    A = 0.5 * (rotation(0.4) + rotation(1.9))
    y = zero_average(disk16, disk16.nodes @ A.T)
    got = extract_rotation(disk16, y)

    objective, _, _ = rotation_penalty(disk16, y, weak_material.p)
    grid, stride = np.arange(0.0, 2.0 * np.pi, 1e-4), 64
    coarse = int(np.argmin(objective(grid[::stride, None])))
    bracket = np.arange(stride * (coarse - 1), stride * (coarse + 1) + 1) % len(grid)
    brute = grid[bracket[int(np.argmin(objective(grid[bracket, None])))]]
    assert angular_distance(got, brute) < 2e-4


def _smoothly_perturbed_rigid_map(mesh, alpha, amplitude, rng):
    """R(alpha) x plus a random smooth field: every triangle stays near SO(2)."""
    k = rng.normal(size=(4, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(4, 2))
    u = sum(np.sin(mesh.nodes @ k[i][:, None] + phase[i]) for i in range(4))
    return zero_average(mesh, rigid_map(mesh, alpha) + amplitude * u)


def _fit_sums(mesh, y):
    """The fit sums (A, B) = (sum |T| (F11 + F22), sum |T| (F21 - F12))."""
    f, _ = gather(mesh, y)
    return float(mesh.areas @ (f[0, 0] + f[1, 1])), float(mesh.areas @ (f[1, 0] - f[0, 1]))


def test_extract_rotation_closed_form_is_the_exact_minimizer(disk16):
    # near SO(2) the fit is stationary and no grid angle lowers the mixed
    # penalty, at p = 2 and below
    rng = np.random.default_rng(21)
    grid = 2.0 * np.pi * np.arange(720) / 720
    for alpha in (0.0, 0.3, 2.5, 5.0, 6.28):
        y = _smoothly_perturbed_rigid_map(disk16, alpha, 0.02, rng)
        got = extract_rotation(disk16, y)
        A, B = _fit_sums(disk16, y)
        assert abs(A * np.sin(got) - B * np.cos(got)) <= 1e-14 * np.hypot(A, B)  # stationary
        for p in (2.0, 1.5, 1.1):
            objective, _, delta = rotation_penalty(disk16, y, p)
            assert delta(got) < 1.0 / 3.0
            assert objective(got) <= min(objective(x) for x in grid)
    # g(d) = d^2/2 past d = 1 too at p = 2: a map at distance sqrt(2) from every rotation
    got = extract_rotation(disk16, 2.0 * rigid_map(disk16, 0.3))
    assert angular_distance(got, 0.3) <= 1e-15


def test_extract_rotation_scan_resolves_the_stationary_angle(disk16):
    # the test oracle's scan brackets the minimizer on its grid and bisects the
    # bracket on the sign of the derivative, which resolves the angle far below
    # where the objective values go flat to rounding: it lands on the fit
    rng = np.random.default_rng(21)
    for alpha in (0.0, 0.3, 2.5, 5.0, 6.28):
        y = _smoothly_perturbed_rigid_map(disk16, alpha, 0.02, rng)
        A, B = _fit_sums(disk16, y)
        scanned = scanned_rotation(disk16, y, 2.0 - 1e-12)
        assert abs(A * np.sin(scanned) - B * np.cos(scanned)) <= 1e-12 * np.hypot(A, B)
        assert angular_distance(scanned, extract_rotation(disk16, y)) <= 1e-12


def test_two_extraction_routes_agree_to_order_eps(disk16):
    # the fit against the scanned minimizer of the weakest mixed penalty: the
    # same angle below distance 1/3, and apart by O(eps) past it, where the fit
    # is the definition
    u = np.stack([np.sin(disk16.nodes[:, 0]), disk16.nodes[:, 1] ** 2], axis=1)
    u = zero_average(disk16, u)
    for eps in (1.0, 0.6, 0.3, 1e-2, 1e-3):
        y = rebuild_deformation(disk16, u, 1.1, eps)
        fit = extract_rotation(disk16, y)
        scanned = scanned_rotation(disk16, y, 1.1)
        assert angular_distance(fit, scanned) <= 3.0 * eps
        if rotation_penalty(disk16, y, 1.1)[2](fit) < 1.0 / 3.0:
            assert angular_distance(fit, scanned) <= 1e-12


# --- displacement rescaling --------------------------------------------------

def test_rescaled_displacement_trivials(disk16):
    y = rigid_map(disk16, 0.8)
    u = rescaled_displacement(disk16, y, 0.8, 0.05)
    assert np.max(np.abs(u)) < 1e-12


def test_rescaled_displacement_inverts_rebuild(disk16):
    rng = np.random.default_rng(3)
    v = zero_average(disk16, rng.normal(size=(disk16.n_nodes, 2)))
    y = rebuild_deformation(disk16, v, 2.1, 1e-3)
    got = rescaled_displacement(disk16, y, 2.1, 1e-3)
    assert np.max(np.abs(got - v)) < 1e-10


def test_round_trip_through_extraction(disk16):
    rng = np.random.default_rng(5)
    v = zero_average(disk16, 0.1 * rng.normal(size=(disk16.n_nodes, 2)))
    eps = 0.01
    y = rebuild_deformation(disk16, v, 1.7, eps)
    alpha = extract_rotation(disk16, y)
    u = rescaled_displacement(disk16, y, alpha, eps)
    y2 = rebuild_deformation(disk16, u, alpha, eps)
    u2 = rescaled_displacement(disk16, y2, alpha, eps)
    assert np.max(np.abs(u2 - u)) < 1e-12


def test_rescaled_displacement_needs_positive_eps(disk16):
    with pytest.raises(ValueError):
        rescaled_displacement(disk16, rigid_map(disk16, 0.1), 0.1, 0.0)


def test_w1p_norm_basics(disk16):
    z = np.zeros((disk16.n_nodes, 2))
    assert w1p_norm(disk16, z, 2.0) == 0.0
    u = disk16.nodes.copy()
    n2 = w1p_norm(disk16, u, 2.0)
    # |x|_L2^2 = pi/2 and |grad x|^2 = 2 |domain| on the unit disk
    want = np.sqrt(np.pi / 2.0 + 2.0 * np.pi)
    assert abs(n2 - want) < 0.01
    assert w1p_norm(disk16, u - u, 2.0) == 0.0


# --- the sweep studies -------------------------------------------------------

@pytest.fixture(scope="module")
def bench_report(disk16, default_material, bench_fields):
    const, hat = bench_fields
    plan = Plan(grad_tol=1e-12, max_iter=4000, multistart_angles=(0.0,),
                eps_list=(0.08, 0.04, 0.02, 0.01), seed=7, rotation_grid=128)
    return gamma_study(Problem(disk16, default_material, const, hat), plan)


def test_gamma_study_energy_window(bench_report):
    for row in bench_report.rows:
        assert -0.02 * 1.0 <= row["energy_over_eps2"] < 0.0
        assert row["converged"]


def test_gamma_study_limit_value(bench_report):
    assert abs(bench_report.limits["min_E0"] + np.pi * 0.01 / 3.0) < 1e-4


def _dilation_energy(area, eps, p0, material):
    """Energy of the best uniform dilation y = lam x, the discrete minimizer for constant pressure."""
    from scipy.optimize import minimize_scalar

    def density(lam):
        return (material.c1 * g_mixed(np.sqrt(2.0) * abs(lam - 1.0), material.p)
                + material.c2 * g_mixed(abs(lam * lam - 1.0), material.q)
                + eps * p0 * (lam * lam - 1.0))

    best = minimize_scalar(density, bounds=(0.5, 1.5), method="bounded", options={"xatol": 1e-14})
    return area * float(best.fun)


def test_gamma_sweep_reaches_grad_tol(disk16, default_material, bench_fields, monkeypatch):
    # At grad_tol 1e-13 the last steps change the energy by less than its rounding
    # error; every solve must still end on the gradient test, at the right energy.
    import pressurelab.studies as ST

    const, hat = bench_fields
    solves = []

    def recording(*args, **kwargs):
        fld, diag = minimize_energy(*args, **kwargs)
        solves.append(diag)
        return fld, diag

    monkeypatch.setattr(ST, "minimize_energy", recording)
    problem = Problem(disk16, default_material, const, hat)
    area = float(disk16.areas.sum())
    for seed in (601032, 602016):
        plan = Plan(grad_tol=1e-13, max_iter=20000, multistart_angles=(0.0,),
                    eps_list=(0.08, 0.04, 0.02, 0.01), seed=seed, rotation_grid=256)
        rep = ST.gamma_study(problem, plan)
        assert len(rep.rows) == 4
        for row in rep.rows:
            assert row["stop_reason"] == "gradient" and row["converged"]
            want = _dilation_energy(area, row["eps"], 0.1, default_material)
            assert abs(row["energy"] - want) <= 1e-8 * abs(want)
    assert len(solves) == 8
    for diag in solves:
        assert diag.stop_reason == "gradient" and diag.converged
        assert diag.grad_norm <= 1e-13 * (1.0 + abs(diag.energy))


def test_noisy_start_reaches_grad_tol(disk16, default_material, bench_fields, monkeypatch):
    # without a limit, as in solve-nonlinear, each start draws seeded noise: with
    # the seeds of the sweep above, every solve must still end on the gradient test
    import pressurelab.studies as ST

    const, hat = bench_fields
    solves = []

    def recording(*args, **kwargs):
        fld, diag = minimize_energy(*args, **kwargs)
        solves.append(diag)
        return fld, diag

    monkeypatch.setattr(ST, "minimize_energy", recording)
    problem = Problem(disk16, default_material, const, hat)
    area = float(disk16.areas.sum())
    for seed in (601032, 602016):
        plan = Plan(grad_tol=1e-13, max_iter=20000, multistart_angles=(0.0,), seed=seed)
        for eps in (0.08, 0.04, 0.02, 0.01):
            _, diag, _ = multistart_minimize(problem, eps, plan)
            assert diag.stop_reason == "gradient" and diag.converged
            want = _dilation_energy(area, eps, 0.1, default_material)
            assert abs(diag.energy - want) <= 1e-8 * abs(want)
    assert len(solves) == 8
    for diag in solves:
        assert diag.stop_reason == "gradient" and diag.converged
        assert diag.grad_norm <= 1e-13 * (1.0 + abs(diag.energy))


def test_noisy_annulus_solve_stalls_on_the_waterline_kink():
    # solve-nonlinear on the annulus under the hydrostatic field, whose rate
    # c max(-sin theta, 0) has a kink on the waterline theta in {0, pi}: there
    # rate_d1 jumps and the discrete energy is not differentiable, so no
    # gradient test can pass and `stalled` is the true report.  The gradient
    # left sits on the outer-boundary nodes within one angular step of the
    # waterline, and along the height of the node that carries most of it the
    # energy rises both ways at first order: one-sided slopes whose sum, 1e-4,
    # dwarfs the h E'' (about 1e-6) a smooth energy would give
    ctx = RunContext.from_config({
        "domain": {"kind": "annulus", "params": {"r_inner": 1.0, "r_outer": 2.0}, "resolution": 16},
        "material": {"c1": 1.3, "c2": 0.7, "p": 1.5, "q": 2.0},
        "pressure": {"name": "hydrostatic", "params": {"coefficient": 0.1}}, "seed": 3})
    problem, eps = ctx.problem(), 0.04
    mesh, material, hat = problem.mesh, problem.material, problem.pi_hat
    y, diag, _ = multistart_minimize(problem, eps, ctx.plan)
    assert diag.stop_reason == "stalled"
    g2 = np.sum(assemble_gradient(mesh, material, hat, y, eps) ** 2, axis=1)
    outer = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]) > 2.0 - 1e-9
    theta = np.abs(np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0]))
    waterline = outer & (np.minimum(theta, np.pi - theta) <= (1.0 + 1e-9) * 2.0 * np.pi / outer.sum())
    assert g2[waterline].sum() >= 0.99 * g2.sum()
    node, h = int(np.argmax(g2)), 1e-6
    e0 = assemble_energy(mesh, material, hat, y, eps)
    rises = []
    for sign in (1.0, -1.0):
        z = y.copy()
        z[node, 1] += sign * h
        rises.append((assemble_energy(mesh, material, hat, z, eps) - e0) / h)
    assert min(rises) > 0.0 and sum(rises) >= 1e-5


def test_gamma_sweep_starts_at_the_limit_prediction(disk16, default_material, bench_fields):
    # from R(alpha)(x + eps u0) each solve takes 3 to 5 iterations; from the
    # noisy rigid start it took 8 to 11
    const, hat = bench_fields
    plan = Plan(grad_tol=1e-13, max_iter=20000, multistart_angles=(0.0,),
                eps_list=(0.08, 0.04, 0.02, 0.01), seed=601032, rotation_grid=256)
    rep = gamma_study(Problem(disk16, default_material, const, hat), plan)
    assert len(rep.rows) == 4
    for row in rep.rows:
        assert row["stop_reason"] == "gradient" and row["iterations"] <= 6


def test_equal_limit_loads_share_one_solve(disk16, default_material, bench_fields, monkeypatch):
    # constant pressure gives one load at every angle of the full-circle optimal set
    import pressurelab.studies as ST

    const, hat = bench_fields
    problem = Problem(disk16, default_material, const, hat)
    angles = find_optimal_rotations(disk16, const, grid_n=256).sample_angles(per_arc=5)
    real = ST.solve_linearized
    calls = []

    def counting(factor, load):
        calls.append(load)
        return real(factor, load)

    monkeypatch.setattr(ST, "solve_linearized", counting)
    _, _, _, table, _ = ST.minimize_limit_energy(problem, angles)
    assert len(angles) == 4 and len(calls) == 1
    for alpha0, row in zip(angles, table):  # each sample is bit for bit its own solve's
        assert row["alpha0"] == alpha0
        assert row["E0"] == real(problem.factor, assemble_load(disk16, const, alpha0))[1]

def test_gamma_study_gap_decreases(bench_report):
    gaps = [row["gap_to_min_E0"] for row in bench_report.rows]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_gamma_study_compactness_diagnostics_bounded(bench_report):
    det = [row["det_dev_sq_over_eps2"] for row in bench_report.rows]
    gp = [row["gp_over_eps2"] for row in bench_report.rows]
    assert max(det) / min(det) <= 4.0
    assert max(gp) / min(gp) <= 4.0
    # and they sit near the scaling-solution constants 4 beta^2 |D| and beta^2 |D|
    beta_sq = (0.1 / 3.0) ** 2
    assert abs(det[-1] - 4.0 * beta_sq * np.pi) < 0.01
    assert abs(gp[-1] - beta_sq * np.pi) < 0.01


def test_gamma_study_displacement_converges(bench_report):
    dists = [row["u_dist_w1p"] for row in bench_report.rows]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] <= 0.05 * bench_report.limits["u0_norm_w1p"]


def test_gamma_study_row_order(bench_report):
    eps = [row["eps"] for row in bench_report.rows]
    assert eps == sorted(eps, reverse=True)


def test_strict_multistart_finds_optimal_rotations(lobe16, default_material, bump_fields):
    bump, hat = bump_fields
    plan = Plan(grad_tol=1e-10, max_iter=900, multistart_angles=(0.0, np.pi / 2, np.pi, 3 * np.pi / 2),
                eps_list=(0.02, 0.01), seed=11, rotation_grid=512)
    rep = gamma_study(Problem(lobe16, default_material, bump, hat), plan)
    for row in rep.rows:
        assert row["dist_to_optimal"] <= 2.0 * np.pi / 512
        assert row["energy"] <= 1e-10  # the infimum is zero for this load
    assert abs(rep.limits["min_E0"]) < 1e-12


def test_refined_study_tracks_fluctuations(lobe16, default_material, bump_fields):
    bump, hat = bump_fields
    plan = Plan(grad_tol=1e-10, max_iter=600, multistart_angles=(0.0,), eps_list=(0.04, 0.01),
                seed=13, rotation_grid=512)
    rep = refined_study(Problem(lobe16, default_material, bump, hat), plan)
    assert -1.0 <= rep.limits["A0_scalar"] <= 1.0
    for row in rep.rows:
        assert -1.0 <= row["offset_scaled"] <= 1.0
    assert abs(rep.limits["second_variation_at_limit"]) < 1e-9


def test_refined_study_needs_smooth_pressure(disk16, default_material):
    hyd = builtin_pressure("hydrostatic", {"coefficient": 1.0})
    with pytest.raises(ValueError):
        refined_study(Problem(disk16, default_material, hyd, hyd), Plan(eps_list=(0.04,), seed=1))


@pytest.fixture(scope="module")
def lambda_report(lobe16, default_material, bump_fields):
    bump, hat = bump_fields
    plan = Plan(grad_tol=1e-10, max_iter=900, multistart_angles=(0.0, np.pi),
                eps_list=(0.08, 0.04, 0.02, 0.01), lambda_exponent=0.4, seed=17, rotation_grid=512)
    return almost_minimizer_scaling(Problem(lobe16, default_material, bump, hat), plan)


def test_lambda_study_remainder_ratio_window(lambda_report):
    ratios = [row["remainder_over_target"] for row in lambda_report.rows]
    assert max(ratios) / min(ratios) <= 4.0
    assert all(r > 0.0 for r in ratios)


def test_lambda_study_gap_vanishes(lambda_report):
    gaps = [row["gap_over_eps2"] for row in lambda_report.rows]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.5 * gaps[0]


def test_lambda_study_distance_tracks_lambda(lambda_report):
    for row in lambda_report.rows:
        assert 0.5 <= row["dist_over_lambda"] <= 2.0


def test_lambda_study_requires_strict_variant(lobe16, default_material):
    flat = quadrant_bump_pressure("flat")
    hat = extend_pressure(flat, None, 2.2, 1.0)
    with pytest.raises(ValueError):
        almost_minimizer_scaling(Problem(lobe16, default_material, flat, hat),
                                 Plan(eps_list=(0.04,), lambda_exponent=0.4))


def test_lambda_study_exponent_window(lobe16, default_material, bump_fields):
    bump, hat = bump_fields
    with pytest.raises(ValueError):
        almost_minimizer_scaling(Problem(lobe16, default_material, bump, hat),
                                 Plan(eps_list=(0.04,), lambda_exponent=0.6))


def test_multistart_reports_all_starts(disk16, default_material, bench_fields):
    const, hat = bench_fields
    plan = Plan(grad_tol=1e-8, max_iter=300, multistart_angles=(0.0, np.pi), seed=3)
    fld, diag, table = multistart_minimize(Problem(disk16, default_material, const, hat), 0.02, plan)
    assert len(table) == 2
    assert diag.energy <= min(row["energy"] for row in table) + 1e-15


def test_gamma_study_requires_optimal_identity(default_material, monkeypatch):
    # hydrostatic load on the four-lobe body prefers the rotations pi/4 and 5pi/4
    import pressurelab.studies as ST
    from pressurelab import DomainSpec, build_domain

    mesh = build_domain(DomainSpec.four_lobe(resolution=8))
    hyd = builtin_pressure("hydrostatic", {"coefficient": 0.1})

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the optimal set was checked")

    monkeypatch.setattr(ST, "minimize_limit_energy", no_solve)
    monkeypatch.setattr(ST, "multistart_minimize", no_solve)
    with pytest.raises(ValueError, match="identity rotation is not optimal"):
        ST.gamma_study(Problem(mesh, default_material, hyd, hyd),
                       Plan(eps_list=(0.04,), seed=1, rotation_grid=128))


def test_annulus_pipeline_with_lipschitz_pressure(default_material):
    # annulus domain, hydrostatic load, inner-tapered extension, one minimization
    from pressurelab import DomainSpec, build_domain, builtin_pressure, extend_pressure

    mesh = build_domain(DomainSpec.annulus(1.0, 2.0, 8))
    hyd = builtin_pressure("hydrostatic", {"coefficient": 1.0})
    hat = extend_pressure(hyd, 0.9, 2.2, 0.4)
    # the taper coincides with the field on the reachable annulus
    pts = np.stack([np.linspace(0.95, 2.1, 40), np.linspace(-1.0, 1.0, 40)], axis=1)
    assert np.max(np.abs(hat.evaluate(pts) - hyd.evaluate(pts))) == 0.0
    # a merely Lipschitz load caps the reachable gradient tolerance; the energy
    # still lands in the two-sided window around the linearized limit
    from pressurelab.linear_solver import StiffnessPreconditioner, assemble_load, solve_linearized

    _, min_e0 = solve_linearized(StiffnessPreconditioner(mesh, default_material), assemble_load(mesh, hyd, 0.0))
    eps = 0.02
    plan = Plan(grad_tol=1e-9, max_iter=2000, multistart_angles=(0.0,), seed=4)
    y, diag, _ = multistart_minimize(Problem(mesh, default_material, hyd, hat), eps, plan)
    assert np.all(gather(mesh, y)[1] > 0.0)
    assert min_e0 * 1.2 <= diag.energy / eps ** 2 <= 0.0
    assert abs(diag.energy / eps ** 2 - min_e0) <= 0.2 * abs(min_e0)


def test_unconverged_polish_is_kept_only_when_lower(default_material, monkeypatch):
    # annulus 8 under a hydrostatic load: the kink of max(-y2, 0) stalls both
    # passes of a single start short of grad_tol; the polish lowers the energy
    # from some starts and ends higher from others.  Which seeds do which
    # shifts with any rounding change in the preconditioner or the energy, so
    # five are run
    import pressurelab.studies as ST
    from pressurelab import DomainSpec, build_domain

    mesh = build_domain(DomainSpec.annulus(1.0, 2.0, 8))
    hyd = builtin_pressure("hydrostatic", {"coefficient": 0.1})
    hat = extend_pressure(hyd, 0.9, 2.2, 0.45)
    passes = []
    real = ST.minimize_energy

    def spy(*args, **kwargs):
        passes.append(real(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(ST, "minimize_energy", spy)
    problem = Problem(mesh, default_material, hyd, hat)
    lowered = []
    for seed in (1, 2, 3, 4, 5):
        passes.clear()
        y, diag, _ = multistart_minimize(problem, 0.04, Plan(grad_tol=1e-10, seed=seed))
        (f1, d1), (f2, d2) = passes
        assert not (d1.converged or d2.converged)
        lowered.append(d2.energy < d1.energy)
        kept_f, kept_d = (f2, d2) if lowered[-1] else (f1, d1)
        assert np.array_equal(y, kept_f)
        assert (diag.energy, diag.grad_norm, diag.converged, diag.stop_reason) == (
            kept_d.energy, kept_d.grad_norm, kept_d.converged, kept_d.stop_reason)
        assert diag.energy <= d1.energy
        assert (diag.iterations, diag.backtracks) == (d1.iterations + d2.iterations,
                                                      d1.backtracks + d2.backtracks)
    assert any(lowered) and not all(lowered)


def test_study_assembles_and_factors_the_stiffness_once(disk16, lobe16, default_material,
                                                       bench_fields, bump_fields, monkeypatch):
    # the limit solves and every nonlinear solve of a study share one factor,
    # and the factor-preconditioned solve needs only a few applications even
    # for the rounding-level load that rotation(pi) leaves on the strict bump
    import pressurelab.linear_solver as LS
    import pressurelab.studies as ST
    from pressurelab.nonlinear_solver import StiffnessPreconditioner

    counts = {"assemble": 0, "factor": 0, "apply": 0}
    angles, per_solve = [], []
    real_assemble = LS.assemble_stiffness
    real_init = StiffnessPreconditioner.__init__
    real_apply = StiffnessPreconditioner.solve
    real_load = ST.assemble_load
    real_solve = ST.solve_linearized

    def assemble(*args, **kwargs):
        counts["assemble"] += 1
        return real_assemble(*args, **kwargs)

    def init(self, *args, **kwargs):
        counts["factor"] += 1
        real_init(self, *args, **kwargs)

    def apply(self, *args, **kwargs):
        counts["apply"] += 1
        return real_apply(self, *args, **kwargs)

    def record_angle(mesh, pi, alpha0):
        angles.append(alpha0)
        return real_load(mesh, pi, alpha0)

    def solve(factor, load):
        before = counts["apply"]
        out = real_solve(factor, load)
        per_solve.append(counts["apply"] - before)
        return out

    monkeypatch.setattr(LS, "assemble_stiffness", assemble)
    monkeypatch.setattr(StiffnessPreconditioner, "__init__", init)
    monkeypatch.setattr(StiffnessPreconditioner, "solve", apply)
    monkeypatch.setattr(ST, "assemble_load", record_angle)
    monkeypatch.setattr(ST, "solve_linearized", solve)
    const, hat = bench_fields
    gamma_study(Problem(disk16, default_material, const, hat),
                Plan(grad_tol=1e-8, max_iter=300, multistart_angles=(0.0,), eps_list=(0.04,),
                     seed=1, rotation_grid=128))
    assert (counts["assemble"], counts["factor"]) == (1, 1)
    assert len(angles) == 4 and len(per_solve) == 1  # constant pressure: one load, one solve
    assert all(1 <= k <= 10 for k in per_solve)

    counts.update(assemble=0, factor=0)
    angles.clear()
    per_solve.clear()
    bump, bump_hat = bump_fields
    almost_minimizer_scaling(Problem(lobe16, default_material, bump, bump_hat),
                             Plan(grad_tol=1e-8, max_iter=300, multistart_angles=(0.0,), eps_list=(0.04,),
                                  lambda_exponent=0.4, seed=1, rotation_grid=256))
    assert (counts["assemble"], counts["factor"]) == (1, 1)
    assert sorted(round(a, 12) for a in angles) == [0.0, round(np.pi, 12)]
    assert all(k <= 10 for k in per_solve)


# --- a loaded body -----------------------------------------------------------

def test_gamma_study_of_a_loaded_body_is_first_order_in_eps(lobe16, default_material):
    # The two-fold quadratic field loads the body at its optimal rotations, so
    # u0 carries shear and every solve reads the pressure-gradient part of the
    # Jacobian.  The gap E / eps^2 - min E0 is eps E1 + eps^2 E2 + O(eps^3) and
    # the distance of the rescaled displacement to u0 is O(eps): each halving
    # of eps divides both by 2 + O(eps).  The Richardson values
    # 2 gap(eps / 2) - gap(eps) = -eps^2 E2 / 2 + O(eps^3) cancel the first
    # order, so each halving divides them by 4 + O(eps): the same relative
    # window, 4 +- 0.6.
    pi = quadratic_field()
    plan = Plan(grad_tol=1e-11, max_iter=2000, multistart_angles=(0.0, np.pi), eps_list=(0.08, 0.04, 0.02, 0.01),
                rotation_grid=1024)
    rep = gamma_study(Problem(lobe16, default_material, pi, extend_pressure(pi, None, 2.2, 1.0)), plan)
    assert len(rep.rows) == 4 and all(row["converged"] for row in rep.rows)
    assert rep.limits["optimal_arcs"] == [] and len(rep.limits["optimal_angles"]) == 2
    for key in ("gap_to_min_E0", "u_dist_w1p"):
        values = np.array([row[key] for row in rep.rows])
        ratios = values[:-1] / values[1:]
        assert np.all((ratios >= 1.7) & (ratios <= 2.3)), (key, ratios)
    gaps = np.array([row["gap_to_min_E0"] for row in rep.rows])
    richardson = 2.0 * gaps[1:] - gaps[:-1]
    ratios = richardson[:-1] / richardson[1:]
    assert np.all((ratios >= 3.4) & (ratios <= 4.6)), (richardson, ratios)


def test_limit_energy_is_second_order_in_h_on_a_smooth_body(default_material):
    # On the annulus (1, 2) the quadratic field's limit is smooth and the
    # domain has no corners, so the P1 energy error is O(h^2): the observed
    # order of min E0 at angle 0 over resolutions 16/32/64 is 2 + o(1).  (The
    # four-lobe's re-entrant corners limit its order; see the README.)
    pi = quadratic_field()
    e0 = [minimize_limit_energy(Problem(build_domain(DomainSpec.annulus(1.0, 2.0, res)), default_material, pi, pi),
                                [0.0])[0] for res in (16, 32, 64)]
    order = np.log2((e0[0] - e0[1]) / (e0[1] - e0[2]))
    assert 1.7 <= order <= 2.3, (e0, order)
