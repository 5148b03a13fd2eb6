import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pressurelab import DomainSpec, Polar, build_domain, builtin_pressure, el_residual, extend_pressure, find_optimal_rotations, polar_field, quadrant_bump_pressure, rotation_functional, second_variation
from pressurelab import rotations
from pressurelab.linear_solver import StiffnessPreconditioner, pressure_work
from pressurelab.nonlinear_solver import rigid_map
from pressurelab.pressure import PressureError
from pressurelab.geometry import GAUSS, SIMPSON, edge_rule
from pressurelab.material import SKEW_GENERATOR, angular_distance, rotation, wrap_angle
from pressurelab.rotations import OptimalSet, boundary_profile, golden_section_min, rotation_functional_profile

from conftest import angular_total, hessian, interior_rule, rotation_sweep_value, support_rows, work_slope


@pytest.fixture(scope="module")
def strict_bump():
    return quadrant_bump_pressure("strict")


@pytest.fixture(scope="module")
def flat_bump():
    return quadrant_bump_pressure("flat")


def test_zero_pressure_zero_functional(disk16):
    zero = builtin_pressure("zero")
    for a in (0.0, 1.1, 5.0):
        assert rotation_functional(disk16, zero, a) == 0.0


def test_hydrostatic_on_disk_is_constant(disk32):
    # polar integration: int_0^1 r^2 dr * int_pi^2pi (-sin t) dt = 2/3
    hyd = builtin_pressure("hydrostatic", {"coefficient": 1.0})
    vals = [rotation_functional(disk32, hyd, a) for a in np.linspace(0, 2 * np.pi, 7)]
    assert np.max(np.abs(np.array(vals) - 2.0 / 3.0)) < 1e-3
    assert np.max(np.abs(np.diff(vals))) < 1e-3


def test_functional_matches_angular_sweep(lobe32, strict_bump):
    alphas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    got = rotation_functional_profile(lobe32, strict_bump, alphas)
    want = rotation_sweep_value(strict_bump, alphas)
    assert np.max(np.abs(got - want)) < 2e-3


def test_rotation_functional_error_is_second_order(lobe16, lobe32, strict_bump):
    # against the exact sweep, the boundary work on the polygon errs by
    # 4.55e-4 and 1.18e-4 at resolutions 16 and 32 (64 angles): order 2
    alphas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    want = rotation_sweep_value(strict_bump, alphas)
    e16, e32 = (np.max(np.abs(rotation_functional_profile(mesh, strict_bump, alphas) - want))
                for mesh in (lobe16, lobe32))
    assert e16 / e32 >= 3.5
    assert e32 <= 1.5e-4


def test_functional_periodicity(lobe16, strict_bump):
    for a in (0.3, 2.0):
        v1 = rotation_functional(lobe16, strict_bump, a)
        v2 = rotation_functional(lobe16, strict_bump, a + 2.0 * np.pi)
        assert abs(v1 - v2) <= 1e-14 * (1.0 + abs(v1))


@pytest.mark.parametrize("field, mesh", [
    ("strict", "lobe16"), ("flat", "lobe16"), ("hydrostatic", "annulus16"), ("constant", "disk16"),
])
def test_the_scan_and_the_solvers_read_one_work(request, field, mesh):
    # F(alpha) - F(0) of the polar scan is the change of the solvers' boundary
    # work under the rigid rotation, to the rounding of the work's own terms
    mesh = request.getfixturevalue(mesh)
    pi = {"strict": quadrant_bump_pressure("strict"), "flat": quadrant_bump_pressure("flat"),
          "hydrostatic": builtin_pressure("hydrostatic", {"coefficient": 1.0}),
          "constant": builtin_pressure("constant", {"value": 1.0})}[field]
    base = rotation_functional(mesh, pi, 0.0)
    for alpha in (0.3, 1.2, 2.5, 3.9, 5.6):
        work = pressure_work(mesh, pi, rigid_map(mesh, alpha))
        gap = abs(rotation_functional(mesh, pi, alpha) - base - work.change())
        assert gap <= 1e-15 + 1e-14 * work.size(), (alpha, gap)


def test_the_rotation_layer_builds_no_basis_gradients(flat_bump, default_material):
    # only the stiffness and the P1 gather read the basis gradients, so a scan
    # never builds them; the first reader does, read-only like every mesh array
    mesh = build_domain(DomainSpec.four_lobe(resolution=12))
    find_optimal_rotations(mesh, flat_bump, grid_n=256)
    boundary_profile(mesh, flat_bump, np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    assert "basis_gradients" not in vars(mesh)
    StiffnessPreconditioner(mesh, default_material)
    assert not vars(mesh)["basis_gradients"].flags.writeable


def test_strict_optimal_rotations(lobe32, strict_bump):
    opt = find_optimal_rotations(lobe32, strict_bump, grid_n=1024)
    assert len(opt.arcs) == 0
    angles = sorted(opt.angles)
    assert len(angles) == 2
    assert abs(angles[0] - 0.0) < 1e-3 or abs(angles[0] - 2 * np.pi) < 1e-3
    assert abs(angles[1] - np.pi) < 1e-3
    assert opt.distance(0.0) < 1e-3 and opt.distance(np.pi) < 1e-3


def test_flat_optimal_arc_covers_quarter(lobe32, flat_bump):
    opt = find_optimal_rotations(lobe32, flat_bump, grid_n=1024)
    assert len(opt.arcs) >= 1
    for a in np.linspace(0.0, np.pi / 4, 9):
        assert opt.distance(a) <= 2.0 * opt.grid_step
    # the flat set also contains the symmetric arc [7pi/8, 5pi/4]
    for a in np.linspace(7 * np.pi / 8, 5 * np.pi / 4, 9):
        assert opt.distance(a) <= 2.0 * opt.grid_step
    # and stays away from the peak direction
    assert opt.distance(np.pi / 2) > 0.2
    # the arc through angle 0 wraps: it starts at a negative angle and ends within a turn
    [(lo, hi)] = [arc for arc in opt.arcs if arc[0] <= 0.0 <= arc[1]]
    assert lo < 0.0 <= hi <= 2.0 * np.pi


def test_constant_pressure_whole_circle(disk16):
    const = builtin_pressure("constant", {"value": 0.3})
    opt = find_optimal_rotations(disk16, const, grid_n=128)
    assert opt.arcs == ((0.0, 2.0 * np.pi),)
    assert opt.distance(1.234) == 0.0


def _distance_by_shifted_arcs(opt, alpha):
    """Distance to the set by comparing alpha, shifted by -2 pi, 0 and 2 pi, with every arc."""
    a = wrap_angle(alpha)
    best = min((angular_distance(a, ang) for ang in opt.angles), default=math.inf)
    for lo, hi in opt.arcs:
        for aa in (a - 2.0 * np.pi, a, a + 2.0 * np.pi):
            if lo <= aa <= hi:
                return 0.0
            best = min(best, abs(aa - lo), abs(aa - hi))
    return best


def test_distance_is_the_distance_to_the_nearest_point():
    rng = np.random.default_rng(8)
    for _ in range(500):
        angles = tuple(rng.uniform(0.0, 2.0 * np.pi, rng.integers(0, 3)))
        lows = rng.uniform(0.0, 2.0 * np.pi, rng.integers(0 if angles else 1, 3))
        arcs = tuple((lo, lo + rng.uniform(0.0, np.pi)) for lo in lows)  # some wrap past 2 pi
        opt = OptimalSet(angles, arcs, 0.0, 0.0, 0.01, np.zeros(0))
        ends = [end + shift for arc in arcs for end in arc for shift in (-2.0 * np.pi, 0.0)]
        for alpha in [*rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 5), *ends]:
            want = _distance_by_shifted_arcs(opt, alpha)
            # equal but for the rounding of an arc end to [0, 2 pi)
            assert abs(opt.distance(alpha) - want) <= np.spacing(2.0 * np.pi), (opt, alpha)
            if not arcs:
                assert opt.distance(alpha) == want


def test_grid_floor_rejected(disk16):
    with pytest.raises(ValueError):
        find_optimal_rotations(disk16, builtin_pressure("zero"), grid_n=32)


def test_el_residual_constant_pressure(disk32):
    # the generator field is divergence free, so the residual closes exactly
    const = builtin_pressure("constant", {"value": 2.0})
    for a in (0.0, 0.7):
        assert abs(el_residual(disk32, const, a)) < 1e-12


def test_el_residual_vanishes_at_optima(lobe32, strict_bump):
    assert abs(el_residual(lobe32, strict_bump, 0.0)) < 1e-6
    assert abs(el_residual(lobe32, strict_bump, np.pi)) < 1e-6
    assert abs(work_slope(lobe32, strict_bump, 0.0)) < 1e-6


def test_el_boundary_matches_volume_form(lobe32, strict_bump):
    # the residual on the Gauss points against the slope of the work functional
    scale = angular_total(strict_bump)
    for a in (0.4, 0.7, 2.0, 3.6):
        b = el_residual(lobe32, strict_bump, a)
        v = work_slope(lobe32, strict_bump, a)
        assert abs(b - v) <= 1e-3 * (abs(v) + scale)


def test_el_volume_form_is_sweep_derivative(lobe32, strict_bump):
    # the slope of the work functional against the exact sweep's derivative
    a = 0.8
    v = work_slope(lobe32, strict_bump, a)
    assert abs(v - strict_bump.polar.rate(a)) < 2e-3


def test_second_variation_zero_amplitude(lobe16, strict_bump):
    assert second_variation(lobe16, strict_bump, 0.9, a=0.0) == 0.0


def test_second_variation_quadratic_scaling(lobe16, strict_bump):
    v1 = second_variation(lobe16, strict_bump, 0.7, a=1.0)
    v2 = second_variation(lobe16, strict_bump, 0.7, a=2.0)
    assert abs(v2 - 4.0 * v1) <= 1e-12 * (1.0 + abs(v2))


def test_second_variation_vanishes_at_optima(lobe32, strict_bump):
    # the bump gradient vanishes on the whole boundary for this field
    for a in (0.0, np.pi):
        for amp in (0.5, 1.0, 2.0):
            assert abs(second_variation(lobe32, strict_bump, a, amp)) < 1e-12


def test_second_variation_nonnegative_at_optima(lobe32, flat_bump):
    opt = find_optimal_rotations(lobe32, flat_bump, grid_n=512)
    scale = 1.0 + abs(opt.min_value)
    for a0 in opt.sample_angles(per_arc=3):
        assert second_variation(lobe32, flat_bump, a0, 1.0) >= -1e-6 * scale
        assert abs(el_residual(lobe32, flat_bump, a0)) <= 1e-3 * scale


def test_second_variation_matches_sweep_curvature(lobe32, strict_bump):
    # independent oracle: second difference of the rotation functional
    a, h = 0.9, 1e-3
    fpp = (rotation_functional(lobe32, strict_bump, a + h)
           + rotation_functional(lobe32, strict_bump, a - h)
           - 2.0 * rotation_functional(lobe32, strict_bump, a)) / h ** 2
    sv = second_variation(lobe32, strict_bump, a, 1.0)
    assert abs(sv - fpp) <= 1e-3 * (1.0 + abs(fpp))


def test_second_variation_needs_smoothness(disk16):
    with pytest.raises(PressureError, match="C\\^2"):
        second_variation(disk16, builtin_pressure("hydrostatic", {"coefficient": 1.0}), 0.0, 1.0)


def test_optimal_set_attains_minimum(lobe32, flat_bump):
    opt = find_optimal_rotations(lobe32, flat_bump, grid_n=512)
    for a in opt.sample_angles(per_arc=4):
        v = rotation_functional(lobe32, flat_bump, a)
        assert v <= opt.min_value + opt.value_tolerance


def test_second_variation_matches_interior_form_with_hessian(lobe32, strict_bump):
    # interior oracle built from the finite-difference Hessian of the field
    import numpy as np
    from pressurelab.material import SKEW_GENERATOR, angular_distance, rotation, wrap_angle

    a = 1.1
    R = rotation(a)
    pts, w, _ = interior_rule(lobe32)
    pts, w = pts.reshape(-1, 2), w.ravel()
    rx = pts @ R.T
    g = strict_bump.gradient(rx)
    H = hessian(strict_bump, rx)
    jx = pts @ SKEW_GENERATOR.T
    rjx = jx @ R.T
    rjjx = (jx @ SKEW_GENERATOR.T) @ R.T
    first = np.einsum("ij,ij->i", g, rjjx)
    secnd = np.einsum("ij,ijk,ik->i", rjx, H, rjx)
    volume = float(w @ (first + secnd))
    boundary = second_variation(lobe32, strict_bump, a, 1.0)
    assert abs(volume - boundary) <= 1e-3 * (1.0 + abs(boundary))


def test_golden_section_helper():
    x, v = golden_section_min(lambda t: (t - 0.37) ** 2 + 1.0, -1.0, 1.0, tol=1e-12)
    assert abs(x - 0.37) < 1e-7
    assert abs(v - 1.0) < 1e-13


def _work_slope_on_rows(mesh, pi, alpha):
    """d/dalpha of the rotation functional over the rows of the work's band
    table that R(alpha) can carry into the support: weights . rate_d1(theta + alpha)."""
    table, weights = rotations._band(mesh, pi, residual=False)
    return float(rotations._profiles(table, pi, [alpha], [(weights, pi.polar.rate_d1)])[0][0])


def test_support_rows_agree_with_full_quadrature(lobe16, disk16, strict_bump, flat_bump):
    grid = list(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    seams = [0.0, -1e-13, 2.0 * np.pi - 1e-13, np.pi / 2 + 1e-12, np.pi / 2 - 1e-12]
    cases = [(lobe16, strict_bump, seams), (lobe16, flat_bump, seams + [np.pi / 4 + 1e-12, np.pi / 4 - 1e-12]),
             (disk16, strict_bump, seams)]
    for mesh, pi, extra in cases:
        # the profiles on the support rows against the reference on every row
        full = dataclasses.replace(pi, support=None)
        _assert_profiles_match_reference(mesh, pi, np.array(grid + extra), reference=full, amplitudes=(1.0,))
        for a in grid + extra:
            got, want = _work_slope_on_rows(mesh, pi, a), _work_slope_on_rows(mesh, full, a)
            # exact zeros stay exact: the flat arc's ties depend on them
            assert (got == 0.0) == (want == 0.0), a
            assert abs(got - want) <= 1e-14 * (1.0 + abs(want)), a
            assert abs(want - work_slope(mesh, pi, a)) <= 1e-14 * (1.0 + abs(want)), a

    points = []

    def counted(theta):
        points.append(len(theta))
        return flat_bump.polar.rate(theta)

    grid_n = 1024
    find_optimal_rotations(lobe16, dataclasses.replace(flat_bump, polar=flat_bump.polar._replace(rate=counted)), grid_n)
    assert sum(points) <= grid_n * 3 * len(lobe16.boundary_edges) / 10


# Reference: the rotation layer one angle at a time, one field call per angle,
# with support rows picked by masking a run of the rule's full polar order by
# radius.  The work reads Simpson's edge rule, the residuals Gauss's.

_POLAR_ORDERS = {}  # (id(mesh), residual) -> (mesh, order); the mesh is held so its id stays unique


def _rule(mesh, residual):
    """Points, weights and N(dx) of a rule, row by row: Gauss's for the
    residuals, Simpson's for the work."""
    rule = GAUSS if residual else SIMPSON
    points, normal = edge_rule(mesh, mesh.nodes, rule)
    return points.reshape(-1, 2), np.tile(rule[1], len(normal)), np.repeat(normal, len(rule[1]), axis=0)


def _reference_polar_order(mesh, residual):
    key = (id(mesh), residual)
    if key not in _POLAR_ORDERS:
        points = _rule(mesh, residual)[0]
        theta = np.arctan2(points[:, 1], points[:, 0])
        rows = np.argsort(theta, kind="stable")
        order = types.SimpleNamespace(rows=rows, theta=theta[rows],
                                      rho=np.hypot(points[rows, 0], points[rows, 1]))
        _POLAR_ORDERS[key] = (mesh, order)
    return _POLAR_ORDERS[key][1]


def _reference_support_rows(mesh, pi, alpha, residual=False):
    """Rows of the rule, in its polar order, that R(alpha) can carry into the support of pi."""
    polar = _reference_polar_order(mesh, residual)
    if pi.support is None:
        return polar.rows
    rho_lo, rho_hi, theta_lo, theta_hi = pi.support
    margin = rotations._SUPPORT_MARGIN
    width = theta_hi - theta_lo + 2.0 * margin
    if rho_lo <= 0.0 or width >= 2.0 * np.pi:
        runs = [slice(None)]
    else:
        lo = (theta_lo - margin - alpha + np.pi) % (2.0 * np.pi) - np.pi
        hi = lo + width
        runs = [slice(np.searchsorted(polar.theta, lo), np.searchsorted(polar.theta, hi, side="right"))]
        if hi > np.pi:
            runs.append(slice(0, np.searchsorted(polar.theta, hi - 2.0 * np.pi, side="right")))
    band_lo, band_hi = rho_lo - margin, rho_hi + margin if residual else np.inf
    return np.concatenate([
        polar.rows[run][(polar.rho[run] >= band_lo) & (polar.rho[run] <= band_hi)] for run in runs
    ])


def _per_angle_functional(mesh, pi, alpha):
    """The work W(R(alpha) x): sum_g w_g N(dx) . R^T Phi(R x_g) over the support rows."""
    rows = _reference_support_rows(mesh, pi, alpha)
    pts, w, nrm = (a[rows] for a in _rule(mesh, False))
    R = rotation(alpha)
    phi = np.asarray(pi.potential(pts @ R.T)[0], dtype=float) @ R
    return float(w @ np.einsum("ij,ij->i", nrm, phi))


def _per_angle_boundary(mesh, pi, alpha, a=1.0):
    rows = _reference_support_rows(mesh, pi, alpha, residual=True)
    pts, w, nrm = (v[rows] for v in _rule(mesh, True))
    R = rotation(alpha)
    vals = np.asarray(pi.evaluate(pts @ R.T), dtype=float)
    el = float(w @ (vals * np.einsum("ij,ij->i", nrm, pts @ SKEW_GENERATOR.T)))
    if not pi.is_smooth:
        return el, np.nan
    g = np.asarray(pi.gradient(pts @ R.T), dtype=float)
    ax = a * (pts @ SKEW_GENERATOR.T)
    return el, float(w @ (np.einsum("ij,ij->i", g, ax @ R.T) * np.einsum("ij,ij->i", ax, nrm)))


def _counted(pi, forbid_slope=False):
    """pi with its rates wrapped to count their calls; a rate given as a number is not called."""
    calls = {"rate": 0, "rate_d1": 0, "points": 0}
    rate, rate_d1 = pi.polar.rate, pi.polar.rate_d1

    def counted_rate(theta):
        calls["rate"] += 1
        calls["points"] += len(theta)
        return rate(theta)

    def counted_rate_d1(theta):
        assert not forbid_slope, "rate_d1 of a field that is not C^2"
        calls["rate_d1"] += 1
        return rate_d1(theta)

    polar = pi.polar._replace(rate=counted_rate if callable(rate) else rate,
                              rate_d1=counted_rate_d1 if callable(rate_d1) else rate_d1)
    return dataclasses.replace(pi, polar=polar), calls


def _grid(n):
    # three turns, offset from the quarter turns, with negative and > 2 pi angles
    return -2.0 * np.pi + 6.0 * np.pi * np.arange(n) / n + 0.1234


def _assert_near_reference(name, got, want, bound):
    # a zero of the reference stays below 1e-60, far inside the 1e-9 ties of
    # the flat arc: the work's rule has corners on the support's inner
    # circle, where A(rho) is about 1e-63 at rho = 1 + 2e-16 and rotating a
    # point rounds rho to either side of 1
    assert np.all(np.abs(got[want == 0.0]) <= 1e-60), name
    assert np.all(np.abs(got - want) <= bound), (name, np.max(np.abs(got - want)))


def _assert_profiles_match_reference(mesh, pi, alphas, reference=None, amplitudes=(1.0, 0.7)):
    """The profiles of pi against the per-angle references of `reference` (pi itself by default).

    The profiles read pi only through its polar factorization, the references
    rotate the rule points and evaluate the field, so they differ by rounding:
    the functional and residual by at most 1e-14 (1 + |v|), the second
    variation by 1e-13 (1 + max |second|).  Returns the reference values.
    """
    reference = pi if reference is None else reference
    pi = dataclasses.replace(pi, evaluate=_no_points, gradient=_no_points, potential=_no_points)
    want = np.array([_per_angle_functional(mesh, reference, a) for a in alphas])
    _assert_near_reference("functional", rotation_functional_profile(mesh, pi, alphas), want,
                           1e-14 * (1.0 + np.abs(want)))
    wants = [want]
    for amp in amplitudes:
        el, second = boundary_profile(mesh, pi, alphas, amp)
        el_want, second_want = np.array([_per_angle_boundary(mesh, reference, a, amp) for a in alphas]).T
        _assert_near_reference("el", el, el_want, 1e-14 * (1.0 + np.abs(el_want)))
        if pi.is_smooth:
            _assert_near_reference(f"second a={amp}", second, second_want,
                                   1e-13 * (1.0 + np.max(np.abs(second_want))))
        else:
            assert np.all(np.isnan(second))
        wants += [el_want, second_want]
    return wants


def _no_points(pts):
    raise AssertionError("the rotation layer hands the field no points")


@pytest.mark.parametrize("variant, n_work, n_residual", [("strict", 256, 2048), ("flat", 1024, 8192)])
def test_batched_profiles_match_per_angle_reference_for_bumps(lobe32, monkeypatch, variant, n_work, n_residual):
    # a boundary band holds a few hundred rows: smaller chunks make these grids span several
    monkeypatch.setattr(rotations, "_CHUNK_POINTS", 4096)
    pi = quadrant_bump_pressure(variant)
    theta_lo, theta_hi = pi.support[2:]
    for n, profile in ((n_work, "work"), (n_residual, "residual")):
        alphas = _grid(n)
        # some rotations pull the support back across the seam of the polar order at +-pi
        lo = np.mod(theta_lo - alphas + np.pi, 2.0 * np.pi) - np.pi
        assert np.any(lo + (theta_hi - theta_lo) > np.pi)
        field, calls = _counted(pi)
        # each angle's sum over its block of a chunk is the one-angle call's sum
        if profile == "work":
            got = rotation_functional_profile(lobe32, field, alphas)
            assert np.array_equal(got, [rotation_functional(lobe32, pi, a) for a in alphas])
        else:
            el, second = boundary_profile(lobe32, field, alphas)
            assert np.array_equal(el, [el_residual(lobe32, pi, a) for a in alphas])
            assert np.array_equal(second, [second_variation(lobe32, pi, a) for a in alphas])
            assert calls["rate_d1"] == calls["rate"]
        assert calls["rate"] >= 3, profile  # the grid spans several chunks
    # a fluctuation amplitude other than one, against one-angle calls and the reference
    alphas = _grid(64)
    _, second = boundary_profile(lobe32, pi, alphas, a=0.7)
    assert np.array_equal(second, [second_variation(lobe32, pi, a, 0.7) for a in alphas])
    _assert_profiles_match_reference(lobe32, pi, alphas, amplitudes=(0.7,))


def test_batched_profiles_match_per_angle_reference_without_support(disk16, annulus16, lobe32):
    fields = [builtin_pressure("zero"), builtin_pressure("constant", {"value": 0.7}),
              builtin_pressure("constant", {"value": -1.3}), builtin_pressure("hydrostatic", {"coefficient": 1.0})]
    for pi in fields:
        assert pi.support is None and pi.polar is not None
        field, _ = _counted(pi, forbid_slope=not pi.is_smooth)
        for mesh in (disk16, annulus16, lobe32):
            _assert_profiles_match_reference(mesh, field, _grid(64))
        alphas = _grid(16)
        got = rotation_functional_profile(lobe32, field, alphas)
        assert np.array_equal(got, [rotation_functional(lobe32, pi, a) for a in alphas])
        el, _ = boundary_profile(lobe32, field, alphas)
        assert np.array_equal(el, [el_residual(lobe32, pi, a) for a in alphas])


def test_fields_built_separately_share_the_weights():
    # a field is rebuilt on every access of the run context: its weights are
    # cached by the radial factors, which every field of one family shares
    mesh = build_domain(DomainSpec.four_lobe(resolution=8))
    for build in (lambda: builtin_pressure("constant", {"value": 0.3}),
                  lambda: builtin_pressure("hydrostatic", {"coefficient": 2.0}),
                  lambda: quadrant_bump_pressure("strict")):
        first, second = build(), build()
        assert first.polar.radial is second.polar.radial
        for residual in (False, True):
            assert rotations._band(mesh, first, residual)[1] is rotations._band(mesh, second, residual)[1]
    # per family, one set of weights for each rule
    assert sum(isinstance(key, tuple) and len(key) > 3 for key in mesh.tables) == 6


def test_field_without_polar_factorization_is_rejected(lobe16):
    hat = extend_pressure(quadrant_bump_pressure("strict"), None, 2.2, 1.0)
    assert hat.polar is None
    with pytest.raises(PressureError):
        rotation_functional_profile(lobe16, hat, [0.0, 1.0])
    with pytest.raises(PressureError):
        boundary_profile(lobe16, hat, [0.0, 1.0])


@pytest.fixture(scope="module")
def annulus16():
    return build_domain(DomainSpec.annulus(1.0, 2.0, 16))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rho_lo=st.floats(-0.5, 2.5), rho_span=st.floats(0.0, 2.5), theta_lo=st.floats(-3 * math.pi, 5 * math.pi),
       width=st.floats(0.0, 7.0), alpha=st.floats(-3 * math.pi, 5 * math.pi))
@example(rho_lo=0.0, rho_span=1.0, theta_lo=0.3, width=1.0, alpha=0.2)             # origin apex
@example(rho_lo=0.5, rho_span=1.0, theta_lo=-1.0, width=2 * math.pi, alpha=1.0)    # full circle
@example(rho_lo=0.5, rho_span=1.0, theta_lo=3.0, width=1.0, alpha=0.1)             # wraps past +-pi
@example(rho_lo=0.5, rho_span=1.0, theta_lo=-0.5, width=0.7, alpha=-2.0)           # angles below 0
@example(rho_lo=0.5, rho_span=1.0, theta_lo=6.5, width=0.7, alpha=9.0)             # and above 2 pi
def test_band_table_rows_match_reference(lobe16, disk16, annulus16, flat_bump, rho_lo, rho_span, theta_lo,
                                         width, alpha):
    pi = dataclasses.replace(flat_bump, support=(rho_lo, rho_lo + rho_span, theta_lo, theta_lo + width))
    for mesh in (lobe16, disk16, annulus16):
        for residual in (False, True):
            table, _ = rotations._band(mesh, pi, residual)
            got = support_rows(mesh, pi, alpha, residual)
            points = _rule(mesh, residual)[0][_reference_support_rows(mesh, pi, alpha, residual)]
            assert np.array_equal(table.theta[got], np.arctan2(points[:, 1], points[:, 0])), (residual, len(got))
            assert np.array_equal(table.rho[got], np.hypot(points[:, 0], points[:, 1])), residual


def test_band_table_is_built_once(monkeypatch, strict_bump):
    mesh = build_domain(DomainSpec.four_lobe(resolution=8))
    built = []
    real = rotations._BandTable

    def counted(theta, rho, weights):
        built.append(len(theta))
        return real(theta, rho, weights)

    monkeypatch.setattr(rotations, "_BandTable", counted)
    profiles = []
    real_profile = rotations.rotation_functional_profile
    monkeypatch.setattr(rotations, "rotation_functional_profile",
                        lambda *args: profiles.append(1) or real_profile(*args))
    opt = find_optimal_rotations(mesh, strict_bump, grid_n=128)
    assert len(opt.angles) == 2 and len(profiles) > 2  # the grid and the golden-section refinement
    work, _ = rotations._band(mesh, strict_bump, residual=False)
    assert built == [len(work.theta)]
    for a in (0.1, 0.2):
        el_residual(mesh, strict_bump, a)
        second_variation(mesh, strict_bump, a)
    residual, _ = rotations._band(mesh, strict_bump, residual=True)
    assert built == [len(work.theta), len(residual.theta)]


def test_empty_band_scans_to_exact_zeros(disk16, strict_bump):
    # the bump lives at radii [1, 3]: every Gauss point of the unit disk lies
    # inside radius 1, and the work's rule reaches radius 1 only at the
    # corners, where A(rho) vanishes to fourth order
    table, weights = rotations._band(disk16, strict_bump, residual=True)
    assert len(table.theta) == len(weights) == 0
    alphas = _grid(64)
    el, second = boundary_profile(disk16, strict_bump, alphas)
    assert np.all(el == 0.0) and np.all(second == 0.0)
    table, weights = rotations._band(disk16, strict_bump, residual=False)
    assert np.all(np.abs(table.rho - 1.0) <= 1e-15) and np.max(np.abs(weights)) <= 1e-60
    assert np.max(np.abs(rotation_functional_profile(disk16, strict_bump, alphas))) <= 1e-60
    opt = find_optimal_rotations(disk16, strict_bump, grid_n=64)
    assert opt.arcs == ((0.0, 2.0 * np.pi),) and opt.angles == ()
    assert abs(opt.min_value) <= 1e-60


def test_rotation_with_an_empty_run_sums_to_exact_zero(lobe16):
    # a sector far narrower than the gaps between the rules' polar angles
    prof = quadrant_bump_pressure("strict").polar
    lo, width = 0.3, 1e-6
    polar = prof._replace(rate=lambda t: 1.0 + t * t, rate_d1=lambda t: 2.0 * t)
    pi = polar_field("sliver", "c2", polar, support=(1.0, 3.0, lo, lo + width))
    for residual in (False, True):
        table = rotations._band(lobe16, pi, residual)[0]
        # three angles of the large lobe's outer arc, the only rows at angles in (-1, -0.5)
        theta = np.unique(table.theta[(table.rho > 1.5) & (np.abs(table.theta + 0.75) < 0.25)])[:3]
        hits = lo + 0.5 * width - theta  # carry one angle of the table into the sector
        misses = lo - 0.5 * (theta[:-1] + theta[1:])  # carry the sector between two of them
        alphas = np.array([hits[0], misses[0], hits[1], misses[1], hits[2]])
        assert [len(support_rows(lobe16, pi, a, residual)) for a in alphas][1::2] == [0, 0]
        if residual:
            profiles = boundary_profile(lobe16, pi, alphas)
        else:
            profiles = [rotation_functional_profile(lobe16, pi, alphas)]
        for got in profiles:
            assert np.all(got[0::2] != 0.0) and np.all(got[1::2] == 0.0)
        # one chunk holds them all, and each value is its one-angle call's
        if residual:
            assert np.array_equal(profiles[0], [el_residual(lobe16, pi, a) for a in alphas])
            assert np.array_equal(profiles[1], [second_variation(lobe16, pi, a) for a in alphas])
        else:
            assert np.array_equal(profiles[0], [rotation_functional(lobe16, pi, a) for a in alphas])


def test_an_empty_angle_list_gives_empty_profiles(lobe16, strict_bump):
    for pi in (strict_bump, builtin_pressure("constant", {"value": 0.7}), builtin_pressure("zero")):
        assert rotation_functional_profile(lobe16, pi, []).shape == (0,)
        el, second = boundary_profile(lobe16, pi, np.array([]))
        assert el.shape == second.shape == (0,)


# The rotation layer reads a field only through its polar factorization
# radial(rho) * rate(theta): it scans (w (x . N(dx)) A(rho) / rho^2) .
# rate(theta + alpha) and (w (n . J x) radial(rho)) . rate(theta + alpha) on
# the band tables, without rotating a point or calling the field.  It must
# agree with the per-angle references, which do both, to rounding.

_SEAMS = [s + d for s in (0.0, np.pi, -np.pi, np.pi / 4, 3 * np.pi / 8, np.pi / 2) for d in (-1e-12, 0.0, 1e-12)]


@pytest.fixture(scope="module")
def lobe64():
    return build_domain(DomainSpec.four_lobe(resolution=64))


@pytest.mark.parametrize("variant", ["strict", "flat"])
@pytest.mark.parametrize("resolution", [16, 32, 64])
def test_polar_path_matches_generic_path(request, resolution, variant):
    mesh = request.getfixturevalue(f"lobe{resolution}")
    pi = quadrant_bump_pressure(variant)
    wants = _assert_profiles_match_reference(mesh, pi, np.concatenate([_grid(256), _SEAMS]))
    assert all(np.any(want != 0.0) for want in wants)
    # the optimal set is read off the grid values tied with their minimum: the reference's ties
    got = find_optimal_rotations(mesh, pi, grid_n=1024)
    want = np.array([_per_angle_functional(mesh, pi, a) for a in 2.0 * np.pi * np.arange(1024) / 1024])
    assert np.array_equal(got.grid_values <= got.min_value + got.value_tolerance,
                          want <= want.min() + 1e-9 * (1.0 + abs(want.min())))
    assert abs(got.min_value - want.min()) <= 1e-14 * (1.0 + abs(want.min()))


def _straddling_field():
    """A separable C^2 field whose angular support [3 pi/4, 5 pi/4] straddles +-pi,
    so that the profiles fold theta + alpha across the seam of arctan2, built
    from its polar factors, and the same field written with Cartesian
    closures as the oracle.  Its rates read angles only in arctan2's range,
    as the polar contract promises."""
    prof = quadrant_bump_pressure("strict").polar
    lo, width = 0.75 * np.pi, 0.5 * np.pi

    def offset(theta):
        theta = np.asarray(theta, dtype=float)
        assert np.all(np.abs(theta) <= np.pi + 1e-15), "an angle outside arctan2's range"
        return (np.where(theta < 0.0, theta + 2.0 * np.pi, theta) - lo) / width

    def rate(theta):
        s = offset(theta)
        return np.where((s > 0.0) & (s < 1.0), (s * (1.0 - s)) ** 4, 0.0)

    def rate_d1(theta):
        s = offset(theta)
        return np.where((s > 0.0) & (s < 1.0), 4.0 * (s * (1.0 - s)) ** 3 * (1.0 - 2.0 * s) / width, 0.0)

    def evaluate(pts):
        rho, theta = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
        return prof.radial(rho) * rate(theta)

    def gradient(pts):
        rho, theta = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
        e_rho = pts / rho[:, None]
        e_theta = np.stack([-pts[:, 1], pts[:, 0]], axis=1) / rho[:, None]
        return ((prof.radial_d1(rho) * rate(theta))[:, None] * e_rho
                + (prof.radial(rho) * rate_d1(theta) / rho)[:, None] * e_theta)

    field = polar_field("straddling", "c2", prof._replace(rate=rate, rate_d1=rate_d1),
                        support=(1.0, 3.0, lo, lo + width))
    return field, dataclasses.replace(field, evaluate=evaluate, gradient=gradient)


def test_polar_path_folds_angles_across_the_seam(lobe16, lobe32, annulus16):
    pi, oracle = _straddling_field()
    alphas = np.concatenate([_grid(256), _SEAMS])
    for mesh in (lobe16, lobe32, annulus16):
        _assert_profiles_match_reference(mesh, pi, alphas, reference=oracle)
    # the field built from its factors is the oracle, zero outside the sector
    t = np.linspace(-np.pi, np.pi, 721)
    pts = np.concatenate([rad * np.stack([np.cos(t), np.sin(t)], axis=1) for rad in (0.5, 1.2, 1.7, 2.6, 3.5)])
    want_v, want_g = oracle.evaluate(pts), oracle.gradient(pts)
    assert np.any(want_v != 0.0)
    assert np.all(pi.evaluate(pts)[want_v == 0.0] == 0.0)
    assert np.max(np.abs(pi.evaluate(pts) - want_v)) <= 1e-15
    assert np.max(np.abs(pi.gradient(pts) - want_g)) <= 1e-14
