import numpy as np
import pytest

import dataclasses

from pressurelab import builtin_pressure, extend_pressure, quadrant_bump_pressure
from pressurelab.pressure import PressureError, hydrostatic_pressure, polar_factor

from conftest import angular_profile, angular_total, hessian, rotation_sweep_value


# --- built-in catalog --------------------------------------------------------

def test_zero_field():
    z = builtin_pressure("zero")
    pts = np.random.default_rng(0).normal(size=(50, 2))
    assert np.all(z.evaluate(pts) == 0.0)
    assert np.all(z.gradient(pts) == 0.0)


def test_constant_field():
    c = builtin_pressure("constant", {"value": 3.5})
    assert c.evaluate(np.array([0.1, -4.0])) == 3.5
    assert np.all(c.gradient(np.zeros((3, 2))) == 0.0)
    assert c.growth is None
    assert builtin_pressure("constant", {"value": -3.0}).growth == 0.0


def test_hydrostatic_negative_part():
    h = builtin_pressure("hydrostatic", {"coefficient": 1.0})
    assert abs(h.evaluate(np.array([0.3, -2.0])) - 2.0) < 1e-15
    assert h.evaluate(np.array([0.3, 2.0])) == 0.0
    assert h.smoothness == "lipschitz"
    assert h.growth is None


def test_unknown_name_rejected():
    with pytest.raises(PressureError):
        builtin_pressure("vortex")


def test_retired_bump_alias_rejected():
    # example52 was an alias of quadrant_bump; it is retired, not remapped.
    with pytest.raises(PressureError):
        builtin_pressure("example52", variant="strict")


CATALOG = [
    ("zero", {}, None), ("constant", {"value": -1.5}, None), ("hydrostatic", {"coefficient": 0.7}, None),
    ("quadrant_bump", {}, "strict"), ("quadrant_bump", {}, "flat"),
    ("hydrostatic", {"coefficient": -1.2}, None),
]


def _closed_form(name, params, variant, pts):
    """Each built-in field written out in Cartesian terms, apart from its factors."""
    x1, x2 = pts[:, 0], pts[:, 1]
    if name == "zero":
        return np.zeros(len(pts))
    if name == "constant":
        return np.full(len(pts), params["value"])
    if name == "hydrostatic":
        return params["coefficient"] * np.maximum(-x2, 0.0)
    rho, theta = np.hypot(x1, x2), np.arctan2(x2, x1)
    t = np.clip(3.0 - rho, 0.0, 1.0)
    psi = np.where(rho >= 1.0, 20.0 / 9.0 * (rho - 1.0) ** 3, 0.0) * t ** 4 * (35.0 - 84.0 * t + 70.0 * t ** 2 - 20.0 * t ** 3)
    if variant == "strict":
        rate = np.where((theta >= 0.0) & (theta <= np.pi / 2), theta ** 3 * (np.pi / 2 - theta) ** 3, 0.0)
    else:
        u = (theta - np.pi / 4) / (np.pi / 8)
        rate = np.where((u > 0.0) & (u < 1.0), 256.0 * (u * (1.0 - u)) ** 4, 0.0)
    return psi * rate


def _assert_derivative(f, df, x, h=1e-6):
    """df is the derivative of the polar factor f at x, by central differences; a
    factor given as a number has the number 0 as its derivative."""
    if not callable(f):
        assert not callable(df) and df == 0.0
        return
    fd = (f(x + h) - f(x - h)) / (2.0 * h)
    got = np.broadcast_to(polar_factor(df, x), x.shape)
    assert np.max(np.abs(got - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))


@pytest.mark.parametrize("name, params, variant", CATALOG)
def test_builtin_fields_declare_a_sound_polar_factorization(name, params, variant):
    # each field is its closed form, and its factors' derivatives are sound
    field = builtin_pressure(name, params, variant)
    pts = np.random.default_rng(4).uniform(-4.0, 4.0, size=(20000, 2))
    want = _closed_form(name, params, variant, pts)
    got = field.evaluate(pts)
    assert np.all(got[want == 0.0] == 0.0)
    assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))
    # rate_d1 and radial_d1 are the derivatives of rate and radial, away from
    # the kinks of the hydrostatic rate at 0 and +-pi
    t = np.linspace(-np.pi, np.pi, 1001)
    t = t[np.abs(np.sin(t)) > 1e-3]
    _assert_derivative(field.polar.rate, field.polar.rate_d1, t)
    _assert_derivative(field.polar.radial, field.polar.radial_d1, np.linspace(0.01, 4.0, 1000))


@pytest.mark.parametrize("c", [1.0, 0.7, -1.2, 3e5])
def test_hydrostatic_field_is_its_cartesian_form(c):
    # the factors' rounding, bounded absolutely: relative to the value it
    # grows without bound as theta nears +-pi, where the depth vanishes
    h = hydrostatic_pressure(c)
    rng = np.random.default_rng(8)
    t = np.concatenate([rng.uniform(-np.pi, np.pi, 4000), [np.pi, -np.pi, 0.0, -np.pi / 2, np.pi - 1e-9]])
    r = np.concatenate([rng.uniform(0.0, 5.0, 4000), [2.0, 2.0, 1.0, 3.0, 2.0]])
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    pts = np.concatenate([pts, [[-2.0, 0.0], [-2.0, -0.0], [0.0, 0.0]]])
    value = c * np.maximum(-pts[:, 1], 0.0)
    assert np.all(np.abs(h.evaluate(pts) - value) <= 1e-15 * abs(c) * np.hypot(pts[:, 0], pts[:, 1]))
    # the gradient off the kink at x2 = 0, where either side's is right
    deep, grad = pts[:, 1] < 0.0, h.gradient(pts)
    assert np.max(np.abs(grad[deep] - [0.0, -c])) <= 1e-15 * abs(c)
    assert np.max(np.abs(grad[pts[:, 1] > 0.0])) <= 1e-15 * abs(c)


def test_negative_hydrostatic_extension_is_continuous_and_below():
    h = builtin_pressure("hydrostatic", {"coefficient": -1.0})
    assert h.growth == 1.0
    for r_inner in (None, 0.6):
        hat = extend_pressure(h, r_inner, 1.1, 0.5)
        t = np.linspace(-np.pi, np.pi, 721)
        for rad in [1.1] + ([] if r_inner is None else [0.6]):
            inside = (rad * (1.0 - 1e-9 * np.sign(rad - 1.0)))[None] * np.stack([np.cos(t), np.sin(t)], axis=1)
            outside = (rad * (1.0 + 1e-9 * np.sign(rad - 1.0)))[None] * np.stack([np.cos(t), np.sin(t)], axis=1)
            assert np.max(np.abs(hat.evaluate(outside) - hat.evaluate(inside))) <= 1e-8
        assert abs(hat.evaluate(np.array([0.0, -1.1001])) - (-1.1001)) <= 1e-3
        pts = np.random.default_rng(6).uniform(-4.0, 4.0, size=(5000, 2))
        assert np.all(hat.evaluate(pts) <= h.evaluate(pts) + 1e-12)


def _extensions(field):
    return [extend_pressure(field, None, 1.5, 0.5), extend_pressure(field, 1.0, 1.8, 0.5)]


@pytest.mark.parametrize("name, params, variant", CATALOG)
def test_sign_class_is_read_off_growth(name, params, variant):
    # signed exactly when a growth exponent bounds the negative part; an extension keeps it
    field = builtin_pressure(name, params, variant)
    assert (field.growth is None) == (min(params.values(), default=0.0) >= 0.0)
    for f in _extensions(field):
        assert f.growth == field.growth


@pytest.mark.parametrize("name, params, variant", CATALOG)
def test_fields_and_extensions_are_finite_on_the_axes(name, params, variant):
    # the origin (no polar angle) and the seam of arctan2 on both sides
    pts = np.array([[0.0, 0.0], [-2.0, 0.0], [-2.0, -0.0]])
    field = builtin_pressure(name, params, variant)
    for f in [field] + _extensions(field):
        assert np.all(np.isfinite(f.evaluate(pts))) and np.all(np.isfinite(f.gradient(pts))), f.name


def _potential_parts(field, pts):
    """P = Phi . x and dP/dtheta = rho^2 e_rho . J e_theta of the potential pass at pts."""
    phi, jac = field.potential(pts)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    e_rho = pts / rho[:, None]
    e_theta = np.stack([-e_rho[:, 1], e_rho[:, 0]], axis=1)
    return np.sum(phi * pts, axis=1), rho ** 2 * np.einsum("ni,nij,nj->n", e_rho, jac, e_theta)


@pytest.mark.parametrize("name, params, variant", CATALOG)
def test_potential_integrates_the_field_along_each_ray(name, params, variant):
    # Phi = (P / rho) e_rho with dP/drho = rho pi, so div Phi = pi; dP/dtheta
    # and the Jacobian against central differences, in the core, in the taper
    # and beyond it, for the field and its ball and annulus extensions
    field = builtin_pressure(name, params, variant)
    rng = np.random.default_rng(31)
    theta = rng.uniform(-np.pi, np.pi, 600)
    theta = theta[np.abs(np.sin(theta)) > 1e-2]  # off the hydrostatic rate's kinks
    # radii in the cores (0.3..1.0, 1.0..1.8), the tapers (1.5..2.0, 1.8..2.3, 0.5..1.0) and beyond them
    rho = rng.choice([0.3, 0.55, 0.8, 1.2, 1.6, 1.7, 1.9, 2.2, 2.6, 3.4], len(theta))
    rho = rho + rng.uniform(0.0, 0.08, len(theta))
    pts = rho[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    e_rho = pts / rho[:, None]
    h = 1e-6
    for f in [field] + _extensions(field):
        value = f.evaluate(pts)
        p, p_theta = _potential_parts(f, pts)
        dp_drho = (_potential_parts(f, pts + h * e_rho)[0] - _potential_parts(f, pts - h * e_rho)[0]) / (2.0 * h)
        assert np.max(np.abs(dp_drho - rho * value)) <= 1e-6 * (1.0 + np.max(np.abs(rho * value))), f.name
        turn = [pts @ np.array([[np.cos(d), np.sin(d)], [-np.sin(d), np.cos(d)]]) for d in (h, -h)]
        dp_dtheta = (_potential_parts(f, turn[0])[0] - _potential_parts(f, turn[1])[0]) / (2.0 * h)
        assert np.max(np.abs(dp_dtheta - p_theta)) <= 1e-6 * (1.0 + np.max(np.abs(p_theta))), f.name
        jac = f.potential(pts)[1]
        fd = np.stack([(f.potential(pts + h * e)[0] - f.potential(pts - h * e)[0]) / (2.0 * h) for e in np.eye(2)],
                      axis=2)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd))), f.name
        assert np.max(np.abs(np.trace(jac, axis1=1, axis2=2) - value)) <= 1e-13 * (1.0 + np.max(np.abs(value)))
    # on the annulus P starts at the trusted inner radius, so Phi vanishes on that circle
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert np.max(np.abs(_extensions(field)[1].potential(circle)[0])) <= 1e-13


def test_bump_radial_potential_is_the_integral_of_s_radial():
    # A(rho) = integral of s radial(s) over [0, rho], against composite Gauss
    # quadrature of the radial profile: zero below 1, constant above 3
    from pressurelab.pressure import _radial, _radial_potential
    nodes, weights = np.polynomial.legendre.leggauss(12)
    knots = np.linspace(0.0, 3.5, 351)
    a, b = knots[:-1, None], knots[1:, None]
    s = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    pieces = np.sum(0.5 * (b - a) * weights * s * _radial(s), axis=1)
    want = np.concatenate([[0.0], np.cumsum(pieces)])
    assert np.max(np.abs(_radial_potential(knots) - want)) <= 1e-14 * want[-1]
    assert np.all(_radial_potential(np.linspace(0.0, 1.0, 11)) == 0.0)
    assert np.all(_radial_potential(np.linspace(3.0, 5.0, 11)) == _radial_potential(3.0))


def test_factors_given_as_numbers_take_no_angle(monkeypatch):
    # the constant field's rates are numbers: neither it nor its extension, in
    # the core or in the taper, takes arctan2
    c = builtin_pressure("constant", {"value": 0.4})
    fields = [c, extend_pressure(c, None, 1.5, 0.5), extend_pressure(c, 1.0, 1.5, 0.5)]
    pts = np.random.default_rng(1).uniform(-3.0, 3.0, size=(500, 2))
    want = [(f.evaluate(pts), f.gradient(pts)) for f in fields]
    monkeypatch.setattr(np, "arctan2", lambda *args: pytest.fail("an angle was taken"))
    for f, (value, grad) in zip(fields, want):
        assert np.array_equal(f.evaluate(pts), value) and np.array_equal(f.gradient(pts), grad)


def test_extension_needs_polar_factors():
    c = builtin_pressure("constant", {"value": 1.0})
    with pytest.raises(PressureError):
        extend_pressure(dataclasses.replace(c, polar=None), None, 2.0, 0.5)
    with pytest.raises(PressureError):
        extend_pressure(extend_pressure(c, None, 2.0, 0.5), None, 3.0, 0.5)


# --- bump profiles -----------------------------------------------------------

def test_strict_total_matches_closed_form():
    # closed form (pi/2)^7 / 140 of the accumulated angular rate
    assert abs(angular_total(quadrant_bump_pressure("strict")) - (np.pi / 2) ** 7 / 140.0) < 1e-14


def test_radial_profile_normalization():
    # independent Gauss-Legendre quadrature of rho * psi over [1, 2]
    polar = quadrant_bump_pressure("strict").polar
    xs, ws = np.polynomial.legendre.leggauss(40)
    r = 1.5 + 0.5 * xs
    val = 0.5 * np.sum(ws * r * polar.radial(r))
    assert abs(val - 1.0) < 1e-8


def test_radial_profile_endpoint_conditions():
    polar = quadrant_bump_pressure("strict").polar
    assert polar.radial(1.0) == 0.0
    assert polar.radial_d1(1.0) == 0.0
    h = 1e-12
    assert abs(polar.radial_d1(1.0 + h) / h) < 1e-10  # second derivative vanishes at the edge
    assert polar.radial(3.5) == 0.0 and polar.radial(10.0) == 0.0
    samples = np.linspace(1.0, 6.0, 400)
    assert np.all(np.isfinite(polar.radial(samples)))
    assert np.max(np.abs(polar.radial_d1(samples))) < 50.0


@pytest.mark.parametrize("variant", ["strict", "flat"], ids=lambda variant: f"{variant}_profile")
def test_angular_profile_conditions(variant):
    bump = quadrant_bump_pressure(variant)
    c = np.pi / 2.0
    assert angular_profile(bump, 0.0) == 0.0
    assert abs(angular_profile(bump, c) - angular_total(bump)) < 1e-15
    for a in (0.0, c):
        assert abs(bump.polar.rate(a)) < 1e-15
        assert abs(bump.polar.rate_d1(a)) < 1e-15
    grid = np.linspace(0.0, c, 200)
    assert np.all(bump.polar.rate(grid) >= 0.0)
    assert np.all(np.diff(angular_profile(bump, grid)) >= -1e-15)


def test_angular_rate_consistency_with_profile():
    bump = quadrant_bump_pressure("strict")
    grid = np.linspace(0.01, np.pi / 2 - 0.01, 50)
    h = 1e-7
    fd = (angular_profile(bump, grid + h) - angular_profile(bump, grid - h)) / (2.0 * h)
    assert np.max(np.abs(fd - bump.polar.rate(grid))) < 1e-6


def test_strict_rate_has_triple_zeros():
    assert quadrant_bump_pressure("strict").polar.rate(1e-4) < 1e-11  # cubic vanishing


def test_flat_rate_support():
    rate = quadrant_bump_pressure("flat").polar.rate
    assert np.all(rate(np.linspace(0.0, np.pi / 4, 50)) == 0.0)
    assert np.all(rate(np.linspace(3 * np.pi / 8, np.pi / 2, 50)) == 0.0)
    assert rate(np.pi / 4 + np.pi / 16) > 0.0


def test_rotation_sweep_piecewise_structure():
    prof = quadrant_bump_pressure("strict")
    total = angular_total(prof)
    a = 0.3
    assert abs(rotation_sweep_value(prof, a) - angular_profile(prof, a)) < 1e-15
    assert abs(rotation_sweep_value(prof, np.pi / 2 + a) - (total - angular_profile(prof, a))) < 1e-15
    assert abs(rotation_sweep_value(prof, np.pi + a) - angular_profile(prof, a)) < 1e-15
    assert abs(rotation_sweep_value(prof, 3 * np.pi / 2 + a) - (total - angular_profile(prof, a))) < 1e-15
    # continuity at the junctions
    for j in (np.pi / 2, np.pi, 3 * np.pi / 2):
        lo = rotation_sweep_value(prof, j - 1e-9)
        hi = rotation_sweep_value(prof, j + 1e-9)
        assert abs(lo - hi) < 1e-7


# --- the bump field ----------------------------------------------------------

def _catalog():
    return [builtin_pressure("zero"), builtin_pressure("constant", {"value": 0.3}),
            builtin_pressure("hydrostatic", {"coefficient": 1.0}),
            quadrant_bump_pressure("strict"), quadrant_bump_pressure("flat")]


def _in_sector(pts, support):
    rho_lo, rho_hi, theta_lo, theta_hi = support
    rho = np.hypot(pts[:, 0], pts[:, 1])
    offset = np.mod(np.arctan2(pts[:, 1], pts[:, 0]) - theta_lo, 2.0 * np.pi)
    return (rho >= rho_lo) & (rho <= rho_hi) & (offset <= theta_hi - theta_lo)


def test_declared_supports_are_sound():
    # the rotation layer skips every point outside a declared support, so a
    # support declared too narrow would silently drop load
    supported = [f for f in _catalog() if f.support is not None]
    assert {f.params["variant"] for f in supported} == {"strict", "flat"}
    gap = 1e-7
    rng = np.random.default_rng(3)
    for field in supported:
        rho_lo, rho_hi, theta_lo, theta_hi = field.support
        t = np.linspace(-np.pi, np.pi, 721)
        r = np.linspace(0.0, rho_hi + 1.0, 401)
        outside = [np.stack([rad * np.cos(t), rad * np.sin(t)], axis=1)
                   for rad in (rho_lo - gap, rho_hi + gap)]
        outside += [np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
                    for ang in (theta_lo - gap, theta_hi + gap)]
        cloud = rng.uniform(-2.0 * rho_hi, 2.0 * rho_hi, size=(20000, 2))
        outside.append(cloud[~_in_sector(cloud, field.support)])
        for pts in outside:
            assert np.all(field.evaluate(pts) == 0.0), field.params["variant"]
            assert np.all(field.gradient(pts) == 0.0), field.params["variant"]
        rho_mid, theta_mid = 0.5 * (rho_lo + rho_hi), 0.5 * (theta_lo + theta_hi)
        assert field.evaluate(np.array([rho_mid * np.cos(theta_mid), rho_mid * np.sin(theta_mid)])) > 0.0


def test_bump_point_value():
    # frozen from the closed form (20/9) * 0.5^3 * (pi/4)^6
    bump = quadrant_bump_pressure("strict")
    pt = 1.5 * np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
    assert abs(bump.evaluate(pt) - 0.06519837738547798) < 1e-14
    assert abs(bump.polar.radial(1.5) - 20.0 / 72.0) < 1e-15
    assert abs(bump.polar.rate(np.pi / 4) - (np.pi / 4) ** 6) < 1e-15


def test_bump_vanishes_outside_support():
    bump = quadrant_bump_pressure("strict")
    pts = np.array([
        [-0.5, 0.7], [0.5, -0.7], [0.3, 0.3], [0.0, 1.5], [1.5, 0.0], [-1.2, -1.2],
    ])
    assert np.all(bump.evaluate(pts) == 0.0)
    assert np.all(bump.gradient(pts) == 0.0)


def test_bump_continuous_across_gluing():
    bump = quadrant_bump_pressure("strict")
    rng = np.random.default_rng(5)
    # Lipschitz bound from the sampled gradient magnitude
    grid = np.stack(np.meshgrid(np.linspace(0.05, 3.0, 80), np.linspace(0.05, 3.0, 80)), axis=-1).reshape(-1, 2)
    lip = np.max(np.hypot(*bump.gradient(grid).T)) * 1.5 + 1.0
    gap = 2e-6
    thetas = rng.uniform(0.0, np.pi / 2, 200)
    inner = np.stack([(1 - 1e-6) * np.cos(thetas), (1 - 1e-6) * np.sin(thetas)], axis=1)
    outer = np.stack([(1 + 1e-6) * np.cos(thetas), (1 + 1e-6) * np.sin(thetas)], axis=1)
    assert np.max(np.abs(bump.evaluate(outer) - bump.evaluate(inner))) <= lip * gap
    radii = rng.uniform(1.1, 2.5, 200)
    below = np.stack([radii, np.full(200, -1e-6)], axis=1)
    above = np.stack([radii, np.full(200, 1e-6)], axis=1)
    assert np.max(np.abs(bump.evaluate(above) - bump.evaluate(below))) <= lip * gap


@pytest.mark.parametrize("variant", ["strict", "flat"])
def test_bump_gradient_matches_finite_differences(variant):
    bump = quadrant_bump_pressure(variant)
    rng = np.random.default_rng(23)
    count = 0
    h = 1e-6
    while count < 200:
        r = rng.uniform(1.05, 2.8)
        t = rng.uniform(0.05, np.pi / 2 - 0.05)
        p = r * np.array([np.cos(t), np.sin(t)])
        g = bump.gradient(p)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (bump.evaluate(p + e) - bump.evaluate(p - e)) / (2.0 * h)
            assert abs(g[j] - fd) <= 1e-5 * (1.0 + abs(fd))
        count += 1


def test_bump_hessian_symmetric():
    bump = quadrant_bump_pressure("strict")
    H = hessian(bump, np.array([[1.3, 0.9], [1.1, 1.4]]))
    assert np.allclose(H[..., 0, 1], H[..., 1, 0], atol=1e-6)


# --- extension ---------------------------------------------------------------

def test_extension_of_constant_matches_taper_formula():
    c = builtin_pressure("constant", {"value": 1.0})
    hat = extend_pressure(c, 1.0, 2.0, 0.5)
    # slope K = max(L, M/delta) = 2
    for r in (1.0, 1.3, 2.0):
        assert abs(hat.evaluate(np.array([r, 0.0])) - 1.0) < 1e-14
    assert abs(hat.evaluate(np.array([2.25, 0.0])) - 0.5) < 1e-12
    assert hat.evaluate(np.array([2.6, 0.0])) == 0.0
    assert abs(hat.evaluate(np.array([0.0, 0.75])) - 0.5) < 1e-12
    assert hat.evaluate(np.array([0.0, 0.4])) == 0.0


def test_extension_below_and_nonnegative():
    bump = quadrant_bump_pressure("strict")
    hat = extend_pressure(bump, None, 2.2, 1.0)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-6.0, 6.0, size=(1000, 2))
    vhat = hat.evaluate(pts)
    v = bump.evaluate(pts)
    assert np.all(vhat <= v + 1e-12)
    assert np.all(vhat >= 0.0)
    far = 10.0 * rng.normal(size=(100, 2)) + np.array([30.0, 0.0])
    assert np.all(hat.evaluate(far) == 0.0)  # compact support


def test_extension_agrees_on_trusted_region():
    bump = quadrant_bump_pressure("flat")
    hat = extend_pressure(bump, None, 2.5, 0.8)
    rng = np.random.default_rng(12)
    r = rng.uniform(0.0, 2.5, 500)
    t = rng.uniform(0.0, 2 * np.pi, 500)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    assert np.max(np.abs(hat.evaluate(pts) - bump.evaluate(pts))) == 0.0


def test_extension_signed_field():
    c = builtin_pressure("constant", {"value": -3.0})
    hat = extend_pressure(c, 1.0, 2.0, 0.5)
    assert hat.growth == 0.0
    mid = np.array([1.5, 0.0])
    assert abs(hat.evaluate(mid) - (-3.0)) < 1e-12
    rng = np.random.default_rng(2)
    pts = rng.uniform(-8.0, 8.0, size=(500, 2))
    assert np.all(hat.evaluate(pts) <= c.evaluate(pts) + 1e-10)
    assert np.all(np.isfinite(hat.evaluate(pts)))


def test_extension_rejects_bad_margin():
    c = builtin_pressure("constant", {"value": 1.0})
    with pytest.raises(PressureError):
        extend_pressure(c, 1.0, 2.0, 1.5)  # delta >= r_inner


def test_extension_gradient_consistency():
    bump = quadrant_bump_pressure("strict")
    hat = extend_pressure(bump, None, 2.2, 1.0)
    rng = np.random.default_rng(31)
    h = 1e-6
    checked = 0
    while checked < 60:
        p = rng.uniform(-3.0, 3.0, size=2)
        r = np.hypot(*p)
        if abs(r - 2.2) < 0.01 or abs(r - 3.2) < 0.01:
            continue  # kink circles of the taper
        g = hat.gradient(p)
        base = hat.evaluate(p)
        if r > 2.2 and base == 0.0:
            checked += 1
            continue  # clamped region: zero by construction
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (hat.evaluate(p + e) - hat.evaluate(p - e)) / (2.0 * h)
            assert abs(g[j] - fd) <= 2e-5 * (1.0 + abs(fd))
        checked += 1
