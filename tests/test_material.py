import math

import numpy as np
import pytest

from pressurelab import MaterialModel, dist_so2, energy_density, g_mixed, quadratic_form, rotation, stress
from pressurelab.material import SKEW_GENERATOR, _major, so2_fit


def g_mixed_derivative(t, r):
    """g'(t): t on the quadratic branch and t^(r-1) beyond."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("g_mixed requires a nonnegative argument")
    out = np.where(t <= 1.0, t, t ** (r - 1.0))
    return float(out) if out.ndim == 0 else out


def closest_rotation(F):
    """The rotation nearest to F, from the kernels' own fit (cos, sin) = (a, b)/s."""
    _, a, b, s = so2_fit(_major(F))
    if np.any(s == 0.0):
        raise ValueError("closest rotation is not unique for this matrix")
    return np.moveaxis(np.array([[a, -b], [b, a]]) / s, (0, 1), (-2, -1))


def _random_orientation_preserving(rng, n, det_range=(0.2, 5.0)):
    out = []
    while len(out) < n:
        F = np.eye(2) + rng.normal(scale=0.6, size=(2, 2))
        d = np.linalg.det(F)
        if det_range[0] <= d <= det_range[1]:
            out.append(F)
    return out


# --- mixed penalty -----------------------------------------------------------

def test_g_mixed_zero():
    for r in (1.0, 1.4, 2.0):
        assert g_mixed(0.0, r) == 0.0


def test_g_mixed_branches_agree_at_one():
    for r in (1.0, 1.3, 1.7, 2.0):
        assert abs(g_mixed(1.0, r) - 0.5) < 1e-15
        assert abs(g_mixed(1.0 + 1e-12, r) - 0.5) < 1e-11


def test_g_mixed_above_one_value():
    # frozen from the closed form 2^1.5/1.5 + 1/2 - 2/3
    assert abs(g_mixed(2.0, 1.5) - 1.7189514164974606) < 1e-14


def test_g_mixed_derivative_continuous_at_one():
    for r in (1.2, 1.5, 2.0):
        below = g_mixed_derivative(1.0 - 1e-12, r)
        above = g_mixed_derivative(1.0 + 1e-12, r)
        assert abs(below - above) < 1e-9
        h = 1e-7
        fd = (g_mixed(1.0 + h, r) - g_mixed(1.0 - h, r)) / (2.0 * h)
        assert abs(fd - 1.0) < 1e-6  # slope 1 at the branch point


def test_g_mixed_rejects_negative():
    with pytest.raises(ValueError):
        g_mixed(-0.1, 1.5)


# --- distance to rotations ---------------------------------------------------

def test_dist_vanishes_on_rotations():
    for a in np.linspace(0.0, 2.0 * np.pi, 9):
        assert dist_so2(rotation(a)) < 1e-12


def test_dist_scaled_identity():
    assert abs(dist_so2(2.0 * np.eye(2)) - math.sqrt(2.0)) < 1e-14


def test_dist_zero_matrix():
    # every rotation has Frobenius norm sqrt(2)
    assert abs(dist_so2(np.zeros((2, 2))) - math.sqrt(2.0)) < 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_dist_matches_dense_angle_scan(seed):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(2, 2))
    angles = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    dists = [np.linalg.norm(F - rotation(a)) for a in angles]
    assert abs(dist_so2(F) - min(dists)) < 1e-5


def test_closest_rotation_attains_distance():
    rng = np.random.default_rng(3)
    for F in _random_orientation_preserving(rng, 20):
        R = closest_rotation(F)
        assert abs(np.linalg.norm(F - R) - dist_so2(F)) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


# --- energy density ----------------------------------------------------------

def test_density_zero_at_identity(default_material):
    assert energy_density(default_material, np.eye(2)) == 0.0


def test_density_infinite_for_orientation_reversal(default_material):
    F = np.diag([1.0, -0.5])
    assert energy_density(default_material, F) == math.inf
    assert energy_density(default_material, np.diag([1.0, 0.0])) == math.inf


def test_density_doubled_identity(default_material):
    # c1 g2(sqrt2) + c2 g2(3) = 1 + 4.5
    assert abs(energy_density(default_material, 2.0 * np.eye(2)) - 5.5) < 1e-14


def test_frame_indifference(weak_material):
    rng = np.random.default_rng(7)
    for _ in range(100):
        F = np.eye(2) + rng.normal(scale=0.7, size=(2, 2))
        if np.linalg.det(F) <= 0.0:
            continue
        R = rotation(rng.uniform(0.0, 2.0 * np.pi))
        w1 = energy_density(weak_material, R @ F)
        w2 = energy_density(weak_material, F)
        assert abs(w1 - w2) <= 1e-12 * (1.0 + abs(w2))


def test_coercivity_bounds(weak_material):
    rng = np.random.default_rng(11)
    for _ in range(100):
        F = rng.normal(scale=1.5, size=(2, 2))
        w = energy_density(weak_material, F)
        d = np.linalg.det(F)
        lower1 = weak_material.c1 * g_mixed(dist_so2(F), weak_material.p)
        lower2 = weak_material.c2 * g_mixed(abs(d - 1.0), weak_material.q)
        assert w >= lower1 - 1e-14
        assert w >= lower2 - 1e-14


def test_quadratic_determinant_bound(weak_material):
    # W >= (c2/2)(det F - 1)^2 whenever |det F - 1| <= 1
    rng = np.random.default_rng(13)
    count = 0
    while count < 100:
        F = np.eye(2) + rng.normal(scale=0.5, size=(2, 2))
        d = np.linalg.det(F)
        if abs(d - 1.0) > 1.0:
            continue
        count += 1
        w = energy_density(weak_material, F)
        assert w >= 0.5 * weak_material.c2 * (d - 1.0) ** 2 - 1e-14


# --- stress ------------------------------------------------------------------

def test_stress_vanishes_on_rotations(weak_material):
    assert np.allclose(stress(weak_material, np.eye(2)), 0.0, atol=1e-14)
    for a in (0.3, 2.0, 4.5):
        assert np.allclose(stress(weak_material, rotation(a)), 0.0, atol=1e-13)


def test_stress_matches_finite_differences(weak_material):
    rng = np.random.default_rng(17)
    h = 1e-6
    for F in _random_orientation_preserving(rng, 100):
        S = stress(weak_material, F)
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2))
                E[i, j] = h
                fd = (energy_density(weak_material, F + E) - energy_density(weak_material, F - E)) / (2.0 * h)
                assert abs(S[i, j] - fd) <= 1e-5 * (1.0 + abs(fd))


def test_stress_rejects_reversed_orientation(default_material):
    with pytest.raises(ValueError):
        stress(default_material, np.diag([1.0, -1.0]))


# --- quadratic form ----------------------------------------------------------

def test_quadratic_form_kills_skew(default_material):
    assert quadratic_form(default_material, SKEW_GENERATOR) == 0.0
    assert quadratic_form(default_material, 3.3 * SKEW_GENERATOR) == 0.0


def test_quadratic_form_identity():
    m = MaterialModel(c1=1.0, c2=1.0, p=2.0, q=2.0)
    assert abs(quadratic_form(m, np.eye(2)) - 6.0) < 1e-14


def test_quadratic_form_rank_one():
    m = MaterialModel(c1=1.0, c2=2.0, p=2.0, q=2.0)
    E = np.outer([1.0, 0.0], [1.0, 0.0])
    assert abs(quadratic_form(m, E) - 3.0) < 1e-14


def test_quadratic_form_is_second_difference(weak_material):
    rng = np.random.default_rng(19)
    t = 1e-4
    for _ in range(20):
        E = rng.normal(size=(2, 2))
        fd = (energy_density(weak_material, np.eye(2) + t * E)
              + energy_density(weak_material, np.eye(2) - t * E)) / t ** 2
        q = quadratic_form(weak_material, E)
        assert abs(fd - q) <= 1e-3 * (1.0 + abs(q))


# --- model validation --------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"c1": 0.0}, {"c2": -1.0}, {"p": 1.0}, {"p": 2.5}, {"q": 0.5}, {"q": 2.5},
])
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        MaterialModel(**kwargs)
