"""Property tests: frame indifference of the energy and gradient without
pressure, the rotation extraction round trip, and the certificate that makes
the extraction the mixed penalty's minimizer.  Derandomized, so every run
draws the same examples."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pressurelab import MaterialModel, builtin_pressure
from pressurelab.material import angular_distance, rotation, wrap_angle
from pressurelab.nonlinear_solver import assemble_energy, assemble_gradient, zero_average
from pressurelab.studies import extract_rotation

from conftest import rotation_penalty, scanned_rotation

PROFILE = settings(derandomize=True, max_examples=25, deadline=None)
ANGLES = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


def _smooth_map(mesh, seed, amplitude):
    """x plus a smooth random field of the given amplitude, zero-averaged."""
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(3, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))
    u = sum(np.sin(mesh.nodes @ k[i][:, None] + phase[i]) for i in range(3))
    return zero_average(mesh, mesh.nodes + amplitude * u)


@PROFILE
@given(alpha=ANGLES, seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.01, 0.2),
       p=st.sampled_from([1.5, 2.0]))
def test_energy_and_gradient_are_frame_indifferent_without_pressure(disk16, alpha, seed, amplitude, p):
    material = MaterialModel(c1=1.3, c2=0.7, p=p, q=1.5)
    zero = builtin_pressure("zero")
    y = _smooth_map(disk16, seed, amplitude)
    R = rotation(alpha)
    e = assemble_energy(disk16, material, zero, y, 0.05)
    assert math.isfinite(e) and e > 0.0
    assert abs(assemble_energy(disk16, material, zero, y @ R.T, 0.05) - e) <= 1e-12 * e
    g = assemble_gradient(disk16, material, zero, y, 0.05)
    g_rot = assemble_gradient(disk16, material, zero, y @ R.T, 0.05)
    assert np.max(np.abs(g_rot - g @ R.T)) <= 1e-12 * np.max(np.abs(g))


@PROFILE
@given(alpha=ANGLES, seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(1e-4, 0.05),
       p=st.sampled_from([1.5, 2.0]))
@example(alpha=2.0 * math.pi - 1e-9, seed=3, amplitude=0.05, p=2.0)
@example(alpha=1e-12, seed=4, amplitude=0.05, p=2.0)
@example(alpha=1e-12, seed=4, amplitude=0.05, p=1.5)
def test_extraction_recovers_the_rotation(disk16, alpha, seed, amplitude, p):
    # near SO(2) the extracted angle moves with the frame, also when it crosses
    # the 0 / 2 pi seam, and is the minimizer of the mixed penalty at p
    y = _smooth_map(disk16, seed, amplitude)
    base = extract_rotation(disk16, y)
    y_rot = y @ rotation(alpha).T
    got = extract_rotation(disk16, y_rot)
    assert 0.0 <= got < 2.0 * math.pi
    assert angular_distance(got, wrap_angle(base + alpha)) <= 1e-12
    assert angular_distance(got, scanned_rotation(disk16, y_rot, p)) <= 1e-12


@PROFILE
@given(mesh_name=st.sampled_from(["disk16", "lobe16"]), alpha=ANGLES, seed=st.integers(0, 2 ** 32 - 1),
       amplitude=st.floats(1e-3, 0.15), p=st.floats(1.0, 2.0, exclude_min=True))
@example(mesh_name="disk16", alpha=1.0, seed=5, amplitude=0.15, p=1.0 + 1e-9)  # distance 0.320
def test_extraction_is_the_mixed_penalty_minimizer_below_distance_one_third(request, mesh_name, alpha, seed,
                                                                           amplitude, p):
    # the certificate of `extract_rotation`: with every triangle within 1/3 of
    # the fitted rotation, no angle lowers sum |T| g_p(dist(grad y, R(alpha)))
    mesh = request.getfixturevalue(mesh_name)
    y = _smooth_map(mesh, seed, amplitude) @ rotation(alpha).T
    got = extract_rotation(mesh, y)
    assume(rotation_penalty(mesh, y, p)[2](got) < 1.0 / 3.0)
    assert angular_distance(got, scanned_rotation(mesh, y, p)) <= 1e-12
