import math

import numpy as np
import pytest

from pressurelab import DomainSpec, MaterialModel, TriMesh, build_domain, rotations
from pressurelab.linear_solver import project_gradient
from pressurelab.material import SKEW_GENERATOR, cofactor, det2, rotation, stress_components
from pressurelab.nonlinear_solver import admissible_start


@pytest.fixture(scope="session")
def disk16():
    return build_domain(DomainSpec.disk(1.0, 16))


@pytest.fixture(scope="session")
def disk32():
    return build_domain(DomainSpec.disk(1.0, 32))


@pytest.fixture(scope="session")
def annulus32():
    return build_domain(DomainSpec.annulus(1.0, 2.0, 32))


@pytest.fixture(scope="session")
def lobe16():
    return build_domain(DomainSpec.four_lobe(resolution=16))


@pytest.fixture(scope="session")
def lobe32():
    return build_domain(DomainSpec.four_lobe(resolution=32))


@pytest.fixture(scope="session")
def square_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh.from_arrays(nodes, triangles)


@pytest.fixture(scope="session")
def default_material():
    return MaterialModel(c1=1.0, c2=1.0, p=2.0, q=2.0)


@pytest.fixture(scope="session")
def weak_material():
    return MaterialModel(c1=1.3, c2=0.7, p=1.5, q=1.5)


# Helpers and oracles that only tests read: a translated mesh, the identity
# map, the rotation layer's support rows, the interior form of its
# stationarity residual, a finite-difference Hessian of a field, the angular
# profile of a bump and its exact sweep over the rotated four-lobe domain, the
# fancy-indexed P1 gather, bincount scatter and energy gradient that the
# sparse P1 gather and its transpose replaced (the gather matches them bit for
# bit, the gradient to 1e-14 of its largest entry, since the transpose sums in
# another order), and the edge-by-edge boundary load scatter.


def translated(mesh, shift):
    """The mesh with every node moved by shift."""
    return TriMesh.from_arrays(mesh.nodes + np.asarray(shift, dtype=float), mesh.triangles)


def identity_map(mesh):
    """The reference configuration as a nodal map."""
    return mesh.nodes.copy()


def noisy_start(mesh, alpha, amplitude, rng):
    """R(alpha) x plus uniform nodal noise of the given amplitude, halved until
    admissible: the start `multistart_minimize` builds when it has no limit."""
    return admissible_start(mesh, alpha, amplitude * rng.uniform(-1.0, 1.0, size=mesh.nodes.shape))


def support_rows(mesh, pi, alpha, boundary=False):
    """Rows of the interior (or boundary) rule that R(alpha) can carry into the support of pi:
    every row, in mesh order, when pi declares no support."""
    if pi.support is None:
        return slice(None)
    table, _ = rotations._rule_table(mesh, pi, boundary)
    bounds = np.append(table.starts, len(table.rows))  # the table's angle k holds rows bounds[k]:bounds[k + 1]
    start, count = (int(v[0]) for v in rotations._segments(table, pi, np.array([alpha], dtype=float)))
    stop, n = start + count, len(table.theta)  # the run of angles start, ..., stop - 1, modulo n
    runs = (slice(bounds[start], bounds[min(stop, n)]), slice(0, bounds[max(stop - n, 0)]))
    return np.concatenate([table.rows[s] for s in runs])


def el_volume_form(mesh, pi, alpha):
    """Interior form of the stationarity residual: integral of grad pi(R x) . R J x."""
    rows = support_rows(mesh, pi, alpha)
    pts = mesh.interior_points_flat()[rows]
    w = mesh.interior_weights_flat()[rows]
    R = rotation(alpha)
    g = np.asarray(pi.gradient(pts @ R.T), dtype=float)
    rjx = pts @ (R @ SKEW_GENERATOR).T
    return float(w @ np.einsum("ij,ij->i", g, rjx))


def hessian(pi, points, step=1e-5):
    """Second derivatives of pi by central differences of its gradient."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[:-1] + (2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        out[..., :, j] = (pi.gradient(pts + e) - pi.gradient(pts - e)) / (2.0 * step)
    return out


def fancy_gather(mesh, y):
    """Component-major gradient f (2, 2, M), det (M,) and rule points (3M, 2) from y[triangles]."""
    yt = y[mesh.triangles]
    g = mesh.basis_gradients
    f = np.array([[yt[:, 0, a] * g[:, 0, b] + yt[:, 1, a] * g[:, 1, b] + yt[:, 2, a] * g[:, 2, b]
                   for b in range(2)] for a in range(2)])
    return f, det2(f), (0.5 * (yt + yt[:, [1, 2, 0]])).reshape(-1, 2)


def bincount_scatter(mesh, contrib):
    """Nodal sums (N, 2) of component-major per-corner values (2, M, 3)."""
    return np.stack([np.bincount(mesh.triangles.ravel(), weights=c.ravel(), minlength=mesh.n_nodes)
                     for c in contrib], axis=1)


def fancy_gradient(mesh, material, pi_hat, y, eps):
    """The projected energy gradient assembled with `fancy_gather` and `bincount_scatter`."""
    f, det, yq = fancy_gather(mesh, y)
    w = mesh.quadrature.interior_weights
    piy = np.reshape(pi_hat.evaluate(yq), w.shape)
    gpiy = np.reshape(pi_hat.gradient(yq), w.shape + (2,))
    P = mesh.areas * stress_components(material, f, det) + (eps * np.sum(w * piy, axis=1)) * cofactor(f)
    h = (eps * w * det[:, None])[:, :, None] * gpiy
    g = mesh.basis_gradients
    edges = np.moveaxis(0.5 * (h + h[:, [2, 0, 1]]), 2, 0)
    contrib = P[:, 0, :, None] * g[..., 0] + P[:, 1, :, None] * g[..., 1] + edges  # (2, M, 3)
    return project_gradient(mesh, bincount_scatter(mesh, contrib))


def angular_profile(profile, alpha):
    """Closed form of the integral of the bump's angular rate from 0 to alpha in [0, pi/2]."""
    lo, hi = profile.rate_support
    if profile.variant == "strict":
        a = np.clip(np.asarray(alpha, dtype=float), lo, hi)
        return hi ** 3 * a ** 4 / 4.0 - 0.6 * hi ** 2 * a ** 5 + 0.5 * hi * a ** 6 - a ** 7 / 7.0
    # the flat rate is 256 (s (1 - s))^4 in s = (alpha - lo) / (hi - lo)
    s = np.clip((np.asarray(alpha, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return 256.0 * (hi - lo) * (s ** 5 / 5.0 - 2.0 * s ** 6 / 3.0 + 6.0 * s ** 7 / 7.0 - s ** 8 / 2.0 + s ** 9 / 9.0)


def angular_total(profile):
    """The angular profile's peak, reached at the end of the rate's support."""
    return float(angular_profile(profile, profile.rate_support[1]))


def rotation_sweep_value(profile, alpha):
    """Exact integral of the bump of ``profile`` over the four-lobe domain rotated by alpha.

    Piecewise in the quarter-turn offset: the sweep rises by the angular
    profile while a large lobe rotates across the bump support, then falls
    symmetrically, twice per full turn.
    """
    a = np.mod(np.asarray(alpha, dtype=float), 2.0 * math.pi)
    seg = np.floor(a / (0.5 * math.pi)).astype(int) % 4
    local = a - seg * (0.5 * math.pi)
    rising = angular_profile(profile, local)
    falling = angular_total(profile) - rising
    out = np.where(seg % 2 == 0, rising, falling)
    return float(out) if out.ndim == 0 else out


def add_at_load(mesh, pi, alpha0):
    """The boundary load of `linear_solver._boundary_load`, scattered edge by edge with np.add.at."""
    R = rotation(alpha0)
    pts = mesh.quadrature.boundary_points
    vals = np.asarray(pi.evaluate(pts.reshape(-1, 2) @ R.T), dtype=float).reshape(pts.shape[:2])
    coeff = np.einsum("eq,eq,qi->ei", mesh.quadrature.boundary_weights, vals, mesh.quadrature.boundary_bary)
    load = np.zeros((mesh.n_nodes, 2))
    for local in range(2):
        nodes = mesh.boundary_edges[:, local]
        for a in range(2):
            np.add.at(load[:, a], nodes, coeff[:, local] * mesh.boundary_normals[:, a])
    return load.ravel()
