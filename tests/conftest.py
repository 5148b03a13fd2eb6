import math

import numpy as np
import pytest
import scipy.sparse as sp

from pressurelab import DomainSpec, MaterialModel, Polar, TriMesh, build_domain, polar_field, rotations
from pressurelab.geometry import GAUSS, SIMPSON, edge_rule
from pressurelab.linear_solver import _p1_gather, assemble_load, pressure_work, project_gradient
from pressurelab.material import SKEW_GENERATOR, det2, rotation, stress_components
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


# Helpers and oracles that only tests read: a loaded body's pressure field
# (the two-fold quadratic), a translated mesh, every mesh array by the
# row-major formulas that the per-coordinate gathers replaced, the identity
# map, the rotation layer's support rows, the slope of its work functional
# from the field's potential at rotated points, a finite-difference Hessian
# of a field, the angular profile of a bump and its exact sweep over the
# rotated four-lobe domain, the interior 3-point rule for volume integrals
# of a field, the fancy-indexed P1 gather, bincount scatter and
# energy gradient that the sparse P1 gather and its transpose replaced (the
# gather matches them bit for bit, the gradient to 1e-14 of its largest
# entry, since the transpose sums in another order), the stiffness as a sum of
# Kronecker-built strain forms that the one strain operator replaced (to
# 1e-14 of its largest entry), and the edge-by-edge boundary load scatter.


def _square(rho):
    return np.square(rho)


def _double(rho):
    return 2.0 * np.asarray(rho, dtype=float)


def _quarter_fourth_power(rho):
    return 0.25 * np.asarray(rho, dtype=float) ** 4


def quadratic_field(s=0.1, b=0.5):
    """The two-fold quadratic field s (|x|^2 + 2 b x1 x2) = s rho^2 (1 + b sin 2 theta):
    a polynomial, nonnegative for |b| <= 1, whose optimal rotations of the
    four-lobe are 0 and pi, isolated and nondegenerate, with pi nonzero on
    the body.  Radial rho^2 with potential rho^4 / 4, rate s (1 + b sin 2 theta)."""
    def rate(t):
        return s * (1.0 + b * np.sin(2.0 * t))

    def rate_d1(t):
        return 2.0 * s * b * np.cos(2.0 * t)

    return polar_field("quadratic", "c3", Polar(_square, rate, rate_d1, _double, _quarter_fourth_power))


def translated(mesh, shift):
    """The mesh with every node moved by shift."""
    return TriMesh.from_arrays(mesh.nodes + np.asarray(shift, dtype=float), mesh.triangles)


def row_major_arrays(nodes, triangles, centered=False):
    """Every `TriMesh` array, and the diameter, by the row-major formulas that
    `TriMesh.from_arrays` replaced with gathers of one coordinate at a time:
    corner rows nodes[triangles[:, k]], edges from the column pairs of the
    triangles, the bounding box from nodes.min(axis=0).  centered first moves
    the lumped-mass barycenter of the nodes to the origin, as `build_domain`
    does."""
    nodes, triangles = np.asarray(nodes, dtype=float), np.asarray(triangles, dtype=np.int64)

    def corners_areas_masses(nodes):
        v0, v1, v2 = (nodes[triangles[:, k]] for k in range(3))
        areas = 0.5 * ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0]))
        masses = np.bincount(triangles.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=len(nodes))
        return (v0, v1, v2), areas, masses

    if centered:
        masses = corners_areas_masses(nodes)[2]
        center = masses @ nodes / float(masses.sum())
        if np.hypot(*center) > 0.0:
            nodes = nodes - center
    (v0, v1, v2), areas, masses = corners_areas_masses(nodes)
    grads = np.empty((len(triangles), 3, 2))
    for i, e in enumerate((v2 - v1, v0 - v2, v1 - v0)):  # edge opposite node i
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    raw = np.empty((3 * len(triangles), 2), dtype=np.int64)
    raw[0::3], raw[1::3], raw[2::3] = triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]
    key = np.minimum(raw[:, 0], raw[:, 1]) * len(nodes) + np.maximum(raw[:, 0], raw[:, 1])
    order = np.argsort(key, kind="stable")
    differs = np.diff(key[order]) != 0
    single = np.ones(len(order), dtype=bool)
    single[1:] &= differs
    single[:-1] &= differs
    edges = raw[np.sort(order[single])]
    ev = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    lengths = np.hypot(ev[:, 0], ev[:, 1])
    return {"nodes": nodes, "triangles": triangles, "areas": areas, "basis_gradients": grads, "node_masses": masses,
            "boundary_edges": edges, "boundary_normals": np.stack([ev[:, 1], -ev[:, 0]], axis=1) / lengths[:, None],
            "boundary_lengths": lengths, "diameter": float(np.hypot(*(nodes.max(axis=0) - nodes.min(axis=0))))}


def identity_map(mesh):
    """The reference configuration as a nodal map."""
    return mesh.nodes.copy()


def noisy_start(mesh, alpha, amplitude, rng):
    """R(alpha) x plus uniform nodal noise of the given amplitude, halved until
    admissible: the start `multistart_minimize` builds when it has no limit."""
    return admissible_start(mesh, alpha, amplitude * rng.uniform(-1.0, 1.0, size=mesh.nodes.shape))


def support_rows(mesh, pi, alpha, residual=False):
    """Rows of the work's edge rule (or of the residuals' Gauss rule), as
    indices into its band table, that R(alpha) can carry into the support of
    pi: every row when pi declares no support."""
    table, _ = rotations._band(mesh, pi, residual)
    if pi.support is None:
        return np.arange(len(table.theta))
    start, count = (int(v[0]) for v in rotations._segments(table, pi, np.array([alpha], dtype=float)))
    return (start + np.arange(count)) % len(table.theta)


def work_slope(mesh, pi, alpha):
    """d/dalpha of the boundary work W(R(alpha) x) from the field's potential
    at the rotated rule points: sum_g w_g N(dx) . d/dalpha R^T Phi(R x_g)
    = sum_g w_g (N(dx) . R^T J(R x_g) R J x_g + dx . R^T Phi(R x_g))."""
    points, normal = edge_rule(mesh, mesh.nodes, SIMPSON)
    R = rotation(alpha)
    pts = points.reshape(-1, 2)
    phi, jac = pi.potential(pts @ R.T)
    turned = np.einsum("ji,njk,kl,nl->ni", R, jac, R @ SKEW_GENERATOR, pts)  # R^T J(R x) R J x
    dx = np.repeat(normal @ SKEW_GENERATOR.T, 3, axis=0)  # J N(dx) = dx
    n = np.repeat(normal, 3, axis=0)
    w = np.tile(SIMPSON[1], len(normal))
    return float(w @ (np.einsum("ni,ni->n", n, turned) + np.einsum("ni,ni->n", dx, phi @ R)))


def interior_rule(mesh):
    """The interior 3-point rule, exact for quadratics: the edge midpoints
    (M, 3, 2) of each triangle, point r on the edge from corner r to r + 1,
    their weights area / 3 (M, 3) and barycentric coordinates (3, 3)."""
    bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    return (np.einsum("ri,mic->mrc", bary, mesh.nodes[mesh.triangles]),
            np.repeat(mesh.areas[:, None] / 3.0, 3, axis=1), bary)


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
    """Component-major gradient f (2, 2, M) and det (M,) from y[triangles]."""
    yt = y[mesh.triangles]
    g = mesh.basis_gradients
    f = np.array([[yt[:, 0, a] * g[:, 0, b] + yt[:, 1, a] * g[:, 1, b] + yt[:, 2, a] * g[:, 2, b]
                   for b in range(2)] for a in range(2)])
    return f, det2(f)


def bincount_scatter(mesh, contrib):
    """Nodal sums (N, 2) of component-major per-corner values (2, M, 3)."""
    return np.stack([np.bincount(mesh.triangles.ravel(), weights=c.ravel(), minlength=mesh.n_nodes)
                     for c in contrib], axis=1)


def fancy_gradient(mesh, material, pi_hat, y, eps):
    """The projected energy gradient with the elastic part assembled with
    `fancy_gather` and `bincount_scatter`, and the pressure work's."""
    f, det = fancy_gather(mesh, y)
    P = mesh.areas * stress_components(material, f, det)
    g = mesh.basis_gradients
    contrib = P[:, 0, :, None] * g[..., 0] + P[:, 1, :, None] * g[..., 1]  # (2, M, 3)
    work = pressure_work(mesh, pi_hat, y).gradient(mesh)
    return project_gradient(mesh, bincount_scatter(mesh, contrib) + eps * work)


def kron_stiffness(mesh, material):
    """c1 (e11^T A e11 + e22^T A e22 + 2 e12^T A e12) + c2 div^T A div, A = diag(areas),
    with each strain row built by sp.kron from the gradient rows of the P1 gather."""
    m, G = len(mesh.triangles), _p1_gather(mesh)
    # d[a][b] @ u.ravel() = d_b u_a per triangle
    d = [[sp.kron(G[b * m:(b + 1) * m], np.eye(2)[a:a + 1], format="csr") for b in range(2)] for a in range(2)]
    e12, div, A = 0.5 * (d[0][1] + d[1][0]), d[0][0] + d[1][1], sp.diags(mesh.areas)

    def form(e):
        return e.T @ A @ e

    return (material.c1 * (form(d[0][0]) + form(d[1][1]) + 2.0 * form(e12)) + material.c2 * form(div)).tocsr()


def angular_profile(bump, alpha):
    """Closed form of the integral of the bump's angular rate from 0 to alpha in [0, pi/2]."""
    lo, hi = bump.support[2:]
    if bump.params["variant"] == "strict":
        a = np.clip(np.asarray(alpha, dtype=float), lo, hi)
        return hi ** 3 * a ** 4 / 4.0 - 0.6 * hi ** 2 * a ** 5 + 0.5 * hi * a ** 6 - a ** 7 / 7.0
    # the flat rate is 256 (s (1 - s))^4 in s = (alpha - lo) / (hi - lo)
    s = np.clip((np.asarray(alpha, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return 256.0 * (hi - lo) * (s ** 5 / 5.0 - 2.0 * s ** 6 / 3.0 + 6.0 * s ** 7 / 7.0 - s ** 8 / 2.0 + s ** 9 / 9.0)


def angular_total(bump):
    """The angular profile's peak, reached at the end of the rate's support."""
    return float(angular_profile(bump, bump.support[3]))


def rotation_sweep_value(bump, alpha):
    """Exact integral of ``bump`` over the four-lobe domain rotated by alpha.

    Piecewise in the quarter-turn offset: the sweep rises by the angular
    profile while a large lobe rotates across the bump support, then falls
    symmetrically, twice per full turn.
    """
    a = np.mod(np.asarray(alpha, dtype=float), 2.0 * math.pi)
    seg = np.floor(a / (0.5 * math.pi)).astype(int) % 4
    local = a - seg * (0.5 * math.pi)
    rising = angular_profile(bump, local)
    falling = angular_total(bump) - rising
    out = np.where(seg % 2 == 0, rising, falling)
    return float(out) if out.ndim == 0 else out


def add_at_load(mesh, pi, alpha0):
    """The boundary quadrature of the load's continuum limit, l[(i,a)] = integral
    of pi(R0 x) n_a phi_i over the boundary, two Gauss points per edge,
    scattered edge by edge with np.add.at: the boundary side of the
    divergence-form checks of `assemble_load`."""
    R = rotation(alpha0)
    points, normal = edge_rule(mesh, mesh.nodes, GAUSS)
    vals = np.asarray(pi.evaluate(points.reshape(-1, 2) @ R.T), dtype=float).reshape(points.shape[:2])
    coeff = np.einsum("e,q,eq,qi->ei", mesh.boundary_lengths, GAUSS[1], vals, GAUSS[0])
    load = np.zeros((mesh.n_nodes, 2))
    for local in range(2):
        nodes = mesh.boundary_edges[:, local]
        for a in range(2):
            np.add.at(load[:, a], nodes, coeff[:, local] * mesh.boundary_normals[:, a])
    return load.ravel()


def divergence_pair(mesh, pi, alpha0, u):
    """Two quadratures of the load's continuum limit: the boundary integral of
    pi(R0 x) n . u (`add_at_load`) and assemble_load . u, the first variation
    of the boundary work, which the divergence identity turns into the same
    integral as h -> 0."""
    u = np.ravel(np.asarray(u, dtype=float))
    return float(add_at_load(mesh, pi, alpha0) @ u), float(assemble_load(mesh, pi, alpha0) @ u)
