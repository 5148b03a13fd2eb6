import numpy as np
import pytest

from pressurelab import DomainSpec, MaterialModel, TriMesh, build_domain, rotations
from pressurelab.material import SKEW_GENERATOR, rotation


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


# Oracles that only tests read: the rotation layer's support rows, the interior
# form of its stationarity residual and a finite-difference Hessian of a field.


def support_rows(mesh, pi, alpha, boundary=False):
    """Rows of the interior (or boundary) rule that R(alpha) can carry into the support of pi:
    every row, in mesh order, when pi declares no support."""
    if pi.support is None:
        return slice(None)
    table = rotations._rule_table(mesh, pi, boundary)
    return rotations._take(table.rows, rotations._segments(table, pi, np.array([alpha], dtype=float))[0])


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
