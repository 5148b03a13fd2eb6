"""P1 assembly and solve of the small-pressure limit energy

    E0(u) = 1/2 * integral of (c1 |sym grad u|^2 + c2 (div u)^2) + load . u

over displacements with zero lumped-mass average and zero mean skew gradient.
The quadratic form depends only on (mesh, material): one StiffnessPreconditioner
holds the stiffness and its factor, and `solve_linearized(factor, load)` takes
the load of one angle from `assemble_load` and runs scipy's CG preconditioned
by the factor; the nonlinear solver seeds L-BFGS with the same factor.  The
pressure work, which the nonlinear energy and the load read, is one boundary
sum (`pressure_work`).  The load is its first variation at R0 x, so its
component along J x is the slope of the rotation functional, the same work
at R(alpha) x.  Every gather of a nodal gradient goes through one sparse P1
gather per mesh, and every adjoint through its transpose, a view of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import SIMPSON, TriMesh, edge_rule
from .material import MaterialModel, SKEW_GENERATOR, det2, rotation
from .pressure import PressureField

_SHIFT = 0.05          # mass shift of the factored stiffness, in units of c1
_CG_REL_TOL = 1e-10
_CG_MAX_ITER = 300


class SolverError(RuntimeError):
    pass


class ProblemError(ValueError):
    """A problem the solvers do not take: a non-optimal identity, an inadmissible start."""


def assemble_stiffness(mesh: TriMesh, material: MaterialModel) -> sp.csr_matrix:
    """Sparse symmetric operator with u^T K u = integral of the strain quadratic form:
    K = B^T W B with the strain operator B (4M x 2N), whose row blocks e11, e22,
    e12 and div take the corners' basis gradients, and W = diag(c1 A, c1 A,
    2 c1 A, c2 A), A the triangle areas."""
    tris, g, m = mesh.triangles, mesh.basis_gradients, len(mesh.triangles)
    gx, gy, cx, cy = g[:, :, 0], g[:, :, 1], 2 * tris, 2 * tris + 1
    # e11 = d1 u1, e22 = d2 u2 (3 entries a row), e12 = (d2 u1 + d1 u2) / 2, div = d1 u1 + d2 u2 (6)
    data = np.concatenate([gx, gy, 0.5 * np.hstack([gy, gx]), np.hstack([gx, gy])], axis=None)
    cols = np.concatenate([cx, cy, np.hstack([cx, cy]), np.hstack([cx, cy])], axis=None)
    indptr = np.concatenate([3 * np.arange(2 * m), 6 * m + 6 * np.arange(2 * m + 1)])
    a, c1 = mesh.areas, material.c1
    w = np.repeat(np.concatenate([c1 * a, c1 * a, 2.0 * c1 * a, material.c2 * a]), np.diff(indptr))
    B, WB = (sp.csr_matrix((v, cols, indptr), shape=(4 * m, 2 * mesh.n_nodes)) for v in (data, w * data))
    return (B.T @ WB).tocsr()


class StiffnessPreconditioner:
    """The stiffness K of one (mesh, material), assembled once, and the LU
    factor of K + shift * c1 * (lumped mass), which removes the rigid kernel.

    It preconditions the linearized solve, and near a rigid state, where the
    energy Hessian is the frame-rotated stiffness, applying it in the start
    frame makes the first quasi-Newton step essentially a Newton step.
    """

    def __init__(self, mesh: TriMesh, material: MaterialModel):
        # imported here, not with the module: scipy.sparse.linalg (with
        # scipy.linalg) takes 45-80 ms of a fresh gamma-study round on disk 16,
        # which a command that never factors (scan-rotations) would pay too
        from scipy.sparse.linalg import splu

        self.stiffness = assemble_stiffness(mesh, material)
        mass2 = np.repeat(mesh.node_masses, 2)
        # minimum degree on K + K^T: half the fill of the default ordering
        self._lu = splu((self.stiffness + _SHIFT * material.c1 * sp.diags(mass2)).tocsc(),
                        permc_spec="MMD_AT_PLUS_A")
        self.mesh, self.n = mesh, mesh.n_nodes

    def solve(self, v: np.ndarray, frame_angle: float = 0.0) -> np.ndarray:
        if frame_angle == 0.0:
            return self._lu.solve(v)
        R = rotation(frame_angle)
        vin = (v.reshape(self.n, 2) @ R).ravel()  # rotate into the reference frame
        out = self._lu.solve(vin)
        return (out.reshape(self.n, 2) @ R.T).ravel()


def _p1_gather(mesh: TriMesh) -> sp.csr_matrix:
    """The P1 gather (2M x N) as a CSR matrix, kept in ``mesh.tables``: rows
    G_0, then G_1 (row t: d phi_i / d x_b at the corners i of triangle t),
    each summed in the order of fancy-indexed kernels, bit-identically;
    sort_indices or sum_duplicates would reorder the sums."""
    if "p1" not in mesh.tables:
        tris, m = mesh.triangles, len(mesh.triangles)
        corners, g = tris.ravel(), mesh.basis_gradients
        mesh.tables["p1"] = sp.csr_matrix(
            (np.concatenate([g[:, :, 0].ravel(), g[:, :, 1].ravel()]), np.concatenate([corners, corners]),
             3 * np.arange(2 * m + 1)), shape=(2 * m, mesh.n_nodes))
    return mesh.tables["p1"]


def gather(mesh: TriMesh, y: np.ndarray):
    """From one product with the P1 gather: the component-major gradient f
    (2, 2, M) and det (M,)."""
    m = len(mesh.triangles)
    out = _p1_gather(mesh) @ np.asarray(y, dtype=float)
    f = out.T.reshape(2, 2, m)  # f[a, b] = (G_b @ y)[:, a], a view
    return f, det2(f)


def gather_transpose(mesh: TriMesh, f_bar: np.ndarray) -> np.ndarray:
    """The transpose of `gather`: the nodal field (N, 2) that pairs with y as
    the cotangent f_bar (2, 2, M) of the gradient pairs with gather(mesh, y).
    The transpose, kept in ``mesh.tables``, is the gather's CSC view: it
    shares the gather's arrays and sums each node's terms in increasing
    gather-row order."""
    if "p1T" not in mesh.tables:
        mesh.tables["p1T"] = _p1_gather(mesh).T
    return mesh.tables["p1T"] @ np.reshape(f_bar, (2, -1)).T


@dataclass(frozen=True)
class PressureWork:
    """The boundary pressure work W(y) = sum over the boundary edges (a, b) of
    N(y_b - y_a) . sum_g w_g Phi(y_g), Simpson's points y_g and weights w_g,
    of a nodal map y: by the Piola identity the integral of pi(y) det grad y,
    exact for constant pressure."""
    phi: np.ndarray     # (B, 3, 2) Phi at the mapped rule points
    jac: np.ndarray     # (B, 3, 2, 2) its Jacobian there
    normal: np.ndarray  # (B, 2) N(y_b - y_a)
    phi_x: np.ndarray   # Phi and N(x_b - x_a) of the reference
    normal_x: np.ndarray

    def change(self) -> float:
        """W(y) - W(x), summed as w_g (Phi(y_g) . N(dy - dx) + (Phi(y_g) - Phi(x_g)) . N(dx))
        so that neither part cancels near the reference."""
        terms = self.phi * (self.normal - self.normal_x)[:, None] + (self.phi - self.phi_x) * self.normal_x[:, None]
        return float(SIMPSON[1] @ np.sum(terms, axis=(0, 2)))

    def size(self) -> float:
        """The sum of the magnitudes of the terms of `change`, which bounds their rounding."""
        phi, moved = np.abs(self.phi), np.abs(self.normal - self.normal_x)[:, None]
        terms = phi * moved + (phi + np.abs(self.phi_x)) * np.abs(self.normal_x)[:, None]
        return float(SIMPSON[1] @ np.sum(terms, axis=(0, 2)))

    def gradient(self, mesh: TriMesh) -> np.ndarray:
        """dW/dy (N, 2): w_g J(y_g)^T N(dy) spread onto the edge's ends by the
        rule's barycentric coordinates, and -+ N^T sum_g w_g Phi(y_g)."""
        bary, weights = SIMPSON
        jac_t_normal = self.jac[:, :, 0] * self.normal[:, None, :1] + self.jac[:, :, 1] * self.normal[:, None, 1:]
        ends = bary.T @ (weights[:, None] * jac_t_normal)
        along = (weights @ self.phi) @ SKEW_GENERATOR.T  # N^T v = J v
        ends += np.stack([-along, along], axis=1)
        nodes = mesh.boundary_edges.ravel()
        return np.stack([np.bincount(nodes, weights=ends[..., j].ravel(), minlength=mesh.n_nodes)
                         for j in range(2)], axis=1)


def pressure_work(mesh: TriMesh, pi: PressureField, y: np.ndarray) -> PressureWork:
    """The boundary pressure work of pi at y, against that at x, whose Phi is
    kept in ``mesh.tables`` per mesh and field."""
    key = ("reference", pi.potential)
    if key not in mesh.tables:
        points, nx = edge_rule(mesh, mesh.nodes, SIMPSON)
        mesh.tables[key] = pi.potential(points.reshape(-1, 2))[0].reshape(points.shape), nx
    points, ny = edge_rule(mesh, np.asarray(y, dtype=float), SIMPSON)
    phi, jac = pi.potential(points.reshape(-1, 2))
    return PressureWork(phi.reshape(points.shape), jac.reshape(points.shape + (2,)), ny, *mesh.tables[key])


def zero_average(mesh: TriMesh, field: np.ndarray) -> np.ndarray:
    """Subtract the lumped-mass mean from a nodal vector field."""
    mean = mesh.node_masses @ field / mesh.total_mass
    return field - mean


def project_gradient(mesh: TriMesh, grad: np.ndarray) -> np.ndarray:
    """Differential restricted to the zero-average subspace.

    Chain rule through the mass-mean shift: the output has no net component
    along uniform translations.
    """
    total = grad.sum(axis=0)
    return grad - np.outer(mesh.node_masses / mesh.total_mass, total)


def assemble_load(mesh: TriMesh, pi: PressureField, alpha0: float) -> np.ndarray:
    """Limit load (2N,): the first variation at R0 x of the boundary pressure
    work (`pressure_work`), its gradient there turned back into the reference
    frame.  A field whose polar rate is a number, with no support sector, is
    radially symmetric: its load is that of angle 0 at every angle, bit for
    bit.  A field without polar factors (an extension) is rotated."""
    symmetric = pi.polar is not None and pi.support is None and not callable(pi.polar.rate)
    R = np.eye(2) if symmetric else rotation(alpha0)
    return (pressure_work(mesh, pi, mesh.nodes @ R.T).gradient(mesh) @ R).ravel()


def _skew_mean_row(mesh: TriMesh) -> np.ndarray:
    """Mean antisymmetric part of grad u, 1/2 integral of (d1 u2 - d2 u1), as a
    nodal field (N, 2): the transpose of the area-weighted skew cotangent."""
    return gather_transpose(mesh, SKEW_GENERATOR[:, :, None] * (0.5 * mesh.areas))


def skew_mean(mesh: TriMesh, u: np.ndarray) -> float:
    """The functional of `_skew_mean_row` at the nodal field u."""
    return float(_skew_mean_row(mesh).ravel() @ np.ravel(u))


def apply_gauge(mesh: TriMesh, u: np.ndarray) -> np.ndarray:
    """Remove the infinitesimal rotation so the mean skew gradient vanishes,
    then re-zero the average (the rotation field itself has zero average)."""
    omega = skew_mean(mesh, u) / mesh.total_area
    return zero_average(mesh, u - omega * (mesh.nodes @ SKEW_GENERATOR.T))


def solve_linearized(factor: StiffnessPreconditioner, load: np.ndarray):
    """Minimize E0 with the stiffness of ``factor`` and the (2N,) ``load`` of
    one angle under the gauge constraints: scipy's CG, preconditioned by the
    factor, to relative residual _CG_REL_TOL; SolverError past _CG_MAX_ITER.

    The load is projected onto the range of K by adding multiples of the
    constraint rows (lumped-mass resultant, then skew mean), so the gauged CG
    solution is the constrained minimizer.  Returns (u (N, 2), E0 = 1/2 u.K u
    + load.u); E0 pairs that minimizer with the full load, so adding an
    infinitesimal rotation changes it exactly by load . (J x), the slope of
    the rotation functional at the load's angle.
    """
    mesh, K = factor.mesh, factor.stiffness
    jx = (mesh.nodes @ SKEW_GENERATOR.T).ravel()
    projected = project_gradient(mesh, load.reshape(mesh.n_nodes, 2)).ravel()
    skew_row = _skew_mean_row(mesh).ravel()
    projected -= (projected @ jx) / (skew_row @ jx) * skew_row
    if np.linalg.norm(projected) == 0.0:  # cg would return -projected, signed zeros
        return np.zeros((mesh.n_nodes, 2)), 0.0
    # imported here for the reason given in StiffnessPreconditioner.__init__;
    # dtype=float spares LinearOperator a probing application of the factor
    from scipy.sparse.linalg import LinearOperator, cg

    x, info = cg(K, -projected, rtol=_CG_REL_TOL, atol=0.0, maxiter=_CG_MAX_ITER,
                 M=LinearOperator(K.shape, matvec=factor.solve, dtype=float))
    if info != 0:
        raise SolverError(f"conjugate gradient did not converge in {_CG_MAX_ITER} iterations")
    u = apply_gauge(mesh, x.reshape(mesh.n_nodes, 2))
    flat = u.ravel()
    return u, float(0.5 * flat @ (K @ flat) + load @ flat)
