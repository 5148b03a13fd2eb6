"""P1 assembly and solve of the small-pressure limit energy

    E0(u) = 1/2 * integral of (c1 |sym grad u|^2 + c2 (div u)^2) + load . u

over displacements with zero lumped-mass average and zero mean skew gradient.
The quadratic form depends only on (mesh, material): one StiffnessPreconditioner
holds the stiffness and its factor, and `solve_linearized(factor, load)` takes
the load of one angle from `assemble_load` and runs CG preconditioned by the
factor; the nonlinear solver seeds L-BFGS with the same factor.  The load is
the first variation at R0 x of the pressure work that the nonlinear energy
and the rotation functional integrate (`pressure_cotangents`), so its
component along J x is the rotation functional's slope at R0; it is the one
discrete form of the load, and as h -> 0 it tends to the boundary integral
of pi(R0 x) n . u.  Every gather of a nodal field goes through one sparse P1
gather per mesh, and every adjoint through its transpose, a view of the same
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import TriMesh
from .material import MaterialModel, SKEW_GENERATOR, cofactor, det2, rotation
from .pressure import PressureField

_SHIFT = 0.05          # mass shift of the factored stiffness, in units of c1
_CG_REL_TOL = 1e-10
_CG_MAX_ITER = 300


class SolverError(RuntimeError):
    pass


class ProblemError(ValueError):
    """A problem the solvers do not take: a non-optimal identity, an inadmissible start."""


@dataclass
class DisplacementField:
    mesh: TriMesh
    values: np.ndarray  # (N, 2), gauged to zero lumped mean and zero mean skew gradient


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
    """The P1 gather (5M x N) as a CSR matrix, kept in ``mesh.tables``.

    Rows G_0, then G_1 (row t: d phi_i / d x_b at the corners i of triangle
    t), then the midpoints (row 3t + q: 0.5 at corners q and q + 1).  Each row
    sums in the order of fancy-indexed kernels (0.5 a + 0.5 b rounds like
    0.5 (a + b)), bit-identically; sort_indices or sum_duplicates would
    reorder the sums."""
    if "p1" not in mesh.tables:
        tris, m = mesh.triangles, len(mesh.triangles)
        corners, g = tris.ravel(), mesh.basis_gradients
        edge_ends = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).ravel()
        mesh.tables["p1"] = sp.csr_matrix(
            (np.concatenate([g[:, :, 0].ravel(), g[:, :, 1].ravel(), np.full(6 * m, 0.5)]),
             np.concatenate([corners, corners, edge_ends]),
             np.concatenate([3 * np.arange(2 * m), 6 * m + 2 * np.arange(3 * m + 1)])),
            shape=(5 * m, mesh.n_nodes))
    return mesh.tables["p1"]


def gather(mesh: TriMesh, y: np.ndarray):
    """From one product with the P1 gather: the component-major gradient f
    (2, 2, M), det (M,) and the values (3M, 2) at the interior rule points."""
    m = len(mesh.triangles)
    out = _p1_gather(mesh) @ np.asarray(y, dtype=float)
    f = out[:2 * m].T.reshape(2, 2, m)  # f[a, b] = (G_b @ y)[:, a], a view
    return f, det2(f), out[2 * m:]


def gather_transpose(mesh: TriMesh, f_bar: np.ndarray, q_bar: np.ndarray | None = None) -> np.ndarray:
    """The transpose of `gather`: the nodal field (N, 2) that pairs with y as
    the cotangents f_bar (2, 2, M), of the gradient, and q_bar (3M, 2), of the
    rule-point values (zero when not given), pair with gather(mesh, y).  The
    transpose, kept in ``mesh.tables``, is the gather's CSC view: it shares
    the gather's arrays and sums each node's terms in increasing gather-row
    order."""
    q_bar = np.zeros((3 * len(mesh.triangles), 2)) if q_bar is None else q_bar
    if "p1T" not in mesh.tables:
        mesh.tables["p1T"] = _p1_gather(mesh).T
    return mesh.tables["p1T"] @ np.concatenate([np.reshape(f_bar, (2, -1)).T, q_bar])


def pressure_cotangents(mesh: TriMesh, f: np.ndarray, det: np.ndarray, piy: np.ndarray,
                        gpiy: np.ndarray, scale: float):
    """The cotangents, for `gather_transpose`, of scale times the pressure
    work sum_q w_q pi(y_q) det F at a gather (f, det) whose rule points carry
    pi values piy (M, 3) and gradients gpiy (3M, 2): (scale sum_q w_q pi_q)
    cof F of the gradient and scale w_q det F grad pi_q of the rule points."""
    w = mesh.quadrature.interior_weights
    return (scale * np.sum(w * piy, axis=1)) * cofactor(f), np.reshape(scale * w * det[:, None], (-1, 1)) * gpiy


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
    """Limit load (2N,): the first variation at R0 x of the pressure work of
    `pressure_cotangents`, taken in the reference frame as its gradient at the
    identity map for the field pi(R0 .): l . u = sum_T s_T div u_T + sum_q w_q
    grad pi(R0 x_q) R0 u(x_q) with s_T = sum_q w_q pi(R0 x_q)."""
    R, m = rotation(alpha0), len(mesh.triangles)
    pts = mesh.interior_points_flat() @ R.T
    f_bar, q_bar = pressure_cotangents(mesh, np.repeat(np.eye(2)[:, :, None], m, axis=2), np.ones(m),
                                       np.reshape(pi.evaluate(pts), (m, 3)), pi.gradient(pts) @ R, 1.0)
    return gather_transpose(mesh, f_bar, q_bar).ravel()


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
    one angle under the gauge constraints: CG preconditioned by the factor.

    The load is projected onto the range of K by adding multiples of the
    constraint rows (lumped-mass resultant, then skew mean), so the gauged CG
    solution is the constrained minimizer.  Returns (DisplacementField, E0 =
    1/2 u.K u + load.u); E0 pairs that minimizer with the full load, so adding
    an infinitesimal rotation changes it exactly by load . (J x), the slope of
    the rotation functional at the load's angle.
    """
    mesh, K = factor.mesh, factor.stiffness
    jx = (mesh.nodes @ SKEW_GENERATOR.T).ravel()
    projected = project_gradient(mesh, load.reshape(mesh.n_nodes, 2)).ravel()
    skew_row = _skew_mean_row(mesh).ravel()
    projected -= (projected @ jx) / (skew_row @ jx) * skew_row
    b = -projected
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return DisplacementField(mesh, np.zeros((mesh.n_nodes, 2))), 0.0

    x = np.zeros_like(b)
    r = b.copy()
    z = factor.solve(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(_CG_MAX_ITER):
        Kp = K @ p
        alpha = rz / float(p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        if float(np.linalg.norm(r)) <= _CG_REL_TOL * bnorm:
            break
        z = factor.solve(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverError(f"conjugate gradient did not converge in {_CG_MAX_ITER} iterations")

    u = apply_gauge(mesh, x.reshape(mesh.n_nodes, 2))
    flat = u.ravel()
    return DisplacementField(mesh, u), float(0.5 * flat @ (K @ flat) + load @ flat)
