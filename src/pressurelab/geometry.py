"""Structured triangulations of the disk, annulus, and four-lobe test domains.

All meshes are polar grids of m radial rings whose quads are split into
triangle pairs; nodes sit on the exact circles, so curved boundaries become
inscribed polygons.  The annulus and the four-lobe's extension keep the
boundary's 4 ceil(pi m / 2) nodes on every ring.  The disk, which is also the
four-lobe's core, is graded: going inward, a ring takes half the count of the
ring outside it while that count is even and the halved angular spacing stays
within 1.5 radial steps, and a ring of twice the count of the one inside it
is joined to it by three triangles per inner segment.  Its outer ring, and so
the boundary polygon, is that of uniform rings: disk 16/32/64 has 846/3,469/
13,737 nodes (1,665/6,529/25,857 with uniform rings), four-lobe 16/64
1,710/26,793 (2,529/38,913).  The ring counts do not nest under refinement
(51/102/204 at resolution 32, 101/202/404 at 64); nesting needs another outer
count.  `build_domain` translates the result so that the lumped-mass
barycenter is the origin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """Invalid domain specification or degenerate mesh."""


@dataclass(frozen=True)
class DomainSpec:
    """Parametric description of one of the three supported domains.

    kind is one of "disk", "annulus", "four_lobe"; resolution counts radial
    elements across the characteristic radius (disk radius, annulus thickness,
    or the small lobe radius).
    """

    kind: str
    resolution: int
    radius: float = 1.0
    r_inner: float = 1.0
    r_outer: float = 2.0
    r_small: float = 1.0
    r_large: float = 2.0

    # The radius defaults of the constructors below are the fields' own, read in the class body.
    @classmethod
    def disk(cls, radius: float = radius, resolution: int = 32) -> "DomainSpec":
        return cls(kind="disk", resolution=resolution, radius=radius)

    @classmethod
    def annulus(cls, r_inner: float, r_outer: float, resolution: int = 32) -> "DomainSpec":
        return cls(kind="annulus", resolution=resolution, r_inner=r_inner, r_outer=r_outer)

    @classmethod
    def four_lobe(cls, r_small: float = r_small, r_large: float = r_large, resolution: int = 32) -> "DomainSpec":
        return cls(kind="four_lobe", resolution=resolution, r_small=r_small, r_large=r_large)

    @classmethod
    def from_config(cls, section: dict) -> "DomainSpec":
        """The spec of a config's `domain` section; a param it omits keeps the field default."""
        params = {key: float(value) for key, value in (section.get("params") or {}).items()}
        return cls(kind=section["kind"], resolution=int(section["resolution"]), **params)

    def validate(self) -> None:
        if self.kind not in ("disk", "annulus", "four_lobe"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.resolution < 2:
            raise DomainError("resolution must be at least 2")
        if self.kind == "disk" and self.radius <= 0:
            raise DomainError("disk radius must be positive")
        if self.kind == "annulus":
            if self.r_inner <= 0 or self.r_outer <= 0:
                raise DomainError("annulus radii must be positive")
            if self.r_inner >= self.r_outer:
                raise DomainError("annulus requires r_inner < r_outer")
        if self.kind == "four_lobe":
            if self.r_small <= 0 or self.r_large <= 0:
                raise DomainError("four_lobe radii must be positive")
            if self.r_small >= self.r_large:
                raise DomainError("four_lobe requires r_small < r_large")

    @property
    def outer_radius(self) -> float:
        return {"disk": self.radius, "annulus": self.r_outer, "four_lobe": self.r_large}[self.kind]

    @property
    def inner_radius(self) -> float:
        """Radius of the largest origin-centered disk avoiding the closure (0 unless annulus)."""
        return self.r_inner if self.kind == "annulus" else 0.0


# Two rules, exact for cubics, on every boundary edge (a, b): barycentric
# coordinates of their points in (a, b), and weights summing to one.  The
# pressure work reads Simpson's: at the corners a rotation that carries one
# into an angular support registers at once, not after 0.21 of an edge.  Only
# the rotation residuals read Gauss's.
_GAUSS_T = 0.5 / math.sqrt(3.0)
GAUSS = (np.array([[0.5 + _GAUSS_T, 0.5 - _GAUSS_T], [0.5 - _GAUSS_T, 0.5 + _GAUSS_T]]), np.array([0.5, 0.5]))
SIMPSON = (np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]), np.array([1.0, 4.0, 1.0]) / 6.0)


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangulation with precomputed P1 and boundary data, every
    array read-only.  The basis gradients are built on first use, like
    `tables`: only the stiffness and the P1 gather read them, a scan never."""

    nodes: np.ndarray             # (N, 2)
    triangles: np.ndarray         # (M, 3) int, counterclockwise
    areas: np.ndarray             # (M,)
    node_masses: np.ndarray       # (N,) lumped row-sum masses
    boundary_edges: np.ndarray    # (B, 2) int node pairs, each counterclockwise around its triangle
    diameter: float

    @classmethod
    def from_arrays(cls, nodes: np.ndarray, triangles: np.ndarray) -> "TriMesh":
        nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
        triangles = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise DomainError("nodes must be an (N, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise DomainError("triangles must be an (M, 3) array")

        areas, masses = _areas_and_masses(nodes, triangles)
        b_edges = _extract_boundary(nodes, triangles)
        x, y = nodes.T
        diameter = float(np.hypot(x.max() - x.min(), y.max() - y.min()))

        for arr in (nodes, triangles, areas, masses, b_edges):
            arr.setflags(write=False)
        return cls(nodes=nodes, triangles=triangles, areas=areas, node_masses=masses, boundary_edges=b_edges,
                   diameter=diameter)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @property
    def total_mass(self) -> float:
        return float(self.node_masses.sum())

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """d phi_i / d x_b (M, 3, 2) at corner i of each triangle: the edge
        opposite i, from corner i + 1 to i + 2, turned by pi/2 over twice the area."""
        x, y = (c[self.triangles.T] for c in self.nodes.T)
        ex, ey = (c[[2, 0, 1]] - c[[1, 2, 0]] for c in (x, y))
        grads = np.empty((len(self.triangles), 3, 2))
        grads[..., 0], grads[..., 1] = -ey.T, ex.T
        grads /= (2.0 * self.areas)[:, None, None]
        grads.setflags(write=False)
        return grads

    @cached_property
    def tables(self) -> dict:
        """Tables derived from this mesh by the modules that read them, built on
        first use and kept with the mesh: the rotation layer's band table and
        weights, the solvers' sparse P1 gather and its transpose, a CSC view
        of the gather's own arrays that serves every adjoint, and the
        pressure potential at the reference boundary points, keyed by the
        field's ``potential``."""
        return {}


def _areas_and_masses(nodes: np.ndarray, triangles: np.ndarray):
    """Areas and lumped row-sum node masses of a triangulation.

    Raises DomainError unless every triangle has positive signed area.
    """
    (x0, x1, x2), (y0, y1, y2) = (c[triangles.T] for c in nodes.T)
    areas = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    if np.any(areas <= 0.0):
        bad = int(np.sum(areas <= 0.0))
        raise DomainError(f"{bad} triangles have non-positive signed area")
    masses = np.bincount(triangles.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=len(nodes))
    return areas, masses


def _extract_boundary(nodes: np.ndarray, triangles: np.ndarray):
    """Edges referenced by exactly one triangle, each as it runs around that
    triangle, so that its right-hand normal points out."""
    # edge 3 t + k runs from corner k of triangle t to corner k + 1
    a, b = triangles.ravel(), np.roll(triangles, -1, axis=1).ravel()
    # one key per undirected edge; a stable sort keeps equal keys in row order
    key = np.minimum(a, b) * len(nodes) + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    differs = np.diff(key[order]) != 0
    single = np.ones(len(order), dtype=bool)
    single[1:] &= differs
    single[:-1] &= differs
    boundary_rows = np.sort(order[single])  # deterministic: construction order

    return np.stack([a[boundary_rows], b[boundary_rows]], axis=1)


def edge_rule(mesh: TriMesh, y: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """The points (B, k, 2) of `rule` on the boundary edges (a, b) under the
    nodal map y, and N(y_b - y_a) = (dy2, -dy1) (B, 2), the outward normal of
    the mapped edge times its length."""
    ends = y[mesh.boundary_edges]
    ya, yb = ends[:, 0], ends[:, 1]
    dy = yb - ya
    return np.stack([wa * ya + wb * yb for wa, wb in rule[0]], axis=1), np.stack([dy[:, 1], -dy[:, 0]], axis=1)


def _angular_quarter(resolution: int) -> int:
    return int(math.ceil(0.5 * math.pi * resolution))


def _ring_nodes(radii: np.ndarray, ks: np.ndarray, n_angular: int) -> np.ndarray:
    """Nodes at angles 2 pi k / n_angular on each circle, ring by ring."""
    t = 2.0 * math.pi * ks / n_angular
    r = np.asarray(radii, dtype=float)[:, None]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(-1, 2)


def _quad_strip(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Triangle pairs (a, b, c), (a, c, d) of the quads between rows of node indices.

    inner[..., k], inner[..., k+1] and outer[..., k], outer[..., k+1] are the
    corners a, d and b, c of quad k; the pairs follow the rows' order.
    """
    a, d = inner[..., :-1], inner[..., 1:]
    b, c = outer[..., :-1], outer[..., 1:]
    return np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)], axis=-2).reshape(-1, 3)


def _ring_counts(resolution: int) -> list[int]:
    """Node counts of the disk's rings 1..m, the outer one 4 ceil(pi m / 2).

    Going inward, ring j takes half the count n of the ring outside it when n
    is even and the halved angular spacing stays within 1.5 radial steps,
    2 pi j / (n / 2) <= 1.5; otherwise it keeps n.
    """
    counts = [4 * _angular_quarter(resolution)]
    for j in range(resolution - 1, 0, -1):
        n = counts[-1]
        counts.append(n // 2 if n % 2 == 0 and 2.0 * math.pi * j / (n // 2) <= 1.5 else n)
    return counts[::-1]


def _halving_strip(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Triangles (a, b, e), (a, e, d), (d, e, c) between a closed row of node
    indices and the closed row outside it, which has twice its segments.

    a, d are inner[k], inner[k+1] and b, e, c are outer[2k], outer[2k+1],
    outer[2k+2]: node k of the inner ring sits at the angle of node 2k.
    """
    a, d = inner[:-1], inner[1:]
    b, e, c = outer[:-2:2], outer[1::2], outer[2::2]
    return np.stack([np.stack(t, axis=-1) for t in ((a, b, e), (a, e, d), (d, e, c))], axis=-2).reshape(-1, 3)


def _polar_disk(radius: float, resolution: int):
    m = resolution
    parts, tris = [np.zeros((1, 2))], []
    first, j, inner = 1, 1, None  # next node index, first ring of the run, closed row inside it
    for n, run in itertools.groupby(_ring_counts(m)):
        size = len(list(run))
        ks = np.arange(n)
        parts.append(_ring_nodes(radius * np.arange(j, j + size) / m, ks, n))
        # node index of the run's ring i at angle k, with column n closing the ring
        ring = first + np.arange(size)[:, None] * n + np.append(ks, 0)[None, :]
        if inner is None:
            tris.append(np.stack([np.zeros(n, dtype=np.int64), ring[0, :-1], ring[0, 1:]], axis=1))
        else:
            tris.append(_halving_strip(inner, ring[0]))
        tris.append(_quad_strip(ring[:-1], ring[1:]))
        first, j, inner = first + size * n, j + size, ring[-1]
    return np.vstack(parts), np.vstack(tris)


def _polar_annulus(r_inner: float, r_outer: float, resolution: int):
    m = resolution
    n_a = 4 * _angular_quarter(resolution)
    ks = np.arange(n_a)
    nodes = _ring_nodes(np.linspace(r_inner, r_outer, m + 1), ks, n_a)
    ring = np.arange(m + 1)[:, None] * n_a + np.append(ks, 0)[None, :]
    return nodes, _quad_strip(ring[:-1], ring[1:])


def _four_lobe(r_small: float, r_large: float, resolution: int):
    # Small lobes occupy the angular quadrants [0, pi/2] and [pi, 3pi/2]: the
    # disk of radius r_small.  Rings beyond it extend the other two quadrants
    # radially to r_large.
    m = resolution
    n_q = _angular_quarter(resolution)
    n_a = 4 * n_q
    disk_nodes, disk_tris = _polar_disk(r_small, resolution)
    m_ext = max(1, round((r_large - r_small) / (r_small / m)))
    ext_radii = np.linspace(r_small, r_large, m_ext + 1)[1:]
    # angles k of the two extended quadrants, endpoints included: (sector, k)
    ext_ks = np.stack([np.arange(n_q, 2 * n_q + 1), np.arange(3 * n_q, 4 * n_q + 1)])
    nodes = _ring_nodes(ext_radii, ext_ks.reshape(-1), n_a)
    # node indices of ring jj (0 is the disk's outer ring), sector, k
    rings = np.empty((len(ext_radii) + 1,) + ext_ks.shape, dtype=np.int64)
    rings[0] = len(disk_nodes) - n_a + ext_ks % n_a
    rings[1:] = (len(disk_nodes) + np.arange(ext_ks.size).reshape(ext_ks.shape)
                 + ext_ks.size * np.arange(len(ext_radii))[:, None, None])
    return np.vstack([disk_nodes, nodes]), np.vstack([disk_tris, _quad_strip(rings[:-1], rings[1:])])


def build_domain(spec: DomainSpec) -> TriMesh:
    """Build the triangulation of the requested domain, barycenter-normalized."""
    spec.validate()
    if spec.kind == "disk":
        nodes, tris = _polar_disk(spec.radius, spec.resolution)
    elif spec.kind == "annulus":
        nodes, tris = _polar_annulus(spec.r_inner, spec.r_outer, spec.resolution)
    else:
        nodes, tris = _four_lobe(spec.r_small, spec.r_large, spec.resolution)
    # one mesh build: the barycenter of the raw nodes comes from their masses alone
    center = _mass_center(nodes, _areas_and_masses(nodes, tris)[1])
    if np.hypot(*center) > 0.0:
        nodes = nodes - center
    mesh = TriMesh.from_arrays(nodes, tris)
    residual = np.hypot(*barycenter(mesh))
    if residual > 1e-12 * mesh.diameter:
        raise DomainError(f"barycenter normalization failed (residual {residual:.3e})")
    return mesh


def _mass_center(nodes: np.ndarray, masses: np.ndarray) -> np.ndarray:
    return np.asarray(masses @ nodes / float(masses.sum()))


def barycenter(mesh: TriMesh) -> np.ndarray:
    """Lumped-mass weighted mean of the nodes."""
    return _mass_center(mesh.nodes, mesh.node_masses)
