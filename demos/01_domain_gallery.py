"""Build the three supported domains and look at their basic geometry.

Each mesh is a structured polar triangulation, translated so the lumped-mass
barycenter sits at the origin.  The disk and the four-lobe's core are graded:
their ring counts halve toward the center, while the outer ring, and so the
boundary polygon, is that of uniform rings (disk 32: 3,469 nodes, four-lobe
32: 6,797, against 6,529 and 9,857 with uniform rings).  The four-lobe domain alternates small and
large quarter-disk lobes, which is what makes rotating it past a localized
pressure field energetically interesting.
"""

import json

import numpy as np

from pressurelab import DomainSpec, barycenter, build_domain
from pressurelab.geometry import GAUSS, edge_rule


def boundary_flux(mesh, field):
    """Integral of field(x) . n over the boundary polygon, by the two-point
    Gauss rule per edge; edge_rule's N(x_b - x_a) is n times the edge length."""
    points, normal = edge_rule(mesh, mesh.nodes, GAUSS)
    return float(np.einsum("egi,g,ei->", field(points), GAUSS[1], normal))

specs = {
    "disk": DomainSpec.disk(1.0, 32),
    "annulus": DomainSpec.annulus(1.0, 2.0, 32),
    "four_lobe": DomainSpec.four_lobe(resolution=32),
}
exact_area = {"disk": np.pi, "annulus": 3 * np.pi, "four_lobe": 2.5 * np.pi}

for name, spec in specs.items():
    mesh = build_domain(spec)
    perimeter = np.hypot(*edge_rule(mesh, mesh.nodes, GAUSS)[1].T).sum()
    print(f"{name:10s} nodes={mesh.n_nodes:6d} triangles={len(mesh.triangles):6d} "
          f"area={mesh.total_area:.6f} (exact {exact_area[name]:.6f}) "
          f"perimeter={perimeter:.4f} |barycenter|={np.hypot(*barycenter(mesh)):.2e}")

# the divergence theorem closes exactly for affine fields on any of the meshes
mesh = build_domain(specs["four_lobe"])
A = np.array([[0.3, -1.1], [0.7, 0.4]])
flux = boundary_flux(mesh, lambda p: p @ A.T)
print(f"\naffine flux check: boundary={flux:.12f}  interior={np.trace(A) * mesh.total_area:.12f}")

with open("four_lobe_mesh.json", "w") as fh:
    coarse = build_domain(DomainSpec.four_lobe(resolution=8))
    json.dump({"nodes": coarse.nodes.tolist(), "triangles": coarse.triangles.tolist()}, fh)
print("wrote four_lobe_mesh.json (coarse debug dump)")
