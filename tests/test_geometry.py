import math
from functools import partial

import numpy as np
import pytest

from pressurelab import DomainSpec, TriMesh, barycenter, build_domain
from pressurelab.geometry import (GAUSS, SIMPSON, DomainError, _angular_quarter, _four_lobe, _polar_annulus, _polar_disk,
                                  _ring_counts, edge_rule)

from conftest import boundary_quadrature, interior_rule, row_major_arrays, translated


def interior_integral(mesh, integrand):
    """Integrate ``integrand(points)`` over the mesh with the interior rule of `conftest.interior_rule`."""
    pts, weights, _ = interior_rule(mesh)
    return float(weights.ravel() @ np.asarray(integrand(pts.reshape(-1, 2)), dtype=float))


def test_disk_area_close_to_analytic(disk32):
    assert abs(disk32.total_area - np.pi) / np.pi < 0.005


def test_annulus_area_close_to_analytic(annulus32):
    assert abs(annulus32.total_area - 3.0 * np.pi) / (3.0 * np.pi) < 0.005


def test_four_lobe_barycenter_vanishes_before_translation():
    # central symmetry of the construction
    nodes, tris = _four_lobe(1.0, 2.0, 12)
    raw = TriMesh.from_arrays(nodes, tris)
    assert np.hypot(*barycenter(raw)) <= 1e-12 * raw.diameter


def test_normalized_barycenter(disk32, annulus32, lobe16):
    for mesh in (disk32, annulus32, lobe16):
        assert np.hypot(*barycenter(mesh)) <= 1e-12 * mesh.diameter


def test_barycenter_translates_linearly(disk16):
    t = np.array([0.37, -1.2])
    shifted = translated(disk16, t)
    assert np.allclose(barycenter(shifted), t, atol=1e-12)


def test_unit_square_barycenter(square_mesh):
    # direct lumped-mass computation: masses (1/3, 1/6, 1/3, 1/6)
    assert np.allclose(barycenter(square_mesh), [0.5, 0.5], atol=1e-15)


def test_positive_orientation(disk32, annulus32, lobe32):
    for mesh in (disk32, annulus32, lobe32):
        assert np.all(mesh.areas > 0.0)


def test_boundary_normals_unit_and_outward(lobe16):
    # edge_rule's N(x_b - x_a) is the edge's length times a unit normal
    _, normal = edge_rule(lobe16, lobe16.nodes, SIMPSON)
    a, b = lobe16.nodes[lobe16.boundary_edges[:, 0]], lobe16.nodes[lobe16.boundary_edges[:, 1]]
    assert np.allclose(np.hypot(normal[:, 0], normal[:, 1]), np.hypot(*(b - a).T), rtol=1e-15, atol=0.0)
    # outwardness: positive dot with the vector from the owning centroid to the edge midpoint
    edge_sets = [frozenset(e) for e in lobe16.boundary_edges.tolist()]
    owner_centroid = {}
    for tri in lobe16.triangles:
        t = tri.tolist()
        for pair in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            owner_centroid[frozenset(pair)] = lobe16.nodes[t].mean(axis=0)
    mids = 0.5 * (lobe16.nodes[lobe16.boundary_edges[:, 0]] + lobe16.nodes[lobe16.boundary_edges[:, 1]])
    for k, key in enumerate(edge_sets):
        assert normal[k] @ (mids[k] - owner_centroid[key]) > 0.0


def _assert_matches_row_major(mesh, want):
    for name, value in want.items():
        got = getattr(mesh, name)
        assert np.asarray(got).dtype == np.asarray(value).dtype and np.array_equal(got, value), name
        assert name == "diameter" or not got.flags.writeable, name


def test_given_mesh_arrays_equal_the_row_major_oracle(disk16, square_mesh):
    # the square as given, and the disk with its triangles in reverse order
    for mesh in (square_mesh, TriMesh.from_arrays(disk16.nodes, disk16.triangles[::-1])):
        _assert_matches_row_major(mesh, row_major_arrays(mesh.nodes, mesh.triangles))


def test_four_lobe_radii_by_quadrant(lobe16):
    theta = np.mod(np.arctan2(lobe16.nodes[:, 1], lobe16.nodes[:, 0]), 2 * np.pi)
    rho = np.hypot(lobe16.nodes[:, 0], lobe16.nodes[:, 1])
    assert rho.max() <= 2.0 + 1e-12
    # nodes beyond the small radius live in the closed large-lobe sectors
    eps = 1e-9
    outside = rho > 1.0 + 1e-12
    in_large = (((theta >= np.pi / 2 - eps) & (theta <= np.pi + eps))
                | (theta >= 3 * np.pi / 2 - eps) | (theta <= eps))
    assert np.all(in_large[outside])
    # both lobe radii are realized
    assert rho[outside].max() > 1.99
    small_interior = (theta > 0.1) & (theta < np.pi / 2 - 0.1)
    assert 0.99 < rho[small_interior].max() <= 1.0 + 1e-12


def test_perimeter_of_disk(disk32):
    per = boundary_quadrature(disk32, lambda p, n: np.hypot(n[:, 0], n[:, 1]))
    assert abs(per - 2.0 * np.pi) / (2.0 * np.pi) < 0.01


def test_zero_integrand(disk16):
    assert boundary_quadrature(disk16, lambda p, n: np.zeros(len(p))) == 0.0


def test_normal_dot_position_gives_twice_area(disk32):
    val = boundary_quadrature(disk32, lambda p, n: np.einsum("ij,ij->i", p, n))
    two_area = interior_integral(disk32, lambda p: np.full(len(p), 2.0))
    assert abs(val - two_area) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_divergence_closure_affine_fields(lobe16, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    lhs = boundary_quadrature(lobe16, lambda p, n: np.einsum("ij,ij->i", p @ A.T + b, n))
    rhs = np.trace(A) * lobe16.total_area
    size = np.abs(A).sum() + np.abs(b).sum()
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + size)


def test_refinement_improves_disk_area():
    errs = []
    for res in (16, 32, 64):
        mesh = build_domain(DomainSpec.disk(1.0, res))
        errs.append(abs(mesh.total_area - np.pi))
    assert errs[0] > errs[1] > errs[2]


def test_interior_rule_degree_two_exact(square_mesh):
    # exact integrals over the unit square
    got = interior_integral(square_mesh, lambda p: p[:, 0] ** 2)
    assert abs(got - 1.0 / 3.0) < 1e-14
    got = interior_integral(square_mesh, lambda p: p[:, 0] * p[:, 1])
    assert abs(got - 0.25) < 1e-14


def test_boundary_rule_degree_three_exact(square_mesh):
    # cubic along the bottom edge y = 0 only
    def f(p, n):
        on_bottom = np.isclose(p[:, 1], 0.0)
        return np.where(on_bottom, p[:, 0] ** 3 * np.hypot(n[:, 0], n[:, 1]), 0.0)

    assert abs(boundary_quadrature(square_mesh, f) - 0.25) < 1e-14


def test_quadrature_weights(disk16):
    # each edge rule's weights are positive and sum to one edge, and its
    # points are the barycentric combinations of the edge's ends
    for bary, weights in (GAUSS, SIMPSON):
        assert np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= 1e-15
        assert np.allclose(bary.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        points, normal = edge_rule(disk16, disk16.nodes, (bary, weights))
        a, b = disk16.nodes[disk16.boundary_edges[:, 0]], disk16.nodes[disk16.boundary_edges[:, 1]]
        for g, (wa, wb) in enumerate(bary):
            assert np.allclose(points[:, g], wa * a + wb * b, rtol=0.0, atol=1e-15)
        assert np.array_equal(normal, np.stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]], axis=1))


def test_node_masses_sum_to_area(annulus32):
    assert abs(annulus32.total_mass - annulus32.total_area) < 1e-12


@pytest.mark.parametrize("bad", [
    partial(DomainSpec.disk, -1.0, 16),
    partial(DomainSpec.disk, 1.0, 1),
    partial(DomainSpec.annulus, 2.0, 1.0, 16),
    partial(DomainSpec.annulus, 0.0, 1.0, 16),
    partial(DomainSpec.four_lobe, 2.0, 1.0, 16),
])
def test_invalid_specs_rejected(bad):
    # a spec checks itself when built, so an invalid one never exists
    with pytest.raises(DomainError):
        bad()


def test_config_roundtrip():
    spec = DomainSpec.from_config({"kind": "annulus", "params": {"r_inner": 1.0, "r_outer": 2.0},
                                   "resolution": 8})
    mesh = build_domain(spec)
    assert mesh.n_nodes > 0


# Reference builders: one node and one triangle at a time, in construction order.

def _loop_ring_point(r, k, n_angular):
    t = 2.0 * math.pi * k / n_angular
    return (r * math.cos(t), r * math.sin(t))


def _loop_disk(radius, resolution, uniform=False):
    """Center node, then ring j = 1..m with n_j nodes at radius j/m: the graded
    counts, or the boundary's count on every ring.  Equal rings are joined by
    quad pairs, a ring of twice the inner count by three triangles per inner
    segment."""
    m = resolution
    counts = [4 * _angular_quarter(resolution)] * m if uniform else _ring_counts(resolution)
    nodes, first = [(0.0, 0.0)], [0]
    for j in range(1, m + 1):
        first.append(len(nodes))
        for k in range(counts[j - 1]):
            nodes.append(_loop_ring_point(radius * j / m, k, counts[j - 1]))

    def idx(j, k):
        return first[j] + k % counts[j - 1]

    tris = [(0, idx(1, k), idx(1, k + 1)) for k in range(counts[0])]
    for j in range(2, m + 1):
        for k in range(counts[j - 2]):
            a, d = idx(j - 1, k), idx(j - 1, k + 1)
            if counts[j - 1] == counts[j - 2]:
                b, c = idx(j, k), idx(j, k + 1)
                tris += [(a, b, c), (a, c, d)]
            else:
                b, e, c = idx(j, 2 * k), idx(j, 2 * k + 1), idx(j, 2 * k + 2)
                tris += [(a, b, e), (a, e, d), (d, e, c)]
    return np.array(nodes), np.array(tris)


def _loop_annulus(r_inner, r_outer, resolution):
    m = resolution
    n_a = 4 * _angular_quarter(resolution)
    nodes = [_loop_ring_point(r, k, n_a) for r in np.linspace(r_inner, r_outer, m + 1) for k in range(n_a)]

    def idx(j, k):
        return j * n_a + (k % n_a)

    tris = []
    for j in range(1, m + 1):
        for k in range(n_a):
            a, b, c, d = idx(j - 1, k), idx(j, k), idx(j, k + 1), idx(j - 1, k + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return np.array(nodes), np.array(tris)


def _loop_four_lobe(r_small, r_large, resolution, uniform=False):
    m = resolution
    n_q = _angular_quarter(resolution)
    n_a = 4 * n_q
    disk_nodes, disk_tris = _loop_disk(r_small, resolution, uniform)
    m_ext = max(1, round((r_large - r_small) / (r_small / m)))
    ext_radii = np.linspace(r_small, r_large, m_ext + 1)[1:]
    ext_ks = list(range(n_q, 2 * n_q + 1)) + list(range(3 * n_q, 4 * n_q + 1))
    slot = {k: i for i, k in enumerate(ext_ks)}

    def idx(jj, k):
        if jj < 0:  # the core's outer ring, its last n_a nodes
            return len(disk_nodes) - n_a + (k % n_a)
        return len(disk_nodes) + jj * len(ext_ks) + slot[k]

    nodes = [_loop_ring_point(r, k, n_a) for r in ext_radii for k in ext_ks]
    tris = []
    for jj in range(len(ext_radii)):
        for k in list(range(n_q, 2 * n_q)) + list(range(3 * n_q, 4 * n_q)):
            a, b, c, d = idx(jj - 1, k), idx(jj, k), idx(jj, k + 1), idx(jj - 1, k + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return np.vstack([disk_nodes, nodes]), np.vstack([disk_tris, tris])


_BUILDERS = [
    (_polar_disk, _loop_disk, (1.3,), lambda res: DomainSpec.disk(1.3, res)),
    (_polar_annulus, _loop_annulus, (1.0, 2.5), lambda res: DomainSpec.annulus(1.0, 2.5, res)),
    (_four_lobe, _loop_four_lobe, (1.0, 2.0), lambda res: DomainSpec.four_lobe(1.0, 2.0, res)),
]


@pytest.mark.parametrize("resolution", [2, 3, 8, 16, 32, 64])
def test_array_builders_match_loop_builders(resolution):
    for built, reference, radii, spec in _BUILDERS:
        nodes, tris = built(*radii, resolution)
        ref_nodes, ref_tris = reference(*radii, resolution)
        assert nodes.dtype == ref_nodes.dtype and tris.dtype == ref_tris.dtype
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(tris, ref_tris), built.__name__
        # build_domain against the two-build route: build, then translate the built mesh
        mesh = build_domain(spec(resolution))
        ref = TriMesh.from_arrays(ref_nodes, ref_tris)
        center = barycenter(ref)
        if np.hypot(*center) > 0.0:
            ref = translated(ref, -center)
        for name in ("nodes", "triangles", "areas", "node_masses"):
            assert np.array_equal(getattr(mesh, name), getattr(ref, name)), (built.__name__, name)


@pytest.mark.parametrize("resolution", [16, 32, 64])
def test_built_mesh_arrays_equal_the_row_major_oracle(resolution):
    for built, _, radii, spec in _BUILDERS:
        want = row_major_arrays(*built(*radii, resolution), centered=True)
        _assert_matches_row_major(build_domain(spec(resolution)), want)


@pytest.mark.parametrize("resolution", [2, 3, 8, 16, 32, 64])
def test_grading_keeps_the_uniform_boundary_polygon(resolution):
    for built, reference, radii, spec in (_BUILDERS[0], _BUILDERS[2]):
        mesh = TriMesh.from_arrays(*built(*radii, resolution))
        uniform = TriMesh.from_arrays(*reference(*radii, resolution, uniform=True))
        assert mesh.n_nodes < uniform.n_nodes
        assert np.array_equal(mesh.nodes[mesh.boundary_edges], uniform.nodes[uniform.boundary_edges])
        assert np.array_equal(edge_rule(mesh, mesh.nodes, SIMPSON)[1], edge_rule(uniform, uniform.nodes, SIMPSON)[1])
        # the same polygon summed over other triangles, before and after the barycenter shift
        for area in (mesh.total_area, build_domain(spec(resolution)).total_area):
            assert abs(area - uniform.total_area) <= 4.0 * np.spacing(uniform.total_area)


@pytest.mark.parametrize("resolution", [2, 3, 8, 16, 32, 64])
def test_ring_counts_halve_inward_while_the_spacing_allows(resolution):
    m, radius = resolution, 1.3
    nodes, _ = _polar_disk(radius, m)
    counts = np.bincount(np.rint(np.hypot(nodes[:, 0], nodes[:, 1]) * m / radius).astype(int))
    assert counts[0] == 1 and counts[1:].tolist() == _ring_counts(m)
    assert counts[m] == 4 * math.ceil(math.pi * m / 2)
    for j in range(1, m):  # ring j inside ring j + 1 of n nodes
        n = counts[j + 1]
        halves = n % 2 == 0 and 2.0 * math.pi * j / (n // 2) <= 1.5
        assert counts[j] == (n // 2 if halves else n), j


def test_graded_disk_bounds_the_center_aspect():
    assert [len(_polar_disk(1.0, m)[0]) for m in (16, 32, 64)] == [846, 3469, 13737]
    assert [len(_four_lobe(1.0, 2.0, m)[0]) for m in (16, 64)] == [1710, 26793]
    mesh = build_domain(DomainSpec.disk(1.0, 64))
    corners = mesh.nodes[mesh.triangles]
    longest = np.max(np.sum((corners - np.roll(corners, 1, axis=1)) ** 2, axis=2), axis=1)
    # aspect longest edge^2 / (2 area): 64 with the boundary's 404 nodes on every ring
    assert np.max(longest / (2.0 * mesh.areas)) <= 17.0


def _lexsort_boundary(nodes, triangles):
    """Reference boundary extraction: sorted node pairs ordered by lexsort."""
    m = len(triangles)
    tri_of_edge = np.repeat(np.arange(m), 3)
    raw = np.empty((3 * m, 2), dtype=np.int64)
    raw[0::3] = triangles[:, [0, 1]]
    raw[1::3] = triangles[:, [1, 2]]
    raw[2::3] = triangles[:, [2, 0]]
    key = np.sort(raw, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    sk = key[order]
    new_group = np.ones(len(sk), dtype=bool)
    new_group[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    group_id = np.cumsum(new_group) - 1
    boundary_rows = np.sort(order[np.bincount(group_id)[group_id] == 1])
    b_edges = raw[boundary_rows]
    owners = tri_of_edge[boundary_rows]
    a, b = nodes[b_edges[:, 0]], nodes[b_edges[:, 1]]
    ev = b - a
    lengths = np.hypot(ev[:, 0], ev[:, 1])
    normals = np.stack([ev[:, 1], -ev[:, 0]], axis=1) / lengths[:, None]
    flip = np.einsum("ij,ij->i", normals, 0.5 * (a + b) - nodes[triangles[owners]].mean(axis=1)) < 0.0
    normals[flip] *= -1.0
    return b_edges, normals, lengths


@pytest.mark.parametrize("resolution", [2, 3, 8, 16, 32, 64])
def test_boundary_and_rule_points_match_reference_forms(resolution):
    for _, _, _, spec in _BUILDERS:
        mesh = build_domain(spec(resolution))
        edges, normals, lengths = _lexsort_boundary(mesh.nodes, mesh.triangles)
        assert np.array_equal(mesh.boundary_edges, edges), spec(resolution).kind
        # the work's rule points are each edge's ends and midpoint, bit for bit
        points, normal = edge_rule(mesh, mesh.nodes, SIMPSON)
        a, b = mesh.nodes[mesh.boundary_edges[:, 0]], mesh.nodes[mesh.boundary_edges[:, 1]]
        assert np.array_equal(points, np.stack([a, 0.5 * (a + b), b], axis=1))
        # N(b - a) is the reference's outward unit normal times the length
        assert np.allclose(normal, lengths[:, None] * normals, rtol=0.0, atol=1e-15)
