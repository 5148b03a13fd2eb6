"""The rotation functional alpha -> integral of pi over the rotated body,
its minimizers on the circle, and the first/second variation residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TriMesh
from .material import SKEW_GENERATOR, angular_distance, rotation, wrap_angle
from .pressure import PressureField

TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - TWO_PI: what rounding takes off a turn
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 1e-10      # bracket width at which an isolated minimizer stops refining
_GOLDEN_MAX_ITER = 200   # bracket reductions of `golden_section_min`
_SUPPORT_MARGIN = 1e-9   # widens a declared support so that rounding in R(alpha) drops no row
_CHUNK_POINTS = 1 << 16  # rotated rule points per field call in the rotation profiles
MIN_GRID = 64            # fewest angles of a grid scan


class SmoothnessError(ValueError):
    """Raised when an operation needs more smoothness than the field declares."""


def golden_section_min(f, a: float, b: float, tol: float = 1e-10, slope=None):
    """Scalar golden-section minimization on [a, b]; returns (argmin, value).

    Given the derivative ``slope`` of f, bisect on its sign instead: it keeps
    resolving the argmin where the values of f are flat to rounding.
    """
    it = 0
    if slope is not None:
        while abs(b - a) > tol and it < _GOLDEN_MAX_ITER:
            m, it = 0.5 * (a + b), it + 1
            a, b = (a, m) if slope(m) > 0.0 else (m, b)
        return 0.5 * (a + b), f(0.5 * (a + b))
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol and it < _GOLDEN_MAX_ITER:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        it += 1
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class OptimalSet:
    """Minimizers of the rotation functional: isolated angles and/or flat arcs."""

    angles: tuple[float, ...]              # isolated minimizers in [0, 2*pi)
    arcs: tuple[tuple[float, float], ...]  # closed arcs [lo, hi], hi may exceed 2*pi when wrapping
    min_value: float
    value_tolerance: float
    grid_step: float
    grid_values: np.ndarray = field(compare=False, repr=False)  # functional on the scan grid

    def distance(self, alpha: float) -> float:
        """Intrinsic angular distance from alpha to the set."""
        a = wrap_angle(alpha)
        best = math.inf
        for ang in self.angles:
            best = min(best, angular_distance(a, ang))
        for lo, hi in self.arcs:
            for shift in (-TWO_PI, 0.0, TWO_PI):
                aa = a + shift
                if lo <= aa <= hi:
                    return 0.0
                best = min(best, abs(aa - lo), abs(aa - hi))
        return best

    def nearest(self, alpha: float) -> float:
        """Nearest point of the set, as an angle in [0, 2*pi)."""
        a = wrap_angle(alpha)
        best, best_d = a, math.inf
        for ang in self.angles:
            d = angular_distance(a, ang)
            if d < best_d:
                best, best_d = ang, d
        for lo, hi in self.arcs:
            for shift in (-TWO_PI, 0.0, TWO_PI):
                aa = a + shift
                if lo <= aa <= hi:
                    return wrap_angle(a)
                for end in (lo, hi):
                    d = abs(aa - end)
                    if d < best_d:
                        best, best_d = wrap_angle(end), d
        return best

    def sample_angles(self, per_arc: int = 5) -> list[float]:
        out = list(self.angles)
        for lo, hi in self.arcs:
            out.extend(wrap_angle(x) for x in np.linspace(lo, hi, per_arc))
        seen: list[float] = []
        for a in out:
            if all(angular_distance(a, s) > 1e-12 for s in seen):
                seen.append(a)
        return seen


@dataclass(frozen=True)
class _RuleTable:
    """Rows of one quadrature rule with what every angle reads of them, gathered once.

    A band table holds the rows whose radius lies in a radial band, ordered by
    polar angle about the origin.  A rotation adds the same angle to every
    point and keeps every radius, so the rows it carries into a polar sector
    form at most two runs of it.  The table of a field without support holds
    every row, in mesh order, and no angles.
    """

    rows: np.ndarray | slice
    theta: np.ndarray | None       # increasing polar angles of the rows, in [-pi, pi]
    rho: np.ndarray | None         # and their radii
    points: np.ndarray
    weights: np.ndarray
    normals: np.ndarray | None     # boundary rule only: outward normals n,
    jx: np.ndarray | None          # J x
    n_jx: np.ndarray | None        # and n . J x


def _gather_rows(mesh: TriMesh, rows, boundary: bool, theta=None) -> _RuleTable:
    pts = (mesh.boundary_points_flat() if boundary else mesh.interior_points_flat())[rows]
    rho = None if theta is None else np.hypot(pts[:, 0], pts[:, 1])
    if not boundary:
        return _RuleTable(rows, theta, rho, pts, mesh.interior_weights_flat()[rows], None, None, None)
    nrm = mesh.boundary_normals_flat()[rows]
    jx = pts @ SKEW_GENERATOR.T
    return _RuleTable(rows, theta, rho, pts, mesh.boundary_weights_flat()[rows], nrm, jx,
                      np.einsum("ij,ij->i", nrm, jx))


def _table_key(pi: PressureField, boundary: bool):
    band = (pi.support[0] - _SUPPORT_MARGIN, pi.support[1] + _SUPPORT_MARGIN)
    return "boundary" if boundary else "interior", band


def _rule_table(mesh: TriMesh, pi: PressureField, boundary: bool = False) -> _RuleTable:
    """The table of the interior (or boundary) rule that the angles of pi read.

    With a declared support, the band table of its radial band widened by
    _SUPPORT_MARGIN, built once per mesh, rule and band and kept with the mesh.
    """
    if pi.support is None:
        return _gather_rows(mesh, slice(None), boundary)
    key = _table_key(pi, boundary)
    band = key[1]
    if key not in mesh.tables:
        pts = mesh.boundary_points_flat() if boundary else mesh.interior_points_flat()
        rho = np.hypot(pts[:, 0], pts[:, 1])
        rows = np.flatnonzero((rho >= band[0]) & (rho <= band[1]))
        theta = np.arctan2(pts[:, 1], pts[:, 0])[rows]
        order = np.argsort(theta, kind="stable")  # equal angles stay in row order
        mesh.tables[key] = _gather_rows(mesh, rows[order], boundary, theta[order])
    return mesh.tables[key]


def _polar_weights(mesh: TriMesh, pi: PressureField, table: _RuleTable, boundary: bool = False) -> np.ndarray:
    """The band table's weights times radial(rho), and for the boundary rule
    times n . J x: every factor of a polar path term that no rotation changes.

    Kept with the mesh under the table's key and the radial callable itself,
    since fields of different radial profiles can share a band.
    """
    radial = pi.polar[0]
    key = _table_key(pi, boundary) + (radial,)
    if key not in mesh.tables:
        w = table.weights * table.n_jx if boundary else table.weights
        mesh.tables[key] = w * np.asarray(radial(table.rho), dtype=float)
    return mesh.tables[key]


def _segments(table: _RuleTable, pi: PressureField, alphas: np.ndarray) -> list[tuple[slice, ...]]:
    """Per angle, the slices of the table whose rows R(alpha) can carry into the support of pi.

    Every row when the table has no polar order or the declared sector has
    the origin as apex or is the whole circle.  Otherwise the rows whose
    angle lies in the sector rotated back by alpha and widened by
    _SUPPORT_MARGIN: one slice, or two when it wraps past +-pi.  pi still
    evaluates each of them, so a quadrature sum keeps all of its nonzero terms.
    """
    everything = [(slice(0, len(table.weights)),)] * len(alphas)
    if table.theta is None:
        return everything
    rho_lo, _, theta_lo, theta_hi = pi.support
    width = theta_hi - theta_lo + 2.0 * _SUPPORT_MARGIN
    if rho_lo <= 0.0 or width >= TWO_PI:
        return everything
    # unrotated angles in [lo, lo + width] modulo 2 pi, with lo in [-pi, pi)
    lo = (theta_lo - _SUPPORT_MARGIN - alphas + math.pi) % TWO_PI - math.pi
    hi = lo + width
    starts = np.searchsorted(table.theta, lo).tolist()
    ends = np.searchsorted(table.theta, hi, side="right").tolist()
    wraps = np.where(hi > math.pi, np.searchsorted(table.theta, hi - TWO_PI, side="right"), 0).tolist()
    return [(slice(s, e), slice(0, w)) if w else (slice(s, e),) for s, e, w in zip(starts, ends, wraps)]


def _take(values: np.ndarray, segments: tuple[slice, ...]) -> np.ndarray:
    return values[segments[0]] if len(segments) == 1 else np.concatenate([values[s] for s in segments])


def _turn_reduced(alpha: float) -> float:
    """The angle of R(alpha) in [0, 2 pi]: alpha less whole turns of the exact
    2 pi, as rotation(alpha) reduces it.  Whole turns of TWO_PI would shift
    the angle by _TWO_PI_LO per turn."""
    k = math.floor(alpha / TWO_PI)
    return max(alpha - k * TWO_PI - k * _TWO_PI_LO, 0.0)


def _polar_path(table: _RuleTable, pi: PressureField) -> bool:
    """Whether the profiles read pi through its polar factorization: only on a band table."""
    return pi.polar is not None and table.theta is not None


def _rotated_chunks(table: _RuleTable, pi: PressureField, alphas):
    """Support rows of each angle and where R(alpha) carries them, grouped into chunks.

    Yields (per-angle list of (alpha, segments, block), chunk): each angle's
    rows of the table are written straight into a buffer, and `block`
    locates them there.  On the generic path the chunk holds the rows' rule
    points rotated by R(alpha), exactly as a per-angle call rotates them.  On
    the polar path (`_polar_path`) it holds their rotated polar angles
    theta + alpha, folded into arctan2's range: alpha is first reduced to
    [0, 2 pi] (`_turn_reduced`), so one fold of the angles above pi
    suffices.  A chunk closes once it holds at least _CHUNK_POINTS points,
    so a profile calls the field once per chunk instead of once per angle.
    The buffer is reused: the chunk is valid until the next one is requested.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    segments = _segments(table, pi, alphas)
    counts = [sum(s.stop - s.start for s in segs) for segs in segments]
    if not counts:
        return
    polar = _polar_path(table, pi)
    n = min(sum(counts), _CHUNK_POINTS - 1 + max(counts))
    buf = np.empty(n if polar else (n, 2))

    def chunk(size):
        out = buf[:size]
        if polar:
            np.subtract(out, TWO_PI, out=out, where=out > math.pi)
        return out

    entries, size = [], 0
    for alpha, segs, count in zip(alphas, segments, counts):
        out = buf[size:size + count]
        if polar:
            np.add(_take(table.theta, segs), _turn_reduced(alpha), out=out)
        else:
            # one product per angle: a matrix of another shape may round differently
            np.matmul(_take(table.points, segs), rotation(alpha).T, out=out)
        entries.append((alpha, segs, slice(size, size + count)))
        size += count
        if size >= _CHUNK_POINTS:
            yield entries, chunk(size)
            entries, size = [], 0
    if entries:
        yield entries, chunk(size)


def rotation_functional_profile(mesh: TriMesh, pi: PressureField, alphas) -> np.ndarray:
    """Interior quadrature of x -> pi(R(alpha) x) at each of the given angles.

    On the polar path the value is (w psi(rho)) . rate(theta + alpha).
    """
    table = _rule_table(mesh, pi)
    if _polar_path(table, pi):
        weights, values_at = _polar_weights(mesh, pi, table), pi.polar[1]
    else:
        weights, values_at = table.weights, pi.evaluate
    out = []
    for entries, chunk in _rotated_chunks(table, pi, alphas):
        vals = np.asarray(values_at(chunk), dtype=float)
        out.extend(float(_take(weights, segs) @ vals[block]) for _, segs, block in entries)
    return np.array(out)


def rotation_functional(mesh: TriMesh, pi: PressureField, alpha: float) -> float:
    """Interior quadrature of x -> pi(R(alpha) x)."""
    return float(rotation_functional_profile(mesh, pi, [alpha])[0])


def find_optimal_rotations(
    mesh: TriMesh,
    pi: PressureField,
    grid_n: int = 1024,
) -> OptimalSet:
    """Grid scan plus golden-section refinement, with flat-arc merging.

    Grid values tying with the global minimum within 1e-9 * (1 + |min|) form
    candidate arcs; runs of at least three tied points are reported as arcs,
    everything else is refined to an isolated angle.  Quartic-flat isolated
    minima can merge into short arcs once the grid is fine enough for their
    neighborhoods to tie -- the reported set always carries the grid step so
    callers can interpret it.
    """
    if grid_n < MIN_GRID:
        raise ValueError(f"grid_n must be at least {MIN_GRID}")
    alphas = TWO_PI * np.arange(grid_n) / grid_n
    vals = rotation_functional_profile(mesh, pi, alphas)
    vmin = float(vals.min())
    tol = 1e-9 * (1.0 + abs(vmin))
    tied = vals <= vmin + tol

    if np.all(tied):
        return OptimalSet(
            angles=(), arcs=((0.0, TWO_PI),), min_value=vmin,
            value_tolerance=tol, grid_step=TWO_PI / grid_n, grid_values=vals,
        )

    # circular runs of tied grid points
    runs: list[list[int]] = []
    idx = np.flatnonzero(tied)
    if len(idx):
        breaks = np.flatnonzero(np.diff(idx) > 1)
        pieces = np.split(idx, breaks + 1)
        if len(pieces) > 1 and pieces[0][0] == 0 and pieces[-1][-1] == grid_n - 1:
            pieces[0] = np.concatenate([pieces[-1] - grid_n, pieces[0]])
            pieces = pieces[:-1]
        runs = [list(p) for p in pieces]

    arcs: list[tuple[float, float]] = []
    isolated_seeds: list[int] = []
    for run in runs:
        if len(run) >= 3:
            lo = TWO_PI * run[0] / grid_n
            hi = TWO_PI * run[-1] / grid_n
            arcs.append((lo, hi))
        else:
            mid = run[int(np.argmin([vals[i % grid_n] for i in run]))]
            isolated_seeds.append(mid % grid_n)

    def f(a):
        return rotation_functional(mesh, pi, a)

    angles: list[float] = []
    best_val = vmin
    refined: list[tuple[float, float]] = []
    for i in isolated_seeds:
        a_lo = alphas[i] - TWO_PI / grid_n
        a_hi = alphas[i] + TWO_PI / grid_n
        a_star, v_star = golden_section_min(f, a_lo, a_hi, tol=_REFINE_TOL)
        refined.append((wrap_angle(a_star), v_star))
        best_val = min(best_val, v_star)
    for a_star, v_star in refined:
        if v_star <= best_val + tol:
            angles.append(a_star)
    angles.sort()

    return OptimalSet(
        angles=tuple(angles), arcs=tuple(arcs), min_value=best_val,
        value_tolerance=tol, grid_step=TWO_PI / grid_n, grid_values=vals,
    )


def boundary_profile(mesh: TriMesh, pi: PressureField, alphas, a: float = 1.0):
    """Boundary stationarity residual and second variation at each angle.

    Returns (el, second): el is the integral over the boundary of
    pi(R x) (n . J x), second that of (grad pi(R x) . R A x)(A x . n) with
    A = a J, the cost of rotational fluctuations.  second is NaN throughout
    when pi is not C^2; its gradient is then never evaluated.  On the polar
    path R A x = a rho e_theta(theta + alpha), so grad pi(R x) . R A x is
    a psi(rho) rate'(theta + alpha): el is (w (n . J x) psi(rho)) .
    rate(theta + alpha) and second is a^2 times the same weights . rate_d1.
    """
    table = _rule_table(mesh, pi, boundary=True)
    if _polar_path(table, pi):
        return _polar_boundary_profile(mesh, pi, table, alphas, a)
    ax = a * table.jx
    ax_n = np.einsum("ij,ij->i", ax, table.normals)
    el, second = [], []
    for entries, points in _rotated_chunks(table, pi, alphas):
        vals = np.asarray(pi.evaluate(points), dtype=float)
        grads = np.asarray(pi.gradient(points), dtype=float) if pi.is_smooth else None
        for alpha, segs, block in entries:
            w = _take(table.weights, segs)
            el.append(float(w @ (vals[block] * _take(table.n_jx, segs))))
            if grads is None:
                second.append(math.nan)
                continue
            rax = _take(ax, segs) @ rotation(alpha).T
            second.append(float(w @ (np.einsum("ij,ij->i", grads[block], rax) * _take(ax_n, segs))))
    return np.array(el), np.array(second)


def _polar_boundary_profile(mesh: TriMesh, pi: PressureField, table: _RuleTable, alphas, a: float):
    weights = _polar_weights(mesh, pi, table, boundary=True)
    _, rate, rate_d1 = pi.polar
    el, second = [], []
    for entries, theta in _rotated_chunks(table, pi, alphas):
        vals = np.asarray(rate(theta), dtype=float)
        slopes = np.asarray(rate_d1(theta), dtype=float) if pi.is_smooth else None
        for _, segs, block in entries:
            w = _take(weights, segs)
            el.append(float(w @ vals[block]))
            second.append(math.nan if slopes is None else a * a * float(w @ slopes[block]))
    return np.array(el), np.array(second)


def el_residual(mesh: TriMesh, pi: PressureField, alpha: float) -> float:
    """Boundary form of the stationarity residual at R(alpha):
    integral over the boundary of pi(R x) (n . J x)."""
    return float(boundary_profile(mesh, pi, [alpha])[0][0])


def second_variation(mesh: TriMesh, pi: PressureField, alpha: float, a: float = 1.0) -> float:
    """Boundary quadratic form measuring the cost of rotational fluctuations:
    integral of (grad pi(R x) . R A x)(A x . n) with A = a J.
    """
    if not pi.is_smooth:
        raise SmoothnessError("second variation needs a C^2 pressure field")
    return float(boundary_profile(mesh, pi, [alpha], a)[1][0])
