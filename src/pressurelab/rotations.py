"""The rotation functional alpha -> integral of pi over the rotated body,
its minimizers on the circle, and the first/second variation residuals.

Every one of them reads pi through its polar factorization alone: a rotation
keeps each radius and adds alpha to each polar angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TriMesh
from .material import SKEW_GENERATOR, angular_distance, wrap_angle
from .pressure import PressureError, PressureField, polar_factor

TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - TWO_PI: what rounding takes off a turn
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 1e-10      # bracket width at which an isolated minimizer stops refining
_GOLDEN_MAX_ITER = 200   # bracket reductions of `golden_section_min`
_SUPPORT_MARGIN = 1e-9   # widens a declared support so that rounding in R(alpha) drops no row
_CHUNK_POINTS = 1 << 16  # rotated polar angles per rate call in the rotation profiles
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
    arcs: tuple[tuple[float, float], ...]  # closed arcs [lo, hi], hi <= 2*pi; an arc that wraps has lo < 0
    min_value: float
    value_tolerance: float
    grid_step: float
    grid_values: np.ndarray = field(compare=False, repr=False)  # functional on the scan grid

    def distance(self, alpha: float) -> float:
        """Intrinsic angular distance from alpha to the set."""
        return angular_distance(wrap_angle(alpha), self.nearest(alpha))

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
    polar angle about the origin, and the distinct angles among them: on a
    polar mesh the rule points along one ray share their angle bit for bit.
    A rotation adds the same angle to every point and keeps every radius, so
    the angles it carries into a polar sector form at most two runs of
    `theta`.  The band of a field without support holds every row.
    """

    rows: np.ndarray
    theta: np.ndarray    # increasing distinct polar angles of the rows, in [-pi, pi]
    starts: np.ndarray   # index in `rows` of the first row at each angle
    rho: np.ndarray      # radii of the rows
    weights: np.ndarray  # rule weights of the rows, for the boundary rule times n . J x


def _rule_table(mesh: TriMesh, pi: PressureField, boundary: bool = False) -> tuple[_RuleTable, np.ndarray]:
    """The band table of the interior (or boundary) rule that the angles of pi
    read, and, per distinct angle, the sum of its rows' weights times
    radial(rho): every factor of a profile term that no rotation changes.

    The band is the radial band of pi's support widened by _SUPPORT_MARGIN.
    Rows are grouped only when their angles are bitwise equal, so each row
    meets the rate at the very angle it would alone; merging changes only
    the order of the sum.  The table is built once per mesh, rule and band,
    and its merged weights once per radial callable, since fields of
    different radial profiles can share a band; both are kept with the
    mesh.  The rotation layer reads a field only through its polar
    factorization, so a field without one raises PressureError.
    """
    if pi.polar is None:
        raise PressureError(f"field {pi.name!r} declares no polar factorization to scan rotations with")
    rule = "boundary" if boundary else "interior"
    band = (-math.inf, math.inf) if pi.support is None else (
        pi.support[0] - _SUPPORT_MARGIN, pi.support[1] + _SUPPORT_MARGIN)
    if (rule, band) not in mesh.tables:
        pts = mesh.boundary_points_flat() if boundary else mesh.interior_points_flat()
        rho = np.hypot(pts[:, 0], pts[:, 1])
        rows = np.flatnonzero((rho >= band[0]) & (rho <= band[1]))
        theta = np.arctan2(pts[:, 1], pts[:, 0])[rows]
        order = np.argsort(theta, kind="stable")  # equal angles stay in row order
        rows, theta = rows[order], theta[order]
        new = np.ones(len(theta), dtype=bool)
        new[1:] = np.diff(theta.view(np.int64)) != 0  # bitwise, not numeric, equality
        starts = np.flatnonzero(new)
        weights = (mesh.boundary_weights_flat() if boundary else mesh.interior_weights_flat())[rows]
        if boundary:
            jx = pts[rows] @ SKEW_GENERATOR.T
            weights = weights * np.einsum("ij,ij->i", mesh.boundary_normals_flat()[rows], jx)
        mesh.tables[rule, band] = _RuleTable(rows, theta[starts], starts, rho[rows], weights)
    table, radial = mesh.tables[rule, band], pi.polar.radial
    if (rule, band, radial) not in mesh.tables:
        group = np.repeat(np.arange(len(table.starts)), np.diff(table.starts, append=len(table.rows)))
        mesh.tables[rule, band, radial] = np.bincount(
            group, weights=table.weights * polar_factor(radial, table.rho), minlength=len(table.theta))
    return table, mesh.tables[rule, band, radial]


def _segments(table: _RuleTable, pi: PressureField, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per angle, the cyclic run (start, count) of the table's angles that
    R(alpha) can carry into the support of pi.

    Every angle when pi declares no support, or the declared sector has the
    origin as apex or is the whole circle.  Otherwise the angles that lie
    in the sector rotated back by alpha and widened by _SUPPORT_MARGIN; a
    run that wraps past +-pi goes on from the first angle of the table.
    The rates are still read at each of them, so a quadrature sum keeps
    all of its nonzero terms.
    """
    everything = np.zeros(len(alphas), dtype=np.intp), np.full(len(alphas), len(table.theta), dtype=np.intp)
    if pi.support is None:
        return everything
    rho_lo, _, theta_lo, theta_hi = pi.support
    width = theta_hi - theta_lo + 2.0 * _SUPPORT_MARGIN
    if rho_lo <= 0.0 or width >= TWO_PI:
        return everything
    # unrotated angles in [lo, lo + width] modulo 2 pi, with lo in [-pi, pi)
    lo = (theta_lo - _SUPPORT_MARGIN - alphas + math.pi) % TWO_PI - math.pi
    hi = lo + width
    start = np.searchsorted(table.theta, lo)
    count = np.searchsorted(table.theta, hi, side="right") - start
    count += np.where(hi > math.pi, np.searchsorted(table.theta, hi - TWO_PI, side="right"), 0)
    return start, count


def _turn_reduced(alphas: np.ndarray) -> np.ndarray:
    """The angles of R(alpha) in [0, 2 pi]: alpha less whole turns of the
    exact 2 pi, as rotation(alpha) reduces it.  Whole turns of TWO_PI would
    shift an angle by _TWO_PI_LO per turn."""
    k = np.floor(alphas / TWO_PI)
    return np.maximum(alphas - k * TWO_PI - k * _TWO_PI_LO, 0.0)


def _profiles(mesh: TriMesh, pi: PressureField, alphas, boundary: bool = False,
              slopes: bool = False) -> list[np.ndarray]:
    """(w radial(rho)) . rate(theta + alpha) at each angle, over its run of
    the band table of the interior (or boundary) rule, with the weights of
    the rows at one angle summed; with `slopes`, also the same weights .
    rate_d1(theta + alpha).

    The rotations with a nonempty run are taken in chunks of whole runs
    that close once they hold at least _CHUNK_POINTS angles.  A chunk
    concatenates its runs, adds to each its alpha reduced to [0, 2 pi]
    (`_turn_reduced`) and folds the angles above pi into arctan2's range;
    it reads each rate once and sums each run with one reduceat.  A
    rotation with an empty run stays 0.
    """
    table, weights = _rule_table(mesh, pi, boundary)
    rates = (pi.polar.rate, pi.polar.rate_d1) if slopes else (pi.polar.rate,)
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    start, count = _segments(table, pi, alphas)
    filled = np.flatnonzero(count)
    start, count, turned = start[filled], count[filled], _turn_reduced(alphas[filled])
    n, stop, ends = len(table.theta), start + count, np.cumsum(count)
    firsts = ends - count
    # each run as slices of the table: from its start, then from the first angle when it wraps past +-pi
    cuts = np.stack([start, np.minimum(stop, n), np.zeros_like(stop), stop - n], axis=1).reshape(-1, 2)
    kept = cuts[:, 0] < cuts[:, 1]
    bounds = np.append(0, np.cumsum(kept)[1::2]).tolist()  # the slices of run k are cuts[bounds[k]:bounds[k + 1]]
    cuts = cuts[kept].tolist()
    out = np.zeros((len(rates), len(alphas)))
    lo = 0
    while lo < len(filled):
        hi = min(int(np.searchsorted(ends, firsts[lo] + _CHUNK_POINTS)) + 1, len(filled))
        theta = np.concatenate([table.theta[i:j] for i, j in cuts[bounds[lo]:bounds[hi]]])
        w = np.concatenate([weights[i:j] for i, j in cuts[bounds[lo]:bounds[hi]]])
        theta += np.repeat(turned[lo:hi], count[lo:hi])
        np.subtract(theta, TWO_PI, out=theta, where=theta > math.pi)
        for sums, rate in zip(out, rates):
            sums[filled[lo:hi]] = np.add.reduceat(w * polar_factor(rate, theta), firsts[lo:hi] - firsts[lo])
        lo = hi
    return list(out)


def rotation_functional_profile(mesh: TriMesh, pi: PressureField, alphas) -> np.ndarray:
    """Interior quadrature of x -> pi(R(alpha) x) at each of the given angles.

    A rotation keeps every radius and adds alpha to every polar angle, so the
    value is (w psi(rho)) . rate(theta + alpha) with psi, rate = pi.polar[:2].
    """
    return _profiles(mesh, pi, alphas)[0]


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
    A = a J, the cost of rotational fluctuations.  Since R A x =
    a rho e_theta(theta + alpha), grad pi(R x) . R A x is
    a psi(rho) rate'(theta + alpha): el is (w (n . J x) psi(rho)) .
    rate(theta + alpha) and second is a^2 times the same weights . rate_d1.
    second is NaN throughout when pi is not C^2; rate_d1 is then never read.
    """
    el, *slopes = _profiles(mesh, pi, alphas, boundary=True, slopes=pi.is_smooth)
    return el, (a * a * slopes[0] if slopes else np.full(len(el), math.nan))


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
