"""The rotation functional alpha -> W(R(alpha) x), the boundary pressure work
of the rotated body that the solvers integrate (`linear_solver.pressure_work`),
its minimizers on the circle, and the first/second variation residuals.

Every one of them reads pi through its polar factorization alone: a rotation
keeps each radius and adds alpha to each polar angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GAUSS, SIMPSON, TriMesh, edge_rule
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


def golden_section_min(f, a: float, b: float, tol: float):
    """Scalar golden-section minimization on [a, b]; returns (argmin, value)."""
    it = 0
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
        """Nearest point of the set, as an angle in [0, 2*pi): alpha itself
        when an arc holds it, else the first closest isolated angle or arc end."""
        a = wrap_angle(alpha)
        if any((a - lo) % TWO_PI <= hi - lo for lo, hi in self.arcs):
            return a
        ends = [*self.angles, *(end for arc in self.arcs for end in arc)]
        return wrap_angle(min(ends, key=lambda end: angular_distance(a, end), default=a))

    def sample_angles(self, per_arc: int) -> list[float]:
        out = list(self.angles)
        for lo, hi in self.arcs:
            out.extend(wrap_angle(x) for x in np.linspace(lo, hi, per_arc))
        seen: list[float] = []
        for a in out:
            if all(angular_distance(a, s) > 1e-12 for s in seen):
                seen.append(a)
        return seen


@dataclass(frozen=True)
class _BandTable:
    """The points of a boundary rule in a radial band, by polar angle: the
    angles a rotation carries into a polar sector form at most two runs."""

    theta: np.ndarray    # increasing polar angles of the rows, in [-pi, pi]
    rho: np.ndarray      # radii of the rows
    weights: np.ndarray  # the rule's weights of the rows times their geometric factor


def _band(mesh: TriMesh, pi: PressureField, residual: bool) -> tuple[_BandTable, np.ndarray]:
    """The band table that the angles of pi read and, per row, every factor
    of a profile term that no rotation changes.

    Both read the edge's N(x_b - x_a), the outward normal times the length,
    as `edge_rule` gives it and `linear_solver.pressure_work` reads it.  The
    work reads the Simpson points with w (N . x) A(rho) / rho^2, the flux of
    the potential (A(rho) rate / rho) e_rho; A(rho) keeps its value beyond
    the support, so its band is open outward.  The residuals read the Gauss
    points with w (N . J x) radial(rho).  The band is pi's
    radial support widened by _SUPPORT_MARGIN.  A table is kept with the
    mesh per rule and band, its weights per radial factor or A.  A field
    without polar factors raises PressureError.
    """
    if pi.polar is None:
        raise PressureError(f"field {pi.name!r} declares no polar factorization to scan rotations with")
    lo, hi = (-math.inf, math.inf) if pi.support is None else (
        pi.support[0] - _SUPPORT_MARGIN, pi.support[1] + _SUPPORT_MARGIN)
    band = (residual, lo, hi if residual else math.inf)
    if band not in mesh.tables:
        rule = GAUSS if residual else SIMPSON
        points, normal = edge_rule(mesh, mesh.nodes, rule)
        pts = points.reshape(-1, 2)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        arm = pts @ SKEW_GENERATOR.T if residual else pts / (rho * rho)[:, None]  # J x, or x / rho^2
        geometric = np.tile(rule[1], len(normal)) * np.einsum(
            "ij,ij->i", np.repeat(normal, len(rule[1]), axis=0), arm)
        rows = np.flatnonzero((rho >= lo) & (rho <= band[2]))
        theta = np.arctan2(pts[rows, 1], pts[rows, 0])
        order = np.argsort(theta, kind="stable")  # equal angles keep row order
        rows = rows[order]
        mesh.tables[band] = _BandTable(theta[order], rho[rows], geometric[rows])
    table, polar = mesh.tables[band], pi.polar
    factor = polar.radial if residual else polar.radial_potential
    key = band + (factor,)
    if key not in mesh.tables:
        mesh.tables[key] = table.weights * polar_factor(factor, table.rho)
    return table, mesh.tables[key]


def _segments(table: _BandTable, pi: PressureField, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _profiles(table: _BandTable, pi: PressureField, alphas, terms) -> list[np.ndarray]:
    """weights . rate(theta + alpha) at each angle over its run of the band
    table, for each (weights, rate) of `terms`.

    The rotations with a nonempty run are taken in chunks of whole runs
    that close once they hold at least _CHUNK_POINTS angles.  A chunk
    gathers its runs' rows (modulo the table, so a run wraps past +-pi),
    adds to each its alpha reduced to [0, 2 pi] (`_turn_reduced`), folds
    the angles above pi into arctan2's range, reads each rate once and sums
    each run with one reduceat.  A rotation with an empty run stays 0.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    start, count = _segments(table, pi, alphas)
    filled = np.flatnonzero(count)
    start, count, turned = start[filled], count[filled], _turn_reduced(alphas[filled])
    ends = np.cumsum(count)
    firsts = ends - count
    out = np.zeros((len(terms), len(alphas)))
    lo = 0
    while lo < len(filled):
        hi = min(int(np.searchsorted(ends, firsts[lo] + _CHUNK_POINTS)) + 1, len(filled))
        offsets = firsts[lo:hi] - firsts[lo]
        rows = np.repeat(start[lo:hi] - offsets, count[lo:hi]) + np.arange(ends[hi - 1] - firsts[lo])
        rows %= len(table.theta)
        theta = table.theta[rows] + np.repeat(turned[lo:hi], count[lo:hi])
        np.subtract(theta, TWO_PI, out=theta, where=theta > math.pi)
        for sums, (weights, rate) in zip(out, terms):
            sums[filled[lo:hi]] = np.add.reduceat(weights[rows] * polar_factor(rate, theta), offsets)
        lo = hi
    return list(out)


def rotation_functional_profile(mesh: TriMesh, pi: PressureField, alphas) -> np.ndarray:
    """The boundary pressure work W(R(alpha) x) at each of the given angles:
    (w (N . x) A(rho) / rho^2) . rate(theta + alpha) over the Simpson points."""
    table, weights = _band(mesh, pi, residual=False)
    return _profiles(table, pi, alphas, [(weights, pi.polar.rate)])[0]


def rotation_functional(mesh: TriMesh, pi: PressureField, alpha: float) -> float:
    """The boundary pressure work W(R(alpha) x)."""
    return float(rotation_functional_profile(mesh, pi, [alpha])[0])


def find_optimal_rotations(
    mesh: TriMesh,
    pi: PressureField,
    grid_n: int,
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

    # circular runs of tied grid points; the minimum's index is always among them
    idx = np.flatnonzero(tied)
    pieces = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
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
    a psi(rho) rate'(theta + alpha): el is (w (N . J x) psi(rho)) .
    rate(theta + alpha) and second is a^2 times the same weights . rate_d1.
    second is None when pi is not C^2, where it is undefined; rate_d1 is
    then never read.
    """
    table, weights = _band(mesh, pi, residual=True)
    rates = (pi.polar.rate, pi.polar.rate_d1) if pi.is_smooth else (pi.polar.rate,)
    el, *slopes = _profiles(table, pi, alphas, [(weights, rate) for rate in rates])
    return el, (a * a * slopes[0] if slopes else None)


def el_residual(mesh: TriMesh, pi: PressureField, alpha: float) -> float:
    """Boundary form of the stationarity residual at R(alpha):
    integral over the boundary of pi(R x) (n . J x)."""
    return float(boundary_profile(mesh, pi, [alpha])[0][0])


def second_variation(mesh: TriMesh, pi: PressureField, alpha: float, a: float = 1.0) -> float:
    """Boundary quadratic form measuring the cost of rotational fluctuations:
    integral of (grad pi(R x) . R A x)(A x . n) with A = a J.
    """
    second = boundary_profile(mesh, pi, [alpha], a)[1]
    if second is None:
        raise PressureError("second variation needs a C^2 pressure field")
    return float(second[0])
