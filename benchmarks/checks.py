"""Output checks made apart from the program, one operation per row or limit.

Each check compares a run document against values this module computes
itself (closed forms, scipy quadrature and minimization) or against method
properties; none compares against a stored copy of an earlier output.  An
operation is "failed" when the program produced no value for it, and
"wrong" when the value it produced disagrees.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi

# Tolerances, each several times the agreement the method reaches and far
# below the error of a wrong formula or a wrong optimal angle.
MIN_E0_RTOL = 1e-12       # P1-exact limit solution on the polygon
ENERGY_RTOL = 1e-8        # uniform dilation minimizes the discrete energy
REMAINDER_RTOL = 1e-3     # quadrature of the rotation functional, four-lobe 64
LAMBDA_RTOL = 1e-12
FUNCTIONAL_ATOL = 1e-4    # against a total sweep of 0.16
EL_RESIDUAL_ATOL = 1e-3   # against a peak rate of 1
ALPHA_ATOL = 1e-12


@dataclass
class Op:
    label: str
    status: str = "ok"                      # "ok" | "failed" | "wrong"
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.status = "wrong"
            self.problems.append(message)


def failed(label: str, why: str) -> Op:
    return Op(label, "failed", [why])


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


# ---------------------------------------------------------------------------
# gamma-study: constant pressure on a disk


def g_mixed(t: float, r: float) -> float:
    """Quadratic below 1, r-power growth above, as the paper's energy defines it."""
    return 0.5 * t * t if t <= 1.0 else t ** r / r + 0.5 - 1.0 / r


def shoelace_area(points: np.ndarray) -> float:
    """Area of a star-shaped polygon given its vertices in any order."""
    c = points.mean(axis=0)
    order = np.argsort(np.arctan2(points[:, 1] - c[1], points[:, 0] - c[0]))
    x, y = points[order, 0], points[order, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def limit_energy(area: float, p0: float, mat: dict) -> float:
    """min E0 for constant pressure p0: u = beta x with beta = -p0/(c1 + 2 c2)."""
    return -area * p0 ** 2 / (mat["c1"] + 2.0 * mat["c2"])


def dilation_energy(area: float, eps: float, p0: float, mat: dict) -> float:
    """Energy of the best uniform dilation y = lambda x of the body."""
    def density(lam):
        return (mat["c1"] * g_mixed(math.sqrt(2.0) * abs(lam - 1.0), mat["p"])
                + mat["c2"] * g_mixed(abs(lam * lam - 1.0), mat["q"])
                + eps * p0 * (lam * lam - 1.0))

    best = minimize_scalar(density, bounds=(0.5, 1.5), method="bounded",
                           options={"xatol": 1e-14})
    return area * float(best.fun)


def check_gamma(doc: dict | None, config: dict, areas: dict[int, float]) -> list[Op]:
    """One op per (resolution, eps) row and one per resolution's limit.

    `areas` maps each resolution to the area of its mesh's boundary polygon.
    """
    p0 = config["pressure"]["params"]["value"]
    mat = config["material"]
    eps_list = sorted(config["eps_list"], reverse=True)
    result = doc["result"] if doc else None
    ops = []
    for res in config["study"]["resolutions"]:
        rows = {}
        if result:
            rows = {r["eps"]: r for r in result["rows"] if r.get("resolution") == res}
        for eps in eps_list:
            label = f"gamma res {res} eps {eps:g}"
            row = rows.get(eps)
            if row is None or "energy" not in row:
                ops.append(failed(label, row.get("error", "no row") if row else "no row"))
                continue
            op = Op(label)
            want = dilation_energy(areas[res], eps, p0, mat)
            op.expect(_rel(row["energy"], want) <= ENERGY_RTOL,
                      f"energy {row['energy']!r} vs uniform dilation {want!r}")
            ops.append(op)

        label = f"gamma res {res} limit"
        limits = result["limits"].get(str(res)) if result else None
        if limits is None:
            ops.append(failed(label, "no limit"))
            continue
        op = Op(label)
        want = limit_energy(areas[res], p0, mat)
        op.expect(_rel(limits["min_E0"], want) <= MIN_E0_RTOL,
                  f"min_E0 {limits['min_E0']!r} vs -|Omega_h| P0^2/(c1+2c2) = {want!r}")
        gaps = [rows[e]["gap_to_min_E0"] for e in eps_list if "gap_to_min_E0" in rows.get(e, {})]
        op.expect(all(b < a for a, b in zip(gaps, gaps[1:])),
                  f"gap_to_min_E0 does not decrease with eps: {gaps}")
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# lambda-study: strict quadrant bump on the four-lobe domain


def strict_rate(a: float) -> float:
    return a ** 3 * (HALF_PI - a) ** 3 if 0.0 <= a <= HALF_PI else 0.0


def check_lambda(doc: dict | None, config: dict) -> list[Op]:
    """One op per (resolution, eps) row and one per resolution's optimal set."""
    exponent = config["study"]["lambda_exponent"]
    grid_step = TWO_PI / config["study"]["rotation_grid"]
    eps_list = sorted(config["eps_list"], reverse=True)
    result = doc["result"] if doc else None
    ops = []
    for res in config["study"]["resolutions"]:
        rows = {}
        if result:
            rows = {r["eps"]: r for r in result["rows"] if r.get("resolution") == res}
        prev_gap = None
        for eps in eps_list:
            label = f"lambda res {res} eps {eps:g}"
            row = rows.get(eps)
            if row is None:
                ops.append(failed(label, "no row"))
                continue
            op = Op(label)
            lam = eps ** exponent
            op.expect(_rel(row["lambda"], lam) <= LAMBDA_RTOL,
                      f"lambda {row['lambda']!r} vs eps^{exponent} = {lam!r}")
            swept, _ = quad(strict_rate, 0.0, lam, epsabs=0.0, epsrel=1e-13)
            op.expect(_rel(row["remainder"], swept / eps) <= REMAINDER_RTOL,
                      f"remainder {row['remainder']!r} vs swept rate / eps = {swept / eps!r}")
            op.expect(0.5 <= row["dist_over_lambda"] <= 2.0,
                      f"dist_over_lambda {row['dist_over_lambda']!r} outside [0.5, 2]")
            gap = row["energy_over_eps2"] - row["min_energy_over_eps2"]
            op.expect(gap >= 0.0, f"minimum {row['min_energy_over_eps2']!r} above the "
                                  f"almost-minimizer energy {row['energy_over_eps2']!r}")
            if prev_gap is not None:
                op.expect(gap < prev_gap, f"energy gap {gap!r} does not decrease from {prev_gap!r}")
            prev_gap = gap
            ops.append(op)

        label = f"lambda res {res} optimal set"
        limits = result["limits"].get(str(res)) if result else None
        if limits is None:
            ops.append(failed(label, "no limit"))
            continue
        op = Op(label)
        angles = limits["optimal_angles"]
        op.expect(len(angles) == 2
                  and min(_angle_gap(a, 0.0) for a in angles) <= grid_step
                  and min(_angle_gap(a, math.pi) for a in angles) <= grid_step,
                  f"optimal angles {angles} are not {{0, pi}} within one grid step")
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# scan-rotations: flat quadrant bump on the four-lobe domain

FLAT_LO = math.pi / 4.0   # the flat bump's angular rate lives on [pi/4, 3pi/8]
FLAT_WIDTH = math.pi / 8.0


def flat_rate(a: float) -> float:
    s = (a - FLAT_LO) / FLAT_WIDTH
    return 256.0 * (s * (1.0 - s)) ** 4 if 0.0 < s < 1.0 else 0.0


def flat_swept(a: float) -> float:
    """Integral of the flat rate from 0 to a, for a in [0, pi/2]."""
    hi = min(max(a, FLAT_LO), FLAT_LO + FLAT_WIDTH)
    return quad(flat_rate, FLAT_LO, hi, epsabs=0.0, epsrel=1e-13)[0] if hi > FLAT_LO else 0.0


def flat_sweep(alpha: float, total: float) -> tuple[float, float]:
    """Bump integral over the four-lobe body rotated by alpha, and its alpha-derivative.

    A large lobe sweeps the bump's quadrant in, then out, twice per turn.
    """
    seg = int(alpha // HALF_PI) % 4
    local = alpha - seg * HALF_PI
    if seg % 2 == 0:
        return flat_swept(local), flat_rate(local)
    return total - flat_swept(local), -flat_rate(local)


def flat_arcs() -> list[tuple[float, float]]:
    """Zero set of the sweep: where the body covers none of the rate's support."""
    top = FLAT_LO + FLAT_WIDTH
    return [(top - HALF_PI, FLAT_LO), (top + HALF_PI, math.pi + FLAT_LO)]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_scan(doc: dict | None, csv_text: str | None, config: dict) -> list[Op]:
    """One op per grid angle and one for the optimal set."""
    grid = config["study"]["rotation_grid"]
    grid_step = TWO_PI / grid
    result = doc["result"] if doc else None
    rows = result["rows"] if result else []
    csv_rows = list(csv.DictReader(io.StringIO(csv_text))) if csv_text is not None else []
    total = flat_swept(HALF_PI)
    alphas = TWO_PI * np.arange(grid) / grid
    ops = []
    for k, alpha in enumerate(alphas):
        label = f"scan angle {k}"
        if k >= len(rows):
            ops.append(failed(label, "no row"))
            continue
        row = rows[k]
        op = Op(label)
        value, slope = flat_sweep(float(alpha), total)
        op.expect(abs(row["alpha"] - alpha) <= ALPHA_ATOL, f"alpha {row['alpha']!r} vs {alpha!r}")
        op.expect(abs(row["functional_value"] - value) <= FUNCTIONAL_ATOL,
                  f"functional_value {row['functional_value']!r} vs swept {value!r}")
        op.expect(abs(row["el_residual"] - slope) <= EL_RESIDUAL_ATOL,
                  f"el_residual {row['el_residual']!r} vs swept rate {slope!r}")
        if k < len(csv_rows):
            op.expect(all(_same(float(csv_rows[k][key]), float(row[key])) for key in row),
                      f"CSV row {k} differs from the JSON row")
        else:
            op.expect(False, f"CSV has no row {k}")
        ops.append(op)

    label = "scan optimal set"
    if result is None:
        return ops + [failed(label, "no result")]
    op = Op(label)
    op.expect(len(rows) == grid and len(csv_rows) == grid,
              f"{len(rows)} JSON rows and {len(csv_rows)} CSV rows for a grid of {grid}")
    arcs = result["optimal"]["arcs"]
    want = flat_arcs()
    matched = len(arcs) == len(want) and all(
        any(_angle_gap(lo, wlo) <= grid_step and _angle_gap(hi, whi) <= grid_step
            for lo, hi in arcs)
        for wlo, whi in want)
    op.expect(matched, f"arcs {arcs} vs {want} within one grid step")
    op.expect(not result["optimal"]["angles"], f"isolated angles {result['optimal']['angles']}")
    op.expect(abs(result["optimal"]["min_value"]) <= FUNCTIONAL_ATOL,
              f"min_value {result['optimal']['min_value']!r} vs 0")
    ops.append(op)
    return ops
