"""Extraction of (rotation, displacement) pairs from finite-strain minimizers
and the epsilon-sweep studies: limit of rescaled minima, refined rotational
fluctuations, and the slow-rotation almost-minimizer construction.  Each study
takes one `Problem` (what is fixed while eps varies) and one `Plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import TriMesh
from .material import SKEW_GENERATOR, MaterialModel, g_mixed, g_mixed_ratio, rotation, wrap_angle
from .nonlinear_solver import (
    SolveDiagnostics,
    admissible_start,
    assemble_energy,
    det_deviation_sq,
    deformation_gradients,
    gp_gradient_integral,
    minimize_energy,
    zero_average,
)
from .linear_solver import ProblemError, SolverError, StiffnessPreconditioner, apply_gauge, assemble_load, solve_linearized
from .pressure import PressureField
from .rotations import OptimalSet, find_optimal_rotations, golden_section_min, rotation_functional, second_variation

TWO_PI = 2.0 * math.pi
_EXTRACT_GRID = 720     # scan points of `extract_rotation` when the least-squares angle does not apply
_EXTRACT_TOL = 1e-12    # bracket width at which that scan's refinement stops


@dataclass
class StudyReport:
    kind: str
    config_hash: str
    rows: list[dict] = field(default_factory=list)
    limits: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def column_order(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        return cols


# ---------------------------------------------------------------------------
# rotation extraction and displacement rescaling


def extract_rotation(mesh: TriMesh, material: MaterialModel, y: np.ndarray) -> float:
    """Angle minimizing the area-weighted mixed penalty of grad y minus a rotation.

    The objective is sum_T |T| g(d_T(alpha)) with d_T^2 = |F|^2 + 2 -
    2 (a cos alpha + b sin alpha).  For p = 2, g(d) = d^2/2 at every
    distance, so the least-squares angle atan2(sum |T| b, sum |T| a) is the
    exact minimizer.  Below p = 2: grid scan, then bisection of the grid
    bracket on the sign of the objective's derivative.  Deterministic.
    """
    if material.p == 2.0:
        return extract_rotation_l2(mesh, y)
    F, _ = deformation_gradients(mesh, y)
    a = F[:, 0, 0] + F[:, 1, 1]
    b = F[:, 1, 0] - F[:, 0, 1]
    norm_sq = np.einsum("tij,tij->t", F, F)
    areas = mesh.areas

    def dist_sq(alpha):
        return np.maximum(norm_sq + 2.0 - 2.0 * (a * np.cos(alpha) + b * np.sin(alpha)), 0.0)

    def objective(alpha):
        return float(areas @ g_mixed(np.sqrt(dist_sq(alpha)), material.p))

    def slope(alpha):  # d/dalpha g(d) = g'(d)/d * (a sin alpha - b cos alpha)
        ratio = g_mixed_ratio(np.sqrt(dist_sq(alpha)), material.p)
        return float(areas @ (ratio * (a * np.sin(alpha) - b * np.cos(alpha))))

    alphas = TWO_PI * np.arange(_EXTRACT_GRID) / _EXTRACT_GRID
    vals = np.array([objective(x) for x in alphas])
    i = int(np.argmin(vals))
    lo = alphas[i] - TWO_PI / _EXTRACT_GRID
    hi = alphas[i] + TWO_PI / _EXTRACT_GRID
    a_star, _ = golden_section_min(objective, lo, hi, tol=_EXTRACT_TOL, slope=slope)
    return wrap_angle(a_star)


def extract_rotation_l2(mesh: TriMesh, y: np.ndarray) -> float:
    """Closed-form angle of the area-weighted least-squares rotation fit."""
    F, _ = deformation_gradients(mesh, y)
    a = float(mesh.areas @ (F[:, 0, 0] + F[:, 1, 1]))
    b = float(mesh.areas @ (F[:, 1, 0] - F[:, 0, 1]))
    return wrap_angle(math.atan2(b, a))


def rescaled_displacement(mesh: TriMesh, y: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """u = (R^{-alpha} y - x)/eps, zero-averaged."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    u = (np.asarray(y, dtype=float) @ rotation(-alpha).T - mesh.nodes) / eps
    return zero_average(mesh, u)


def rebuild_deformation(mesh: TriMesh, u: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """Inverse of `rescaled_displacement`: y = R^alpha (x + eps u)."""
    return (mesh.nodes + eps * np.asarray(u, dtype=float)) @ rotation(alpha).T


def w1p_norm(mesh: TriMesh, u: np.ndarray, p: float) -> float:
    """Discrete Sobolev norm: lumped-mass |u|^p plus per-triangle |grad u|^p."""
    u = np.asarray(u, dtype=float)
    mag = np.hypot(u[:, 0], u[:, 1])
    val = float(mesh.node_masses @ mag ** p)
    G, _ = deformation_gradients(mesh, u)
    gm = np.sqrt(np.einsum("tij,tij->t", G, G))
    val += float(mesh.areas @ gm ** p)
    return val ** (1.0 / p)


# ---------------------------------------------------------------------------
# solver orchestration shared by the studies


@dataclass(frozen=True)
class Problem:
    """One fixed problem of a sweep: the mesh, the energy density, the pressure
    pi on the body and its `extension` pi_hat, given as a field or as a
    function that builds it.  `resolution` labels the rows of a study (-1
    when None)."""

    mesh: TriMesh
    material: MaterialModel
    pi: PressureField
    extension: PressureField | Callable[[], PressureField]
    resolution: int | None = None

    @cached_property
    def pi_hat(self) -> PressureField:
        """The extension that the nonlinear solves read, built on first read:
        a problem that only the limit solves use never builds it."""
        return self.extension() if callable(self.extension) else self.extension

    @cached_property
    def factor(self) -> StiffnessPreconditioner:
        """The one stiffness factorization of (mesh, material): the limit solves
        and the L-BFGS seed of every nonlinear solve share it."""
        return StiffnessPreconditioner(self.mesh, self.material)


@dataclass(frozen=True)
class Plan:
    """What a run does with a problem; `config.SCHEMA` takes its defaults from here."""

    grad_tol: float = 1e-9
    max_iter: int = 5000
    multistart_angles: tuple[float, ...] = (0.0,)
    eps_list: tuple[float, ...] = (0.08, 0.04, 0.02, 0.01)
    seed: int = 0  # seeds the start noise of a solve without a limit (`solve-nonlinear`)
    rotation_grid: int = 1024
    arc_samples: int = 5
    lambda_exponent: float = 0.4


def multistart_minimize(problem: Problem, eps: float, plan: Plan,
                        u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveDiagnostics, list[dict]]:
    """Run the minimizer from each of the plan's start angles; keep the
    deformation (N, 2) of the lowest energy.

    Given the limit minimizer ``u0``, start k is the Gamma-limit prediction
    R(alpha_k)(x + eps u0), with no noise, so the seed plays no part.  Without
    it (`solve-nonlinear`), start k is R(alpha_k) x plus uniform nodal noise
    of amplitude 1e-3 times the mesh diameter, seeded by (seed, eps, k).
    Either offset is halved until the start is admissible (`admissible_start`).
    With several starts the exploration pass runs at a capped iteration count
    and moderate tolerance to rank the basins, and only the winner is polished
    to the requested tolerance (warm-started, preconditioned in its own
    rotation frame); a single start that did not converge is polished the
    same way.  When neither pass converges, the polish is kept only if it
    lowers the energy.  Energies rise along the way by at most the rounding
    floor of the minimizer's derivative-accepted steps.
    """
    mesh, material, pi_hat = problem.mesh, problem.material, problem.pi_hat
    multi = len(plan.multistart_angles) > 1
    scout_tol = max(plan.grad_tol, 1e-8) if multi else plan.grad_tol
    scout_iters = min(plan.max_iter, 400) if multi else plan.max_iter
    best: tuple[np.ndarray, SolveDiagnostics] | None = None
    table: list[dict] = []
    for k, alpha in enumerate(plan.multistart_angles):
        if u0 is None:
            rng = np.random.default_rng([plan.seed, int(round(eps * 1e9)), k])
            offset = 1e-3 * mesh.diameter * rng.uniform(-1.0, 1.0, size=mesh.nodes.shape)
        else:
            offset = eps * u0 @ rotation(alpha).T
        init = admissible_start(mesh, alpha, offset)
        y, diag = minimize_energy(
            mesh, material, pi_hat, eps, init,
            grad_tol=scout_tol, max_iter=scout_iters,
            precond=problem.factor, frame_angle=alpha,
        )
        table.append({
            "start_alpha": alpha, "energy": diag.energy, "iterations": diag.iterations,
            "converged": diag.converged, "stop_reason": diag.stop_reason,
        })
        if best is None or diag.energy < best[1].energy:
            best = (y, diag)
    assert best is not None
    y, diag = best
    if multi or not diag.converged:
        y2, diag2 = minimize_energy(
            mesh, material, pi_hat, eps, y,
            grad_tol=plan.grad_tol, max_iter=plan.max_iter,
            precond=problem.factor, frame_angle=extract_rotation_l2(mesh, y),
        )
        if diag.converged or diag2.converged or diag2.energy < diag.energy:
            y, keep = y2, diag2
        else:  # an unconverged polish that did not lower the energy is dropped; its work still counts
            keep = diag
        diag = replace(keep, iterations=diag.iterations + diag2.iterations,
                       backtracks=diag.backtracks + diag2.backtracks,
                       admissibility_rejections=diag.admissibility_rejections + diag2.admissibility_rejections)
    return y, diag, table


def minimize_limit_energy(problem: Problem, angles: list[float]):
    """Linearized solves over the given limit angles; returns the best.

    Every angle reuses the problem's stiffness factor, and an angle whose load
    is bitwise equal to an earlier angle's (constant pressure gives one load
    at every angle) reuses that angle's solve.  Returns (min_value,
    best_alpha0, gauged displacement (N, 2), per-angle table, rotation load
    component at the best angle: the slope of the rotation functional).
    """
    mesh = problem.mesh
    jx = (mesh.nodes @ SKEW_GENERATOR.T).ravel()
    best = None
    table = []
    solved = []  # (load, displacement, E0) of each distinct load
    for alpha0 in angles:
        load = assemble_load(mesh, problem.pi, alpha0)
        hit = next((s for s in solved if np.array_equal(s[0], load)), None)
        if hit is None:
            hit = (load, *solve_linearized(problem.factor, load))
            solved.append(hit)
        _, disp, e0 = hit
        rotation_load = float(load @ jx)  # the rotation functional's slope at alpha0
        table.append({"alpha0": alpha0, "E0": e0, "rotation_load": rotation_load})
        if best is None or e0 < best[0]:
            best = (e0, alpha0, disp, rotation_load)
    assert best is not None
    return best[0], best[1], best[2], table, best[3]


# ---------------------------------------------------------------------------
# the three studies


def _sweep(kind: str, problem: Problem, plan: Plan, setup) -> tuple[StudyReport, OptimalSet]:
    """The eps-sweep shared by the studies; returns the report and the optimal set.

    The identity must be an optimal rotation: the energy subtracts pi_hat(x),
    so every rescaled energy is measured against the identity.  The limit is
    solved once, over ``plan.arc_samples`` angles per optimal arc, and
    ``setup(optimal, limit, report)``, given that `minimize_limit_energy`
    result, computes the study's limit quantities and returns its row
    function ``row(eps, y, diagnostics, starts) -> dict``.  Per eps, in
    descending order, one multistart minimization runs from the limit's
    prediction R(alpha_k)(x + eps u0), so no start draws noise; the limit
    solves and every minimization share the problem's one stiffness factor.
    An eps whose solve raises SolverError becomes an error row and the sweep
    goes on.
    """
    optimal = find_optimal_rotations(problem.mesh, problem.pi, grid_n=plan.rotation_grid)
    if optimal.distance(0.0) > optimal.grid_step:
        raise ProblemError("the identity rotation is not optimal for this configuration")
    limit = minimize_limit_energy(problem, optimal.sample_angles(per_arc=plan.arc_samples))
    report = StudyReport(kind=kind, config_hash="")
    row = setup(optimal, limit, report)
    u0 = limit[2]  # the limit minimizer's displacement
    label = problem.resolution if problem.resolution is not None else -1
    for eps in sorted(plan.eps_list, reverse=True):
        try:
            y, diag, starts = multistart_minimize(problem, eps, plan, u0)
        except SolverError as exc:
            report.rows.append({"resolution": label, "eps": eps, "error": str(exc)})
            continue
        report.rows.append({"resolution": label, "eps": eps, **row(eps, y, diag, starts)})
    return report, optimal


def gamma_study(problem: Problem, plan: Plan) -> StudyReport:
    """Sweep of rescaled minima against the limit value on one mesh.

    Per eps (descending): multistart minimize, extract the rotation and the
    rescaled displacement, record the rescaled energy, the distance of the
    rotation to the optimal set, the determinant/gradient compactness
    diagnostics, and the Sobolev distance of the displacement to the limit
    minimizer.
    """
    mesh, material = problem.mesh, problem.material

    def setup(optimal, limit, report):
        min_e0, alpha0, u0, e0_table, rot_load = limit
        report.limits = {
            "min_E0": min_e0,
            "alpha0": alpha0,
            "rotation_load_component": rot_load,
            "E0_samples": e0_table,
            "u0_norm_w1p": w1p_norm(mesh, u0, material.p),
            "optimal_angles": list(optimal.angles),
            "optimal_arcs": [list(a) for a in optimal.arcs],
        }

        def row(eps, y, diag, starts):
            alpha = extract_rotation(mesh, material, y)
            u = apply_gauge(mesh, rescaled_displacement(mesh, y, alpha, eps))
            return {
                "energy": diag.energy,
                "energy_over_eps2": diag.energy / eps ** 2,
                "alpha": alpha,
                "dist_to_optimal": optimal.distance(alpha),
                "det_dev_sq_over_eps2": det_deviation_sq(mesh, y) / eps ** 2,
                "gp_over_eps2": gp_gradient_integral(mesh, material, u, eps) / eps ** 2,
                "u_dist_w1p": w1p_distance(mesh, u, u0, material.p),
                "u_norm_w1p": w1p_norm(mesh, u, material.p),
                "iterations": diag.iterations,
                "converged": diag.converged,
                "stop_reason": diag.stop_reason,
                "gap_to_min_E0": abs(diag.energy / eps ** 2 - min_e0),
                "starts": starts,
            }
        return row

    report, _ = _sweep("gamma", problem, plan, setup)
    bounds = [max(-row["energy"], 0.0) / row["eps"] ** 2 for row in report.rows if "energy" in row]
    report.limits["scaling_constant_max"] = max(bounds) if bounds else 0.0
    report.limits["scaling_constant_ratio"] = (
        max(bounds) / min(bounds) if bounds and min(bounds) > 0.0 else None  # undefined when a minimum is zero
    )
    return report


def w1p_distance(mesh: TriMesh, u: np.ndarray, v: np.ndarray, p: float) -> float:
    return w1p_norm(mesh, np.asarray(u, float) - np.asarray(v, float), p)


def refined_study(problem: Problem, plan: Plan) -> StudyReport:
    """Track the rotational fluctuation of minimizers around the optimal set.

    Per eps: decompose the extracted angle as nearest-optimal plus offset
    a_eps, record a_eps / max(|a_eps|, sqrt(eps)), and evaluate the boundary
    second-variation form at the limit with the recorded amplitude.  The full
    sequence is reported; no limit is forced when it fails to settle.  The
    linearized limit is solved only for the starts of the sweep's solves.
    """
    if not problem.pi.is_smooth:
        raise ProblemError("refined study needs a C^2 pressure field")
    mesh, material = problem.mesh, problem.material

    def setup(optimal, limit, report):
        def row(eps, y, diag, starts):
            alpha = extract_rotation(mesh, material, y)
            s_near = optimal.nearest(alpha)
            a_off = _signed_offset(alpha, s_near)
            return {
                "energy_over_eps2": diag.energy / eps ** 2,
                "alpha": alpha,
                "nearest_optimal": s_near,
                "offset": a_off,
                "offset_scaled": a_off / max(abs(a_off), math.sqrt(eps)),
                "sqrt_eps": math.sqrt(eps),
                "converged": diag.converged,
                "stop_reason": diag.stop_reason,
            }
        return row

    report, optimal = _sweep("refined", problem, plan, setup)
    solved = [row for row in report.rows if "error" not in row]
    scaled_seq = [row["offset_scaled"] for row in solved]
    s_last = solved[-1]["nearest_optimal"] if solved else 0.0
    a0 = scaled_seq[-1] if scaled_seq else 0.0
    settled = len(scaled_seq) >= 2 and abs(scaled_seq[-1] - scaled_seq[-2]) <= 0.25 * (1.0 + abs(scaled_seq[-1]))
    report.limits = {
        "A0_scalar": a0,
        "A0_sequence": scaled_seq,
        "A0_settled": bool(settled),
        "s_limit": s_last,
        "second_variation_at_limit": second_variation(mesh, problem.pi, s_last, a=a0),
        "optimal_angles": list(optimal.angles),
        "optimal_arcs": [list(a) for a in optimal.arcs],
    }
    return report


def _signed_offset(alpha: float, base: float) -> float:
    d = (alpha - base) % TWO_PI
    return d if d <= math.pi else d - TWO_PI


def almost_minimizer_scaling(problem: Problem, plan: Plan) -> StudyReport:
    """Slow-rotation almost minimizers: rotate the limit state by eps^exponent.

    Requires the strictly increasing bump variant (isolated optimal angles
    with vanishing boundary second variation).  Per eps it builds
    y = R^lambda (x + eps u*), with u* the linearized minimizer at the optimal
    angle, and records the excess rotation-functional remainder against the
    lambda^3/eps target plus the rescaled-energy gap to the solved minimum.
    """
    exponent = plan.lambda_exponent
    if not (1.0 / 3.0 < exponent < 0.5):
        raise ProblemError("exponent must lie in (1/3, 1/2)")
    if problem.pi.params.get("variant") != "strict":
        raise ProblemError("the scaling study requires the strict bump variant")
    mesh, material, pi = problem.mesh, problem.material, problem.pi

    def setup(optimal, limit, report):
        min_e0, alpha0, disp_star, _, _ = limit
        base_value = rotation_functional(mesh, pi, alpha0)
        report.limits = {
            "alpha0": alpha0, "min_E0": min_e0, "exponent": exponent,
            "optimal_angles": list(optimal.angles),
        }

        def row(eps, _y, diag, starts):
            lam = eps ** exponent
            y = zero_average(mesh, rebuild_deformation(mesh, disp_star, alpha0 + lam, eps))
            remainder = (rotation_functional(mesh, pi, alpha0 + lam) - base_value) / eps
            energy = assemble_energy(mesh, material, problem.pi_hat, y, eps)
            alpha_hat = extract_rotation(mesh, material, y)
            dist = optimal.distance(alpha_hat)
            return {
                "lambda": lam,
                "remainder": remainder,
                "remainder_over_target": remainder / (lam ** 3 / eps),
                "energy_over_eps2": energy / eps ** 2,
                "min_energy_over_eps2": diag.energy / eps ** 2,
                "gap_over_eps2": energy / eps ** 2 - diag.energy / eps ** 2,
                "alpha_extracted": alpha_hat,
                "dist_to_optimal": dist,
                "dist_over_lambda": dist / lam,
            }
        return row

    report, _ = _sweep("lambda", problem, plan, setup)
    return report
