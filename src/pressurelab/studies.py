"""Extraction of (rotation, displacement) pairs from finite-strain minimizers
and the epsilon-sweep studies: limit of rescaled minima, refined rotational
fluctuations, and the slow-rotation almost-minimizer construction.  Each study
takes one `Problem` (what is fixed while eps varies) and one `Plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import TriMesh
from .material import SKEW_GENERATOR, MaterialModel, g_mixed, rotation, signed_angle, so2_fit, wrap_angle
from .nonlinear_solver import SolveDiagnostics, admissible_start, assemble_energy, minimize_energy, zero_average
from .linear_solver import ProblemError, StiffnessPreconditioner, apply_gauge, assemble_load, gather, solve_linearized
from .pressure import PressureField
from .rotations import OptimalSet, find_optimal_rotations, rotation_functional, second_variation


@dataclass
class StudyReport:
    """A study's run-JSON `result`: its rows and its limits."""
    rows: list[dict] = field(default_factory=list)
    limits: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rotation extraction and displacement rescaling


def extract_rotation(mesh: TriMesh, y: np.ndarray) -> float:
    """Angle alpha* of the area-weighted least-squares rotation fit to grad y:
    atan2(sum |T| b, sum |T| a), with `so2_fit`'s a = F11 + F22 and
    b = F21 - F12.

    At every p, alpha* is also the exact minimizer of the mixed penalty
    sum_T |T| g_p(d_T(alpha)), d_T(alpha) = |F_T - R(alpha)|, whenever
    delta = max_T d_T(alpha*) < 1/3.  Since g_p(d) = d^2/2 for d <= 1 and g_p
    increases: where |R(alpha) - R(alpha*)| <= 1 - delta every d_T <= 1, so
    the penalty is the least-squares one, which alpha* minimizes; elsewhere
    every d_T >= 1 - 2 delta, so the penalty is at least
    |Omega| (1 - 2 delta)^2 / 2, against at most |Omega| delta^2 / 2 at
    alpha*.  Past 1/3 the fit is the definition.
    """
    _, a, b, _ = so2_fit(gather(mesh, y)[0])
    return wrap_angle(math.atan2(float(mesh.areas @ b), float(mesh.areas @ a)))


def rescaled_displacement(mesh: TriMesh, y: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """u = (R^{-alpha} y - x)/eps, zero-averaged."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    u = (np.asarray(y, dtype=float) @ rotation(-alpha).T - mesh.nodes) / eps
    return zero_average(mesh, u)


def rebuild_deformation(mesh: TriMesh, u: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """Inverse of `rescaled_displacement`: y = R^alpha (x + eps u)."""
    return (mesh.nodes + eps * np.asarray(u, dtype=float)) @ rotation(alpha).T


# ---------------------------------------------------------------------------
# the gamma study's diagnostics, each reading gradients through `gather`


def _gradient_norms(mesh: TriMesh, u: np.ndarray) -> np.ndarray:
    """Per-triangle Frobenius norm |grad u|."""
    f, _ = gather(mesh, u)
    return np.sqrt(np.einsum("ijt,ijt->t", f, f))


def w1p_norm(mesh: TriMesh, u: np.ndarray, p: float) -> float:
    """Discrete Sobolev norm: lumped-mass |u|^p plus per-triangle |grad u|^p."""
    u = np.asarray(u, dtype=float)
    mag = np.hypot(u[:, 0], u[:, 1])
    val = float(mesh.node_masses @ mag ** p)
    val += float(mesh.areas @ _gradient_norms(mesh, u) ** p)
    return val ** (1.0 / p)


def det_deviation_sq(mesh: TriMesh, y: np.ndarray) -> float:
    """Integral of (det - 1)^2 over the region where |det - 1| <= 1."""
    dev = gather(mesh, y)[1] - 1.0
    mask = np.abs(dev) <= 1.0
    return float(mesh.areas[mask] @ (dev[mask] ** 2))


def gp_gradient_integral(mesh: TriMesh, material: MaterialModel, u: np.ndarray, eps: float) -> float:
    """Integral of g_p(eps |grad u|) over the mesh."""
    return float(mesh.areas @ g_mixed(eps * _gradient_norms(mesh, u), material.p))


# ---------------------------------------------------------------------------
# solver orchestration shared by the studies


@dataclass(frozen=True)
class Problem:
    """One fixed problem of a sweep: the mesh, the energy density, the pressure
    pi on the body and its extension pi_hat, which the finite-strain energy reads."""

    mesh: TriMesh
    material: MaterialModel
    pi: PressureField
    pi_hat: PressureField

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
            precond=problem.factor, frame_angle=extract_rotation(mesh, y),
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


def _sweep(problem: Problem, plan: Plan) -> tuple[OptimalSet, tuple, list[tuple]]:
    """The eps-sweep shared by the studies; returns (optimal, limit, solves).

    The identity must be an optimal rotation: the energy subtracts pi_hat(x),
    so every rescaled energy is measured against the identity.  The limit is
    solved once, over ``plan.arc_samples`` angles per optimal arc, and
    ``limit`` is that `minimize_limit_energy` result.  Per eps, in descending
    order, one multistart minimization runs from the limit's prediction
    R(alpha_k)(x + eps u0), so no start draws noise; ``solves`` holds its
    (eps, y, diagnostics, starts).  The limit solves and every minimization
    share the problem's one stiffness factor.
    """
    optimal = find_optimal_rotations(problem.mesh, problem.pi, grid_n=plan.rotation_grid)
    if optimal.distance(0.0) > optimal.grid_step:
        raise ProblemError("the identity rotation is not optimal for this configuration")
    limit = minimize_limit_energy(problem, optimal.sample_angles(per_arc=plan.arc_samples))
    u0 = limit[2]  # the limit minimizer's displacement
    solves = [(eps, *multistart_minimize(problem, eps, plan, u0)) for eps in sorted(plan.eps_list, reverse=True)]
    return optimal, limit, solves


def gamma_study(problem: Problem, plan: Plan) -> StudyReport:
    """Sweep of rescaled minima against the limit value on one mesh.

    Per eps (descending): multistart minimize, extract the rotation and the
    rescaled displacement, record the rescaled energy, the distance of the
    rotation to the optimal set, the determinant/gradient compactness
    diagnostics, and the Sobolev distance of the displacement to the limit
    minimizer.
    """
    mesh, material = problem.mesh, problem.material
    optimal, (min_e0, alpha0, u0, e0_table, rot_load), solves = _sweep(problem, plan)
    rows = []
    for eps, y, diag, starts in solves:
        alpha = extract_rotation(mesh, y)
        u = apply_gauge(mesh, rescaled_displacement(mesh, y, alpha, eps))
        rows.append({
            "eps": eps,
            "energy": diag.energy,
            "energy_over_eps2": diag.energy / eps ** 2,
            "alpha": alpha,
            "dist_to_optimal": optimal.distance(alpha),
            "det_dev_sq_over_eps2": det_deviation_sq(mesh, y) / eps ** 2,
            "gp_over_eps2": gp_gradient_integral(mesh, material, u, eps) / eps ** 2,
            "u_dist_w1p": w1p_norm(mesh, u - u0, material.p),
            "u_norm_w1p": w1p_norm(mesh, u, material.p),
            "iterations": diag.iterations,
            "converged": diag.converged,
            "stop_reason": diag.stop_reason,
            "gap_to_min_E0": abs(diag.energy / eps ** 2 - min_e0),
            "starts": starts,
        })
    bounds = [max(-row["energy"], 0.0) / row["eps"] ** 2 for row in rows]
    return StudyReport(rows, {
        "min_E0": min_e0,
        "alpha0": alpha0,
        "rotation_load_component": rot_load,
        "E0_samples": e0_table,
        "u0_norm_w1p": w1p_norm(mesh, u0, material.p),
        "optimal_angles": list(optimal.angles),
        "optimal_arcs": [list(a) for a in optimal.arcs],
        "scaling_constant_max": max(bounds) if bounds else 0.0,
        # undefined when a minimum is zero
        "scaling_constant_ratio": max(bounds) / min(bounds) if bounds and min(bounds) > 0.0 else None,
    })


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
    mesh = problem.mesh
    optimal, _, solves = _sweep(problem, plan)
    rows = []
    for eps, y, diag, _ in solves:
        alpha = extract_rotation(mesh, y)
        s_near = optimal.nearest(alpha)
        a_off = signed_angle(alpha, s_near)
        rows.append({
            "eps": eps,
            "energy_over_eps2": diag.energy / eps ** 2,
            "alpha": alpha,
            "nearest_optimal": s_near,
            "offset": a_off,
            "offset_scaled": a_off / max(abs(a_off), math.sqrt(eps)),
            "sqrt_eps": math.sqrt(eps),
            "converged": diag.converged,
            "stop_reason": diag.stop_reason,
        })
    scaled_seq = [row["offset_scaled"] for row in rows]
    s_last = rows[-1]["nearest_optimal"] if rows else 0.0
    a0 = scaled_seq[-1] if scaled_seq else 0.0
    settled = len(scaled_seq) >= 2 and abs(scaled_seq[-1] - scaled_seq[-2]) <= 0.25 * (1.0 + abs(scaled_seq[-1]))
    return StudyReport(rows, {
        "A0_scalar": a0,
        "A0_sequence": scaled_seq,
        "A0_settled": bool(settled),
        "s_limit": s_last,
        "second_variation_at_limit": second_variation(mesh, problem.pi, s_last, a=a0),
        "optimal_angles": list(optimal.angles),
        "optimal_arcs": [list(a) for a in optimal.arcs],
    })


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
    optimal, (min_e0, alpha0, disp_star, _, _), solves = _sweep(problem, plan)
    base_value = rotation_functional(mesh, pi, alpha0)
    rows = []
    for eps, _, diag, _ in solves:
        lam = eps ** exponent
        y = zero_average(mesh, rebuild_deformation(mesh, disp_star, alpha0 + lam, eps))
        remainder = (rotation_functional(mesh, pi, alpha0 + lam) - base_value) / eps
        energy = assemble_energy(mesh, material, problem.pi_hat, y, eps)
        alpha_hat = extract_rotation(mesh, y)
        dist = optimal.distance(alpha_hat)
        rows.append({
            "eps": eps,
            "lambda": lam,
            "remainder": remainder,
            "remainder_over_target": remainder / (lam ** 3 / eps),
            "energy_over_eps2": energy / eps ** 2,
            "min_energy_over_eps2": diag.energy / eps ** 2,
            "gap_over_eps2": energy / eps ** 2 - diag.energy / eps ** 2,
            "alpha_extracted": alpha_hat,
            "dist_to_optimal": dist,
            "dist_over_lambda": dist / lam,
        })
    return StudyReport(rows, {
        "alpha0": alpha0, "min_E0": min_e0, "exponent": exponent,
        "optimal_angles": list(optimal.angles),
    })
