"""Finite-strain energy over P1 deformations and its quasi-Newton minimizer.

The discrete energy of a nodal deformation y is

    E(y) = sum_T |T| W(grad y_T) + eps * (W_p(y) - W_p(x))

with W_p the boundary pressure work of pi_hat (`linear_solver.pressure_work`),
the flux of its potential through the deformed boundary polygon, and +inf
whenever some triangle reverses orientation.  An evaluation gathers F and
det F in one product with the mesh's sparse P1 gather and evaluates the
work; the gradient adds the work's gradient to the transpose of that gather
applied to the stress of `material`.  A solve assembles the gradient and the
floor at an iterate from what its energy evaluation kept (`EnergyState`).
Deformations live in the zero-average subspace (lumped masses); the
minimizer is a limited-memory BFGS iteration, seeded with the factored
linear stiffness (splu, ordered by MMD_AT_PLUS_A).  Its line search
backtracks on the Armijo condition and rejects inadmissible trial steps
outright, so every accepted iterate keeps all determinants positive.

Near a minimizer the energy change of a step falls below the rounding error
of the energy itself, while the gradient still resolves the slope.  A trial
whose energy lies within that rounding floor of the current energy is
therefore judged on its directional derivative instead (the approximate Wolfe
conditions of Hager and Zhang, SIAM J. Optim. 16, 2005): the search brackets
the step on the slope ratio and takes it once the ratio lies in
[2*delta - 1, sigma].  Accepted energies are nonincreasing except at such a
derivative-accepted step, which may raise the energy by at most the floor.
The floor bounds the rounding of the energy sum by the sizes of its terms:
the elastic density rounds relative to d = dist(F, SO(2)) and
t = |det F - 1| (not to |F|^2, which is about 2 near a rotation), the work
relative to the magnitudes of its terms.
``converged`` means the gradient test passed (``stop_reason == "gradient"``);
"stalled" means the line search found no acceptable step, "maxiter" that the
iteration cap was reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TriMesh
from .linear_solver import (ProblemError, PressureWork, StiffnessPreconditioner, gather, gather_transpose,
                            pressure_work, project_gradient, zero_average)
from .material import MaterialModel, density_components, rotation, so2_fit, stress_components
from .pressure import PressureField

_ARMIJO_C = 1e-4
_MEMORY = 10  # correction pairs kept by L-BFGS
_BACKTRACK = 0.5
_STEP_MIN = 1e-20
# Derivative test for a trial whose energy is flat to rounding: accept when
# 2*delta - 1 <= g(t).s / (t g.d) <= sigma; above sigma the step is too short,
# below 2*delta - 1 it overshoots.
_WOLFE_SIGMA = 0.9
_WOLFE_DELTA = 0.1


@dataclass
class SolveDiagnostics:
    energy: float
    grad_norm: float
    iterations: int
    backtracks: int
    admissibility_rejections: int
    converged: bool   # the gradient test passed
    stop_reason: str  # "gradient", "stalled" (no acceptable step) or "maxiter"


def rigid_map(mesh: TriMesh, alpha: float) -> np.ndarray:
    return mesh.nodes @ rotation(alpha).T


@dataclass(frozen=True)
class EnergyState:
    """An admissible energy evaluation at y, which the gradient and floor at y reuse."""
    f: np.ndarray    # (2, 2, M) component-major gradient
    det: np.ndarray  # (M,)
    work: PressureWork


def _evaluate(mesh: TriMesh, pi_hat: PressureField, y: np.ndarray) -> EnergyState | None:
    """One gather of y and the pressure work at y; None when some det <= 0."""
    f, det = gather(mesh, y)
    return None if np.any(det <= 0.0) else EnergyState(f, det, pressure_work(mesh, pi_hat, y))


def assemble_energy(mesh: TriMesh, material: MaterialModel, pi_hat: PressureField,
                    y: np.ndarray, eps: float, with_state: bool = False):
    """Total energy; +inf when orientation is violated anywhere.
    ``with_state`` returns (energy, EnergyState or None when +inf)."""
    state = _evaluate(mesh, pi_hat, y)
    if state is None:
        return (math.inf, None) if with_state else math.inf
    energy = float(mesh.areas @ density_components(material, state.f, state.det)) + eps * state.work.change()
    return (energy, state) if with_state else energy


def _energy_rounding_floor(mesh: TriMesh, material: MaterialModel, state: EnergyState, eps: float) -> float:
    """Bound on the rounding of `assemble_energy` at the admissible y of
    ``state``: eps_mach times 4 |T| (c1 (d + d^2) + c2 (t + t^2)) per triangle,
    with d = dist(F, SO(2)) and t = |det F - 1|, plus |eps| times the size of
    the pressure work's terms."""
    d = so2_fit(state.f)[0]
    t = np.abs(state.det - 1.0)
    elastic = 4.0 * float(mesh.areas @ (material.c1 * (d + d * d) + material.c2 * (t + t * t)))
    return float(np.finfo(float).eps) * (elastic + abs(eps) * state.work.size())


def assemble_gradient(mesh: TriMesh, material: MaterialModel, pi_hat: PressureField,
                      y: np.ndarray, eps: float, state: EnergyState | None = None) -> np.ndarray:
    """Nodal gradient of the energy, projected onto the zero-average subspace;
    ``state``, from an energy evaluation at this y, saves gathering y again."""
    if state is None:
        state = _evaluate(mesh, pi_hat, y)
        if state is None:
            raise ValueError("gradient requested at an inadmissible deformation")
    elastic = gather_transpose(mesh, mesh.areas * stress_components(material, state.f, state.det))
    return project_gradient(mesh, elastic + eps * state.work.gradient(mesh))


def admissible_start(mesh: TriMesh, alpha: float, offset: np.ndarray) -> np.ndarray:
    """zero_average(R(alpha) x + d), with d = ``offset`` halved until every
    triangle keeps a positive determinant.

    An offset tied to the diameter, such as seeded noise, can exceed the
    shortest edges, which on a polar mesh lie on the innermost rings; an
    offset of a predicted displacement can still fold a thin triangle.  After
    80 halvings the rigid map itself is returned.
    """
    base = rigid_map(mesh, alpha)
    d = np.asarray(offset, dtype=float)
    for _ in range(80):
        y = zero_average(mesh, base + d)
        if np.all(gather(mesh, y)[1] > 0.0):
            return y
        d = 0.5 * d
    return zero_average(mesh, base)


def minimize_energy(mesh: TriMesh, material: MaterialModel, pi_hat: PressureField, eps: float, init: np.ndarray, *,
                    grad_tol: float, max_iter: int, precond: StiffnessPreconditioner,
                    frame_angle: float = 0.0) -> tuple[np.ndarray, SolveDiagnostics]:
    """Minimize the energy from an admissible start by preconditioned L-BFGS.

    The caller gives the tolerance, the iteration cap and the stiffness factor
    ``precond`` (`studies.Problem.factor`), which the L-BFGS seed applies in
    the rotation frame ``frame_angle`` of the start.  Accepted energies are
    nonincreasing except at a derivative-accepted step, which raises the
    energy by at most `_energy_rounding_floor` (module docstring).  Returns
    the final deformation (N, 2) and diagnostics; ``converged`` is true
    exactly when the gradient test passed.  Hitting the iteration cap or a
    line search that finds no step is reported through
    ``converged``/``stop_reason`` rather than raised.
    """
    y0 = zero_average(mesh, np.asarray(init, dtype=float))
    n = mesh.n_nodes

    def energy_at(z):
        return assemble_energy(mesh, material, pi_hat, z.reshape(n, 2), eps, with_state=True)

    def gradient_at(z, state):
        return assemble_gradient(mesh, material, pi_hat, z.reshape(n, 2), eps, state).ravel()

    z = y0.ravel().copy()
    f, state = energy_at(z)
    if not math.isfinite(f):
        raise ProblemError("initial deformation is inadmissible")
    g = gradient_at(z, state)
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    backtracks = 0
    rejections = 0
    iterations = 0
    stop_reason = "maxiter"
    converged = False

    def two_loop(grad):
        q = grad.copy()
        alphas = []
        for s, yv, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * yv
        q = precond.solve(q, frame_angle)
        for (s, yv, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * (yv @ q)
            q += (a - b) * s
        return q

    def line_search(d, slope):
        """Step along d: (z, f, state, g or None), or None when no step is acceptable.

        Armijo backtracking on the bracket [lo, hi].  A trial that fails
        Armijo with its energy within the rounding floor of f takes the
        derivative test instead, which raises lo (too short), lowers hi
        (overshoot) or yields a candidate, which is taken as found: its
        energy exceeds f by at most the floor.  The search gives up
        once the step falls below _STEP_MIN above lo, or once the bracket
        holds no float strictly inside it (t then rounds to hi).
        """
        nonlocal backtracks, rejections

        t, lo, hi = 1.0, 0.0, math.inf
        floor = None
        while t - lo > _STEP_MIN and t < hi:
            z_try = zero_average(mesh, (z + t * d).reshape(n, 2)).ravel()
            f_try, s_try = energy_at(z_try)
            if f_try <= f + _ARMIJO_C * t * slope:
                return z_try, f_try, s_try, None
            backtracks += 1
            if math.isinf(f_try):
                rejections += 1
                hi = t
            else:
                if floor is None:
                    floor = _energy_rounding_floor(mesh, material, state, eps)
                if f_try - f > floor:
                    hi = t
                else:
                    g_try = gradient_at(z_try, s_try)
                    ratio = float(g_try @ (z_try - z)) / (t * slope)
                    if ratio > _WOLFE_SIGMA:
                        lo = t
                    elif ratio < 2.0 * _WOLFE_DELTA - 1.0:
                        hi = t
                    else:
                        return z_try, f_try, s_try, g_try
            t = t / _BACKTRACK if math.isinf(hi) else lo + _BACKTRACK * (hi - lo)
        return None

    for iterations in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        tol_now = grad_tol * (1.0 + abs(f))
        if gnorm <= tol_now:
            stop_reason = "gradient"
            converged = True
            break

        d = -two_loop(g)
        slope = float(g @ d)
        if slope >= 0.0:
            s_list.clear(); y_list.clear(); rho_list.clear()
            d = -precond.solve(g, frame_angle)
            slope = float(g @ d)

        step = line_search(d, slope)
        if step is None:
            stop_reason = "stalled"
            break
        z_new, f_new, state_new, g_new = step
        if g_new is None:
            g_new = gradient_at(z_new, state_new)
        s = z_new - z
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            s_list.append(s)
            y_list.append(yv)
            rho_list.append(1.0 / sy)
            if len(s_list) > _MEMORY:
                s_list.pop(0); y_list.pop(0); rho_list.pop(0)
        z, f, g, state = z_new, f_new, g_new, state_new
    else:
        iterations = max_iter

    return z.reshape(n, 2), SolveDiagnostics(
        energy=f, grad_norm=float(np.linalg.norm(g)), iterations=iterations, backtracks=backtracks,
        admissibility_rejections=rejections, converged=converged, stop_reason=stop_reason,
    )
