"""Mixed-growth stored energy density for planar elasticity and its derivatives.

The density is

    W(F) = c1 * g(dist(F, SO(2)); p) + c2 * g(|det F - 1|; q),   det F > 0,

extended by +inf when det F <= 0.  Both penalty branches are quadratic below 1
and power-growth beyond, so W is C^1 everywhere on {det > 0} and C^2 wherever
both arguments stay below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SKEW_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])
SKEW_GENERATOR.setflags(write=False)


def rotation(alpha: float) -> np.ndarray:
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s], [s, c]])


def wrap_angle(alpha: float) -> float:
    """Canonical representative in [0, 2*pi)."""
    out = float(np.mod(alpha, 2.0 * np.pi))
    return 0.0 if out >= 2.0 * np.pi else out


def signed_angle(a: float, b: float) -> float:
    """The angle from b to a on the unit circle, in (-pi, pi]."""
    d = float(a - b) % (2.0 * np.pi)
    return d if d <= np.pi else d - 2.0 * np.pi


def angular_distance(a: float, b: float) -> float:
    """Intrinsic distance on the unit circle."""
    return abs(signed_angle(a, b))


@dataclass(frozen=True)
class MaterialModel:
    """Parameters (c1, c2, p, q) of the mixed-growth density."""

    c1: float = 1.0
    c2: float = 1.0
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError("stiffness constants c1, c2 must be positive")
        if not (1.0 < self.p <= 2.0):
            raise ValueError("growth exponent p must lie in (1, 2]")
        if not (1.0 <= self.q <= 2.0):
            raise ValueError("determinant exponent q must lie in [1, 2]")

    @classmethod
    def from_config(cls, section: dict) -> "MaterialModel":
        return cls(**{key: float(value) for key, value in section.items()})


def g_mixed(t, r: float):
    """Quadratic-below-1 / r-growth-above-1 penalty; C^1 at the branch point."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("g_mixed requires a nonnegative argument")
    out = np.asarray(0.5 * t * t)
    grow = t > 1.0  # the power only where it applies: in the studies no entry exceeds 1
    out[grow] = t[grow] ** r / r + 0.5 - 1.0 / r
    return float(out) if out.ndim == 0 else out


def _major(F: np.ndarray) -> np.ndarray:
    """Component-major view f[a, b] = F_ab, batch axes last, of (..., 2, 2) matrices.
    The kernels below take gradients this way: each entry is one contiguous array."""
    return np.moveaxis(np.asarray(F, dtype=float), (-2, -1), (0, 1))


def det2(f: np.ndarray):
    return f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]


def so2_fit(f: np.ndarray):
    """(dist(F, SO(2)), a, b, s) for a component-major gradient f.

    max_R tr(R^T F) = s = hypot(a, b), a = F11 + F22, b = F21 - F12, at the
    rotation with (cos, sin) = (a, b)/s.  With c = F11 - F22, e = F12 + F21,
    dist^2 = |F|^2 + 2 - 2s = ((s - 2)^2 + c^2 + e^2)/2, a sum of squares
    whose rounding error scales with dist rather than with |F|^2 + 2.  The
    density, the stress, the solver's rounding floor and the rotation
    extraction all read this one fit.
    """
    a, b = f[0, 0] + f[1, 1], f[1, 0] - f[0, 1]
    c, e = f[0, 0] - f[1, 1], f[0, 1] + f[1, 0]
    s = np.hypot(a, b)
    return np.sqrt(0.5 * ((s - 2.0) ** 2 + c * c + e * e)), a, b, s


def g_mixed_ratio(t, r: float):
    """g'(t)/t: 1 on the quadratic branch and t^(r-2) beyond; continuous at 1."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    grow = t > 1.0
    out[grow] = t[grow] ** (r - 2.0)
    return out


def dist_so2(F: np.ndarray):
    """Frobenius distance from F to the rotation group, in closed form."""
    out = so2_fit(_major(F))[0]
    return float(out) if out.ndim == 0 else out


def density_components(model: MaterialModel, f: np.ndarray, det):
    """The density at a component-major gradient f with det F > 0."""
    return model.c1 * g_mixed(so2_fit(f)[0], model.p) + model.c2 * g_mixed(np.abs(det - 1.0), model.q)


def energy_density(model: MaterialModel, F: np.ndarray):
    """Extended-valued density: +inf on orientation-reversing gradients."""
    f = _major(F)
    det = det2(f)
    out = np.where(det > 0.0, density_components(model, f, det), np.inf)
    return float(out) if out.ndim == 0 else out


def stress_components(model: MaterialModel, f: np.ndarray, det) -> np.ndarray:
    """First derivative of the density, component-major, at f with det F > 0."""
    d, a, b, s = so2_fit(f)
    t = det - 1.0
    k = model.c2 * g_mixed_ratio(np.abs(t), model.q) * t
    cof = np.array([[f[1, 1], -f[1, 0]], [-f[0, 1], f[0, 0]]])  # the derivative of det
    return model.c1 * g_mixed_ratio(d, model.p) * (f - np.array([[a, -b], [b, a]]) / s) + k * cof


def stress(model: MaterialModel, F: np.ndarray) -> np.ndarray:
    """First derivative of the density on {det F > 0}."""
    f = _major(F)
    if np.any(det2(f) <= 0.0):
        raise ValueError("stress is defined only for orientation-preserving gradients")
    return np.moveaxis(stress_components(model, f, det2(f)), (0, 1), (-2, -1))


def quadratic_form(model: MaterialModel, E: np.ndarray):
    """Hessian of the density at the identity applied to E: c1|sym E|^2 + c2 (tr E)^2."""
    E = np.asarray(E, dtype=float)
    sym = 0.5 * (E + np.swapaxes(E, -1, -2))
    tr = E[..., 0, 0] + E[..., 1, 1]
    out = model.c1 * np.einsum("...ij,...ij->...", sym, sym) + model.c2 * tr * tr
    return float(out) if out.ndim == 0 else out
