"""Pressure intensity fields, their potentials and their Lipschitz extensions.

A field is its polar factors (`Polar`): its value at x is
radial(|x|) * rate(atan2(x2, x1)), zero outside an optional polar sector.
One pass over them, `_polar_pass`, gives the value, the gradient and the
potential Phi, div Phi = pi, through which the solvers read the pressure
work; the rotation layer reads the factors themselves.  A factor that does
not vary is given as its number.  A field is signed exactly when it carries
the growth exponent that bounds its negative part.  The catalog covers the
trivial fields plus a smooth "quadrant bump": a compactly supported C^2 field
on {x1 > 0, x2 > 0, |x| > 1}, the product of a radial profile and one of two
angular rates ("strict" or "flat").  Rotating the four-lobe domain by alpha
sweeps out the integral of that rate, which is what the optimal-rotation
studies exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import Polynomial

_TINY = 1e-300  # floor of a radius that divides: unit vectors at the origin are 0, not NaN


class PressureError(ValueError):
    """Invalid pressure construction or misuse of a field."""


class Polar(NamedTuple):
    """Polar factors of a field, whose value at x is radial(|x|) * rate(atan2(x2, x1)):
    each a callable of an array or, when it does not vary, its number, and
    the radial potential A.  The radial factor (unless a number) and A
    should be module functions: the rotation layer keys cached weights by
    them, and a field is rebuilt on each access."""

    radial: Callable | float
    rate: Callable | float
    rate_d1: Callable | float    # derivative of rate
    radial_d1: Callable | float  # derivative of radial
    radial_potential: Callable   # A(rho) = integral of s radial(s) over [0, rho]


def polar_factor(factor, x):
    """A polar factor at x: a callable's values there, or the number it is given as."""
    return factor(x) if callable(factor) else factor


@dataclass(frozen=True)
class PressureField:
    name: str
    smoothness: str   # "lipschitz" | "c2" | "c3"
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    # points (n, 2) -> (Phi (n, 2), its Jacobian (n, 2, 2)): a potential with
    # div Phi = the field, through which the solvers read the pressure work
    potential: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    growth: float | None = None   # exponent bounding the negative part; None for a nonnegative field
    params: dict = field(default_factory=dict)
    # Polar sector (rho_lo, rho_hi, theta_lo, theta_hi), read modulo 2 pi, outside
    # which the value and the gradient are exactly zero (and so are the rates).
    support: tuple[float, float, float, float] | None = None
    # The factors `evaluate` and `gradient` derive from; the rotation layer and
    # the extension read a field only through them, and reject it without them.
    polar: Polar | None = None

    def __post_init__(self):
        if self.smoothness not in ("lipschitz", "c2", "c3"):
            raise PressureError(f"unknown smoothness class {self.smoothness!r}")

    @property
    def is_smooth(self) -> bool:
        return self.smoothness in ("c2", "c3")

    @property
    def sign_class(self) -> str:
        """"signed" exactly when a growth exponent bounds a negative part, else "nonnegative"."""
        return "nonnegative" if self.growth is None else "signed"


class _Taper(NamedTuple):  # the radial taper of an extension outside its core [r_in, r_out]
    r_in: float    # 0 in the ball case
    r_out: float
    delta: float
    slope: float
    lift: tuple[float, float] | None  # (cbar, gamma) of the majorant that lifts a signed field


def _majorant(lift, rho, d1=False):
    """h(rho) = max(cbar (1 + rho^gamma), 1 + cbar), or its derivative."""
    cbar, gamma = lift
    h = cbar * (1.0 + rho ** gamma)
    if not d1:
        return np.maximum(h, 1.0 + cbar)
    return np.where(h > 1.0 + cbar, cbar * gamma * np.maximum(rho, _TINY) ** (gamma - 1.0), 0.0)


def _majorant_potential(lift, rho):
    """The integral of s h(s) over [0, rho]: (1 + cbar) rho^2 / 2, plus beyond
    the knee where h leaves 1 + cbar the integral of s (h(s) - 1 - cbar)."""
    cbar, gamma = lift
    knee = cbar ** (-1.0 / gamma) if gamma > 0.0 else (0.0 if cbar > 1.0 else math.inf)
    out = 0.5 * (1.0 + cbar) * np.square(rho)
    if math.isinf(knee):
        return out

    def excess(t):
        return cbar * t ** (gamma + 2.0) / (gamma + 2.0) - 0.5 * t * t

    return out + excess(np.maximum(rho, knee)) - excess(knee)


def _on_rows(values, rows, n):
    out = np.zeros(n)
    out[rows] = values
    return out


def _polar_pass(polar: Polar, support, taper: _Taper | None, kind: str, points):
    """The "value", "gradient" or "potential" at `points` of the field of
    `polar` and `support`, tapered outside its core by `taper` when given.

    The factors are read where the angle lies in the support's sector, at
    r = rho clipped to the core.  In the core the gradient is radial_d1 rate
    e_rho + radial rate_d1 / rho e_theta.  In the taper the value is
    max(b - K t, 0) with b = radial(r) rate and t = |rho - r|, zero beyond
    delta, and the gradient, where that is positive, -+K e_rho + radial(r)
    rate_d1 / rho e_theta.  A signed field is lifted there by its majorant
    h: b = pi + h(r), and h(rho) is taken off again.

    The potential is Phi = (P / rho) e_rho and its Jacobian, with P(rho,
    theta) the integral of s pi(s, theta) from r0 (0, or the taper's inner
    radius) to rho, so that div Phi = pi.  In the core P = (A(r) - A(r0))
    rate.  The taper adds the integral of max(b - K t, 0), a cubic in t
    clipped to [0, min(delta, b / K)], and the lift takes off that of
    s h(s).  With q = P / rho^2 the Jacobian is q I + e_rho (x) ((pi - 2 q)
    e_rho + dP/dtheta / rho^2 e_theta)."""
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1] if kind == "value" else pts.shape
    pts = pts.reshape(-1, 2)
    n, rho = len(pts), np.hypot(pts[:, 0], pts[:, 1])
    if taper is not None:
        core = (rho >= taper.r_in) & (rho <= taper.r_out)
        if core.all():
            taper = None  # every point is trusted: the field as it is
    r = rho if taper is None else np.clip(rho, taper.r_in, taper.r_out)
    rows, theta = slice(None), None
    if support is not None or callable(polar.rate) or (kind != "value" and callable(polar.rate_d1)):
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        if support is not None:  # the sector, modulo 2 pi
            rows = np.flatnonzero(np.mod(theta - support[2], 2.0 * np.pi) <= support[3] - support[2])
            theta = theta[rows]
    radial, rate = polar_factor(polar.radial, r[rows]), polar_factor(polar.rate, theta)
    rate_d1 = None if kind == "value" else polar_factor(polar.rate_d1, theta)
    value = _on_rows(radial * rate, rows, n)
    if taper is not None:
        edge = value if taper.lift is None else value + _majorant(taper.lift, r)
        live = (rho >= taper.r_in - taper.delta) & (rho <= taper.r_out + taper.delta)
        base = np.where(live, edge - taper.slope * np.abs(rho - r), 0.0)
        lowered = 0.0 if taper.lift is None else _majorant(taper.lift, rho)
        value = np.where(core, value, np.maximum(base, 0.0) - lowered)
    if kind == "value":
        return value.reshape(shape)[()]

    safe = np.maximum(rho, _TINY)
    e_rho = pts / safe[:, None]
    e_theta = np.stack([-e_rho[:, 1], e_rho[:, 0]], axis=1)
    if kind == "potential":
        a = polar.radial_potential(r[rows]) - (0.0 if taper is None else polar.radial_potential(taper.r_in))
        p, p_theta = _on_rows(a * rate, rows, n), _on_rows(a * rate_d1, rows, n)
        if taper is not None:
            if taper.lift is not None:
                p -= _majorant_potential(taper.lift, rho) - _majorant_potential(taper.lift, r)
            k, sigma = taper.slope, np.sign(rho - r)
            t = np.clip(np.minimum(np.abs(rho - r), taper.delta), 0.0, np.maximum(edge, 0.0) / max(k, _TINY))
            # sigma times the integral of (r + sigma t) (b - K t) dt over [0, t], and its b-derivative
            p += sigma * r * edge * t + 0.5 * (edge - sigma * k * r) * t * t - k * t ** 3 / 3.0
            p_theta += (sigma * r * t + 0.5 * t * t) * _on_rows(radial * rate_d1, rows, n)
        q, q_theta = p / (safe * safe), p_theta / (safe * safe)
        jac = q[:, None, None] * np.eye(2) + e_rho[:, :, None] * (
            (value - 2.0 * q)[:, None] * e_rho + q_theta[:, None] * e_theta)[:, None, :]
        return q[:, None] * pts, jac

    # the coefficients of e_rho and e_theta: the field's own on the rows
    c_rho = _on_rows(polar_factor(polar.radial_d1, r[rows]) * rate, rows, n)
    c_theta = _on_rows(radial * rate_d1, rows, n)
    if taper is not None:
        positive = base > 0.0
        c_rho = np.where(core, c_rho, np.where(positive, -np.sign(rho - r) * taper.slope, 0.0))
        c_theta = np.where(core | positive, c_theta, 0.0)
        if taper.lift is not None:
            c_rho -= np.where(core, 0.0, _majorant(taper.lift, rho, d1=True))
    return (c_rho[:, None] * e_rho + (c_theta / safe)[:, None] * e_theta).reshape(shape)


def _passes(polar: Polar, support, taper: _Taper | None) -> dict:
    """The field's `evaluate`, `gradient` and `potential`: the polar pass of each kind."""
    return {name: partial(_polar_pass, polar, support, taper, kind)
            for name, kind in (("evaluate", "value"), ("gradient", "gradient"), ("potential", "potential"))}


def polar_field(name: str, smoothness: str, polar: Polar,
                support: tuple[float, float, float, float] | None = None,
                growth: float | None = None, params: dict | None = None) -> PressureField:
    """The field of the polar factors `polar`, zero outside `support`, signed
    when `growth` is given: its value, gradient and potential come from the
    polar pass."""
    return PressureField(name=name, smoothness=smoothness, growth=growth, params=dict(params or {}),
                         support=support, polar=polar, **_passes(polar, support, None))


# ---------------------------------------------------------------------------
# the quadrant bump


def _smoothstep7(t):
    """C^3 step: 0 at t<=0, 1 at t>=1, three vanishing derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t ** 3)


# The angular rates of the bump, by variant.  Each is nonnegative on [0, pi/2]
# and has three vanishing derivatives at both ends of its support, so its
# integral from 0, the angular profile that a rotation of the four-lobe domain
# sweeps out, rises from 0 to its peak at pi/2.
_QUARTER = 0.5 * math.pi
_FLAT_LO, _FLAT_WIDTH = math.pi / 4.0, math.pi / 8.0


def _strict_rate(a):
    """a^3 (pi/2 - a)^3 on [0, pi/2]: a strictly increasing profile."""
    a = np.asarray(a, dtype=float)
    return np.where((a >= 0.0) & (a <= _QUARTER), a ** 3 * (_QUARTER - a) ** 3, 0.0)


def _strict_rate_d1(a):
    a = np.asarray(a, dtype=float)
    return np.where((a >= 0.0) & (a <= _QUARTER), 3.0 * a ** 2 * (_QUARTER - a) ** 2 * (_QUARTER - 2.0 * a), 0.0)


def _flat_offset(a):
    s = (np.asarray(a, dtype=float) - _FLAT_LO) / _FLAT_WIDTH
    return (s > 0.0) & (s < 1.0), np.clip(s, 0.0, 1.0)


def _flat_rate(a):
    """256 (s (1 - s))^4, peak 1, in s = (a - pi/4) / (pi/8) on [pi/4, 3pi/8]: the profile has a flat zero set."""
    inside, s = _flat_offset(a)
    return np.where(inside, 256.0 * (s * (1.0 - s)) ** 4, 0.0)


def _flat_rate_d1(a):
    inside, s = _flat_offset(a)
    return np.where(inside, 256.0 * 4.0 * (s * (1.0 - s)) ** 3 * (1.0 - 2.0 * s) / _FLAT_WIDTH, 0.0)


# variant -> (rate, its derivative, the angle interval outside which the rate vanishes)
_BUMP_RATES = {
    "strict": (_strict_rate, _strict_rate_d1, (0.0, _QUARTER)),
    "flat": (_flat_rate, _flat_rate_d1, (_FLAT_LO, _FLAT_LO + _FLAT_WIDTH)),
}

_RADIAL_SUPPORT = (1.0, 3.0)   # the radial profile vanishes outside [1, 3]
_RADIAL_SCALE = 20.0 / 9.0


# The radial profile is one pair of module functions, shared by every bump, so
# that tables the rotation layer keys by it serve each field built from it.
def _radial(rho):
    """(20/9)(rho-1)^3 on [1,2], faded out smoothly on [2,3], zero beyond: it
    vanishes to second order at 1 and integrates to one against rho drho over [1, 2]."""
    rho = np.asarray(rho, dtype=float)
    base = np.where(rho >= 1.0, _RADIAL_SCALE * (rho - 1.0) ** 3, 0.0)
    return base * _smoothstep7(3.0 - rho)


def _radial_d1(rho):
    rho = np.asarray(rho, dtype=float)
    base = np.where(rho >= 1.0, _RADIAL_SCALE * (rho - 1.0) ** 3, 0.0)
    dbase = np.where(rho >= 1.0, 3.0 * _RADIAL_SCALE * (rho - 1.0) ** 2, 0.0)
    t = 3.0 - rho
    cut = _smoothstep7(t)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    dcut_dt = np.where(inside, tc ** 3 * (140.0 - 420.0 * tc + 420.0 * tc ** 2 - 140.0 * tc ** 3), 0.0)
    return dbase * cut - base * dcut_dt


# The integral of s _radial(s) from 1 on [1, 2] and [2, 3], each a polynomial
# in the offset t from its piece's left end (in s itself, the second piece
# loses 8 digits to cancellation); u = 1 - t is 3 - s on [2, 3].
_T = Polynomial([0.0, 1.0])
_U = 1.0 - _T
_INNER_POTENTIAL = (_RADIAL_SCALE * (_T + 1.0) * _T ** 3).integ()
_FADE = _U ** 4 * (35.0 - 84.0 * _U + 70.0 * _U ** 2 - 20.0 * _U ** 3)  # _smoothstep7(u)
_OUTER_POTENTIAL = (_RADIAL_SCALE * (_T + 2.0) * (_T + 1.0) ** 3 * _FADE).integ() + _INNER_POTENTIAL(1.0)


def _radial_potential(rho):
    """The integral of s _radial(s) over [0, rho]: zero below 1, constant above 3."""
    rho = np.asarray(rho, dtype=float)
    return np.where(rho <= 2.0, _INNER_POTENTIAL(np.clip(rho - 1.0, 0.0, 1.0)),
                    _OUTER_POTENTIAL(np.clip(rho - 2.0, 0.0, 1.0)))


def quadrant_bump_pressure(variant: str) -> PressureField:
    """Smooth nonnegative field psi(|x|) * rate(atan2(x2, x1)) on the first-quadrant
    outer lobe, with the angular rate of `variant`; its support is the radial
    band [1, 3] times the rate's angle interval."""
    if variant not in _BUMP_RATES:
        raise PressureError(f"unknown bump variant {variant!r}")
    rate, rate_d1, angles = _BUMP_RATES[variant]
    return polar_field("quadrant_bump", "c2", Polar(_radial, rate, rate_d1, _radial_d1, _radial_potential),
                       support=_RADIAL_SUPPORT + angles, params={"variant": variant})


# ---------------------------------------------------------------------------
# built-in catalog


def builtin_pressure(name: str, params: dict | None = None, variant: str | None = None) -> PressureField:
    """The catalog field `name`.  Its params and variant take no defaults here:
    `config.SCHEMA` states them."""
    params = params or {}
    if name == "zero":
        return constant_pressure(0.0, name="zero")
    if name == "constant":
        return constant_pressure(float(params["value"]))
    if name == "hydrostatic":
        return hydrostatic_pressure(float(params["coefficient"]))
    if name == "quadrant_bump":
        return quadrant_bump_pressure(variant)
    raise PressureError(f"unknown pressure name {name!r}")


# The radial factor of the hydrostatic field, a module function for the same
# reason as the bump's `_radial`.
def _linear_radial(rho):
    return np.asarray(rho, dtype=float)


def _linear_potential(rho):
    return np.asarray(rho, dtype=float) ** 3 / 3.0


def _half_square(rho):  # the radial potential of the constant field's radial factor 1
    return 0.5 * np.square(rho)


def constant_pressure(value: float, name: str = "constant") -> PressureField:
    """The field `value` everywhere: radial 1 times the constant rate `value`.
    A negative value is signed, with growth 0."""
    return polar_field(name, "c3", Polar(1.0, float(value), 0.0, 0.0, _half_square),
                       growth=0.0 if value < 0.0 else None, params={"value": value})


def hydrostatic_pressure(coefficient: float) -> PressureField:
    """Depth-proportional field: coefficient times the negative part of the height,
    which is rho times the rate coefficient * max(-sin theta, 0).  A negative
    coefficient is signed, with growth 1."""

    def rate(theta):
        return coefficient * np.maximum(-np.sin(theta), 0.0)

    def rate_d1(theta):
        return np.where(np.sin(theta) < 0.0, -coefficient * np.cos(theta), 0.0)

    return polar_field("hydrostatic", "lipschitz", Polar(_linear_radial, rate, rate_d1, 1.0, _linear_potential),
                       growth=1.0 if coefficient < 0.0 else None, params={"coefficient": coefficient})


# ---------------------------------------------------------------------------
# Lipschitz extension

_EXTENSION_SAMPLES = 1024  # points on each trusted circle (and 1/8 of that per probe ring) that fit the taper slope


def _sample_annulus(r_lo: float, r_hi: float, n_r: int, n_t: int) -> np.ndarray:
    r = np.linspace(max(r_lo, 1e-9), r_hi, n_r)
    t = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
    rr, tt = np.meshgrid(r, t, indexing="ij")
    return np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1).reshape(-1, 2)


def extend_pressure(pi: PressureField, r_inner: float | None, r_outer: float, delta: float) -> PressureField:
    """Taper `pi` radially outside the annulus (or ball) where it is trusted.

    Inside [r_inner, r_outer] (or [0, r_outer] when r_inner is None) the output
    coincides with `pi`.  Going outward (and inward, in the annulus case) the
    value decreases at the sampled slope K = max(Lipschitz bound, M/delta) and
    is clamped at zero, which keeps the result everywhere <= `pi` and, for a
    nonnegative field, nonnegative with compact support.  A signed field is
    lifted by its growth majorant, fitted to the negative part on a probe
    grid, tapered, and lowered again.  The polar pass derives the extension
    from the factors of `pi`: a field without them raises PressureError.
    """
    if pi.polar is None:
        raise PressureError(f"field {pi.name!r} declares no polar factors to extend")
    if delta <= 0.0:
        raise PressureError("extension margin delta must be positive")
    ball_case = r_inner is None or r_inner <= 0.0
    if not ball_case and delta >= r_inner:
        raise PressureError("extension requires delta < r_inner")
    if r_outer <= 0.0 or (not ball_case and r_inner >= r_outer):
        raise PressureError("extension requires 0 < r_inner < r_outer")

    lift = None
    if pi.growth is not None:  # signed
        probe = _sample_annulus(0.0, 10.0 * r_outer, 160, 64)
        neg = np.maximum(-pi.evaluate(probe), 0.0)
        cbar = max(float(np.max(neg / (1.0 + np.hypot(probe[:, 0], probe[:, 1]) ** pi.growth))), 1e-12)
        lift = (cbar, pi.growth)

    # Sampled Lipschitz and circle-maximum bounds of the (lifted) field.
    lo = 0.0 if ball_case else r_inner - delta
    probe = _sample_annulus(lo, r_outer + delta, 96, _EXTENSION_SAMPLES // 8)
    circles = np.concatenate([_sample_annulus(r, r, 1, _EXTENSION_SAMPLES) for r in ([r_outer] if ball_case else [r_outer, r_inner])])
    grad, top = pi.gradient(probe), pi.evaluate(circles)
    if lift is not None:
        rho = np.hypot(probe[:, 0], probe[:, 1])
        grad = grad + (_majorant(lift, rho, d1=True) / np.maximum(rho, _TINY))[:, None] * probe
        top = top + _majorant(lift, np.hypot(circles[:, 0], circles[:, 1]))
    lip = float(np.max(np.hypot(*grad.T)))
    slope = max(lip, max(float(np.max(top)), 0.0) / delta)

    taper = _Taper(0.0 if ball_case else float(r_inner), r_outer, delta, slope, lift)
    return PressureField(
        name=pi.name + "_extended", smoothness="lipschitz", growth=pi.growth,
        params=dict(pi.params, extension={"r_inner": r_inner, "r_outer": r_outer, "delta": delta, "slope": slope}),
        **_passes(pi.polar, pi.support, taper),
    )
