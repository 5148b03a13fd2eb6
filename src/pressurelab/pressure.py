"""Pressure intensity fields and their Lipschitz extensions.

A `PressureField` packs vectorized point evaluation and gradient callables with
metadata (sign class, smoothness class, growth exponent of the negative part,
support and polar factorization).  The built-in catalog covers the trivial
fields, each separable in polar coordinates, plus a smooth "quadrant bump":
a compactly supported C^2 field living on {x1 > 0, x2 > 0, |x| > 1}, built from
a radial profile and the derivative of an angular profile.  That field pairs
with the four-lobe domain: rotating the domain by alpha sweeps out exactly the
angular profile, which is what the optimal-rotation studies exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HALF_PI = 0.5 * math.pi


class PressureError(ValueError):
    """Invalid pressure construction or misuse of a field."""


@dataclass(frozen=True)
class PressureField:
    name: str
    sign_class: str   # "nonnegative" | "signed"
    smoothness: str   # "lipschitz" | "c2" | "c3"
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    growth: float | None = None   # exponent bounding the negative part, if signed
    params: dict = field(default_factory=dict)
    # Polar sector (rho_lo, rho_hi, theta_lo, theta_hi) outside which the value
    # and the gradient are exactly zero; None means they may be nonzero anywhere.
    support: tuple[float, float, float, float] | None = None
    # Polar factorization (radial, rate, rate_d1): evaluate(x) equals
    # radial(|x|) * rate(atan2(x2, x1)), rate_d1 is the derivative of rate, and,
    # when `support` is declared, both rates vanish outside its angular range.
    # The rotation layer reads a field only through it and rejects a field
    # without it.  `radial` should be a module-level function: the rotation
    # layer keys its cached weights by it, and a field is rebuilt on each access.
    polar: tuple[Callable, Callable, Callable] | None = None

    def __post_init__(self):
        if self.sign_class not in ("nonnegative", "signed"):
            raise PressureError(f"unknown sign class {self.sign_class!r}")
        if self.smoothness not in ("lipschitz", "c2", "c3"):
            raise PressureError(f"unknown smoothness class {self.smoothness!r}")

    @property
    def is_smooth(self) -> bool:
        return self.smoothness in ("c2", "c3")


def _as_points(points):
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 1
    return np.atleast_2d(pts), scalar


def _scalar_out(vals, scalar):
    return float(vals[0]) if scalar else vals


def _vector_out(vals, scalar):
    return vals[0] if scalar else vals


# ---------------------------------------------------------------------------
# profiles for the quadrant bump


def _smoothstep7(t):
    """C^3 step: 0 at t<=0, 1 at t>=1, three vanishing derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t ** 3)


@dataclass(frozen=True)
class BumpProfile:
    """Angular profile (through its rate) and radial profile of the bump field.

    The angular profile `angular` is nonnegative, vanishes at 0, peaks at pi/2,
    and has three vanishing derivatives at both endpoints.  The radial profile
    vanishes to second order at 1 and integrates to one against rho drho over
    [1, 2].
    """

    variant: str
    angular: Callable        # alpha in [0, pi/2] -> value
    angular_rate: Callable   # derivative of `angular`
    angular_rate_d1: Callable
    radial: Callable         # rho >= 1 -> value
    radial_d1: Callable
    angular_total: float     # angular(pi/2)
    rate_support: tuple[float, float]   # the rate vanishes outside this angle interval


def strict_profile() -> BumpProfile:
    """Strictly increasing angular profile with rate a^3 (pi/2 - a)^3."""
    c = HALF_PI

    def rate(a):
        a = np.asarray(a, dtype=float)
        inside = (a >= 0.0) & (a <= c)
        return np.where(inside, a ** 3 * (c - a) ** 3, 0.0)

    def rate_d1(a):
        a = np.asarray(a, dtype=float)
        inside = (a >= 0.0) & (a <= c)
        return np.where(inside, 3.0 * a ** 2 * (c - a) ** 2 * (c - 2.0 * a), 0.0)

    def angular(a):
        a = np.clip(np.asarray(a, dtype=float), 0.0, c)
        return (c ** 3) * a ** 4 / 4.0 - 0.6 * (c ** 2) * a ** 5 + 0.5 * c * a ** 6 - a ** 7 / 7.0

    total = float(angular(c))
    return BumpProfile(
        variant="strict", angular=angular, angular_rate=rate, angular_rate_d1=rate_d1,
        radial=_radial, radial_d1=_radial_d1, angular_total=total, rate_support=(0.0, c),
    )


def flat_profile() -> BumpProfile:
    """Angular rate supported in [pi/4, 3pi/8]: the profile has a flat zero set."""
    lo = math.pi / 4.0
    w = math.pi / 8.0
    scale = 256.0  # peak rate 1 at the center of the support

    def rate(a):
        s = (np.asarray(a, dtype=float) - lo) / w
        inside = (s > 0.0) & (s < 1.0)
        s = np.clip(s, 0.0, 1.0)
        return np.where(inside, scale * (s * (1.0 - s)) ** 4, 0.0)

    def rate_d1(a):
        s = (np.asarray(a, dtype=float) - lo) / w
        inside = (s > 0.0) & (s < 1.0)
        s = np.clip(s, 0.0, 1.0)
        return np.where(inside, scale * 4.0 * (s * (1.0 - s)) ** 3 * (1.0 - 2.0 * s) / w, 0.0)

    def _bump_int(s):
        return s ** 5 / 5.0 - 2.0 * s ** 6 / 3.0 + 6.0 * s ** 7 / 7.0 - s ** 8 / 2.0 + s ** 9 / 9.0

    def angular(a):
        s = np.clip((np.asarray(a, dtype=float) - lo) / w, 0.0, 1.0)
        return scale * w * _bump_int(s)

    total = float(angular(lo + w))
    return BumpProfile(
        variant="flat", angular=angular, angular_rate=rate, angular_rate_d1=rate_d1,
        radial=_radial, radial_d1=_radial_d1, angular_total=total, rate_support=(lo, lo + w),
    )


_RADIAL_SUPPORT = (1.0, 3.0)   # the radial profile vanishes outside [1, 3]


_RADIAL_SCALE = 20.0 / 9.0


# The radial profile is one pair of module functions, shared by every bump, so
# that tables the rotation layer keys by it serve each field built from it.
def _radial(rho):
    """(20/9)(rho-1)^3 on [1,2], faded out smoothly on [2,3], zero beyond."""
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


def profile_for_variant(variant: str) -> BumpProfile:
    if variant == "strict":
        return strict_profile()
    if variant == "flat":
        return flat_profile()
    raise PressureError(f"unknown bump variant {variant!r}")


def quadrant_bump_pressure(profile: BumpProfile | str = "strict") -> PressureField:
    """Smooth nonnegative field psi(|x|) * rate(atan2(x2, x1)) on the first-quadrant outer lobe."""
    if not isinstance(profile, BumpProfile):
        profile = profile_for_variant(profile)

    def evaluate(points):
        pts, scalar = _as_points(points)
        x1, x2 = pts[..., 0], pts[..., 1]
        rho = np.hypot(x1, x2)
        vals = np.zeros(pts.shape[:-1])
        mask = (x1 > 0.0) & (x2 > 0.0) & (rho > 1.0)
        if np.any(mask):
            theta = np.arctan2(x2[mask], x1[mask])
            vals[mask] = profile.radial(rho[mask]) * profile.angular_rate(theta)
        return _scalar_out(vals, scalar)

    def gradient(points):
        pts, scalar = _as_points(points)
        x1, x2 = pts[..., 0], pts[..., 1]
        rho = np.hypot(x1, x2)
        out = np.zeros(pts.shape)
        mask = (x1 > 0.0) & (x2 > 0.0) & (rho > 1.0)
        if np.any(mask):
            r = rho[mask]
            theta = np.arctan2(x2[mask], x1[mask])
            er = np.stack([x1[mask] / r, x2[mask] / r], axis=-1)
            et = np.stack([-x2[mask] / r, x1[mask] / r], axis=-1)
            radial_part = profile.radial_d1(r) * profile.angular_rate(theta)
            angular_part = profile.radial(r) * profile.angular_rate_d1(theta) / r
            out[mask] = radial_part[..., None] * er + angular_part[..., None] * et
        return _vector_out(out, scalar)

    return PressureField(
        name="quadrant_bump", sign_class="nonnegative", smoothness="c2",
        evaluate=evaluate, gradient=gradient, growth=None,
        params={"variant": profile.variant},
        support=_RADIAL_SUPPORT + profile.rate_support,
        polar=(profile.radial, profile.angular_rate, profile.angular_rate_d1),
    )


# ---------------------------------------------------------------------------
# built-in catalog


def builtin_pressure(name: str, params: dict | None = None, variant: str | None = None) -> PressureField:
    params = dict(params or {})
    if name == "zero":
        return constant_pressure(0.0, name="zero")
    if name == "constant":
        return constant_pressure(float(params.get("value", 1.0)))
    if name == "hydrostatic":
        return hydrostatic_pressure(float(params.get("coefficient", 1.0)))
    if name in ("quadrant_bump", "example52"):
        return quadrant_bump_pressure(variant or params.get("variant", "strict"))
    raise PressureError(f"unknown pressure name {name!r}")


# The radial factors of the constant and hydrostatic fields, module functions
# for the same reason as the bump's `_radial`.
def _unit_radial(rho):
    return np.ones_like(rho, dtype=float)


def _linear_radial(rho):
    return np.asarray(rho, dtype=float)


def constant_pressure(value: float, name: str = "constant") -> PressureField:
    """The field `value` everywhere: radial 1 times the constant rate `value`."""

    def evaluate(points):
        pts, scalar = _as_points(points)
        return _scalar_out(np.full(pts.shape[:-1], float(value)), scalar)

    def gradient(points):
        pts, scalar = _as_points(points)
        return _vector_out(np.zeros(pts.shape), scalar)

    def rate(theta):
        return np.full(np.shape(theta), float(value))

    def rate_d1(theta):
        return np.zeros(np.shape(theta))

    sign = "nonnegative" if value >= 0.0 else "signed"
    return PressureField(
        name=name, sign_class=sign, smoothness="c3",
        evaluate=evaluate, gradient=gradient,
        growth=0.0 if value < 0.0 else None, params={"value": value},
        polar=(_unit_radial, rate, rate_d1),
    )


def hydrostatic_pressure(coefficient: float = 1.0) -> PressureField:
    """Depth-proportional field: coefficient times the negative part of the height,
    which is rho times the rate coefficient * max(-sin theta, 0)."""

    def evaluate(points):
        pts, scalar = _as_points(points)
        return _scalar_out(coefficient * np.maximum(-pts[..., 1], 0.0), scalar)

    def gradient(points):
        pts, scalar = _as_points(points)
        out = np.zeros(pts.shape)
        out[..., 1] = np.where(pts[..., 1] < 0.0, -coefficient, 0.0)
        return _vector_out(out, scalar)

    def rate(theta):
        return coefficient * np.maximum(-np.sin(theta), 0.0)

    def rate_d1(theta):
        return np.where(np.sin(theta) < 0.0, -coefficient * np.cos(theta), 0.0)

    return PressureField(
        name="hydrostatic", sign_class="nonnegative", smoothness="lipschitz",
        evaluate=evaluate, gradient=gradient, params={"coefficient": coefficient},
        polar=(_linear_radial, rate, rate_d1),
    )


# ---------------------------------------------------------------------------
# Lipschitz extension

_EXTENSION_SAMPLES = 1024  # points on each trusted circle (and 1/8 of that per probe ring) that fit the taper slope


def _sample_circle(radius: float, n: int) -> np.ndarray:
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def _sample_annulus(r_lo: float, r_hi: float, n_r: int, n_t: int) -> np.ndarray:
    r = np.linspace(max(r_lo, 1e-9), r_hi, n_r)
    t = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
    rr, tt = np.meshgrid(r, t, indexing="ij")
    return np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1).reshape(-1, 2)


def extend_pressure(
    pi: PressureField,
    r_inner: float | None,
    r_outer: float,
    delta: float,
) -> PressureField:
    """Taper `pi` radially outside the annulus (or ball) where it is trusted.

    Inside [r_inner, r_outer] (or [0, r_outer] when r_inner is None) the output
    coincides with `pi`.  Going outward (and inward, in the annulus case) the
    value decreases at the sampled slope K = max(Lipschitz bound, M/delta) and
    is clamped at zero, which keeps the result everywhere <= `pi` and, for a
    nonnegative field, nonnegative with compact support.  Signed fields are
    first shifted up by their growth majorant, whose constant is fitted to
    the negative part on a probe grid, extended, and shifted back.
    Points that all lie in the trusted region go to `pi` as they are.
    """
    if delta <= 0.0:
        raise PressureError("extension margin delta must be positive")
    ball_case = r_inner is None or r_inner <= 0.0
    if not ball_case and delta >= r_inner:
        raise PressureError("extension requires delta < r_inner")
    if r_outer <= 0.0 or (not ball_case and r_inner >= r_outer):
        raise PressureError("extension requires 0 < r_inner < r_outer")

    if pi.sign_class == "signed":
        gamma = pi.growth
        if gamma is None:
            raise PressureError("signed pressure needs a growth exponent for extension")
        probe = _sample_annulus(0.0, 10.0 * r_outer, 160, 64)
        neg = np.maximum(-pi.evaluate(probe), 0.0)
        cbar = max(float(np.max(neg / (1.0 + np.hypot(probe[:, 0], probe[:, 1]) ** gamma))), 1e-12)

        def majorant(pts):
            pts, scalar = _as_points(pts)
            h = np.maximum(cbar * (1.0 + np.hypot(pts[..., 0], pts[..., 1]) ** gamma), 1.0 + cbar)
            return _scalar_out(h, scalar)

        def majorant_grad(pts):
            pts, scalar = _as_points(pts)
            r = np.hypot(pts[..., 0], pts[..., 1])
            active = cbar * (1.0 + r ** gamma) > (1.0 + cbar)
            mag = np.where(active & (r > 0.0), cbar * gamma * np.maximum(r, 1e-300) ** (gamma - 1.0), 0.0)
            out = np.zeros(pts.shape)
            nonzero = r > 0.0
            out[nonzero] = (mag[nonzero] / r[nonzero])[:, None] * pts[nonzero]
            return _vector_out(out, scalar)

        shifted = PressureField(
            name=pi.name + "+majorant", sign_class="nonnegative", smoothness="lipschitz",
            evaluate=lambda pts: pi.evaluate(pts) + majorant(pts),
            gradient=lambda pts: pi.gradient(pts) + majorant_grad(pts),
        )
        hat = extend_pressure(shifted, r_inner, r_outer, delta)
        return PressureField(
            name=pi.name + "_extended", sign_class="signed", smoothness="lipschitz",
            evaluate=lambda pts: hat.evaluate(pts) - majorant(pts),
            gradient=lambda pts: hat.gradient(pts) - majorant_grad(pts),
            growth=gamma, params=dict(pi.params, extension={"r_inner": r_inner, "r_outer": r_outer, "delta": delta}),
        )

    # Sampled Lipschitz and circle-maximum bounds.
    lo = 0.0 if ball_case else r_inner - delta
    probe = _sample_annulus(lo, r_outer + delta, 96, _EXTENSION_SAMPLES // 8)
    lip = float(np.max(np.hypot(*pi.gradient(probe).T))) if len(probe) else 0.0
    circles = [_sample_circle(r_outer, _EXTENSION_SAMPLES)]
    if not ball_case:
        circles.append(_sample_circle(r_inner, _EXTENSION_SAMPLES))
    m_top = float(max(np.max(pi.evaluate(c)) for c in circles))
    m_top = max(m_top, 0.0)
    slope = max(lip, m_top / delta)

    r_in = 0.0 if ball_case else float(r_inner)

    def evaluate(points):
        pts, scalar = _as_points(points)
        s = np.hypot(pts[..., 0], pts[..., 1])
        core = (s <= r_outer) if ball_case else ((s >= r_in) & (s <= r_outer))
        if np.all(core):
            return pi.evaluate(points)
        out = np.zeros(pts.shape[:-1])
        if np.any(core):
            out[core] = pi.evaluate(pts[core])
        outer = (s > r_outer) & (s <= r_outer + delta)
        if np.any(outer):
            proj = pts[outer] * (r_outer / s[outer])[:, None]
            out[outer] = np.maximum(pi.evaluate(proj) - slope * (s[outer] - r_outer), 0.0)
        if not ball_case:
            inner = (s < r_in) & (s >= r_in - delta)
            if np.any(inner):
                safe = np.maximum(s[inner], 1e-300)
                proj = pts[inner] * (r_in / safe)[:, None]
                out[inner] = np.maximum(pi.evaluate(proj) - slope * (r_in - s[inner]), 0.0)
        return _scalar_out(out, scalar)

    def gradient(points):
        pts, scalar = _as_points(points)
        s = np.hypot(pts[..., 0], pts[..., 1])
        core = (s <= r_outer) if ball_case else ((s >= r_in) & (s <= r_outer))
        if np.all(core):
            return pi.gradient(points)
        out = np.zeros(pts.shape)
        if np.any(core):
            out[core] = pi.gradient(pts[core])

        def taper_grad(sel, r_ref, sgn):
            safe = np.maximum(s[sel], 1e-300)
            unit = pts[sel] / safe[:, None]
            proj = pts[sel] * (r_ref / safe)[:, None]
            base = pi.evaluate(proj) - slope * sgn * (s[sel] - r_ref)
            g_proj = pi.gradient(proj)
            tangential = g_proj - np.einsum("ij,ij->i", g_proj, unit)[:, None] * unit
            g = (r_ref / safe)[:, None] * tangential - (sgn * slope) * unit
            g[base <= 0.0] = 0.0
            out[sel] = g

        outer = (s > r_outer) & (s <= r_outer + delta)
        if np.any(outer):
            taper_grad(outer, r_outer, +1.0)
        if not ball_case:
            inner = (s < r_in) & (s >= r_in - delta)
            if np.any(inner):
                taper_grad(inner, r_in, -1.0)
        return _vector_out(out, scalar)

    return PressureField(
        name=pi.name + "_extended", sign_class="nonnegative", smoothness="lipschitz",
        evaluate=evaluate, gradient=gradient,
        params=dict(pi.params, extension={"r_inner": r_inner, "r_outer": r_outer, "delta": delta, "slope": slope}),
    )
