"""Minimal deterministic SVG emitters for line and polar charts (no plotting deps)."""

from __future__ import annotations

import math

import numpy as np

_W, _H = 640, 440
_MARGIN = 60
_COLORS = ("#1f6fb2", "#c23b22", "#2e8540", "#8a5fb0", "#b58900")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
    ]


def line_chart(path: str, x, series: dict[str, np.ndarray], title: str = "",
               xlabel: str = "", ylabel: str = "", logx: bool = False) -> None:
    """Polylines of each series over x."""
    x = np.asarray(x, dtype=float)
    if logx:
        x = np.log10(x)
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    all_y = np.concatenate([v for v in ys.values()]) if ys else np.array([0.0, 1.0])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return _MARGIN + (v - x_lo) / (x_hi - x_lo) * (_W - 2 * _MARGIN)

    def sy(v):
        return _H - _MARGIN - (v - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)

    parts = _open(title)
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2*_MARGIN}" '
        f'height="{_H - 2*_MARGIN}" fill="none" stroke="#888"/>'
    )
    for i, (label, yv) in enumerate(ys.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(x, yv))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_W - _MARGIN + 4}" y="{_MARGIN + 16 * (i + 1)}" font-family="monospace" '
            f'font-size="11" fill="{color}" text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{_W/2}" y="{_H - 16}" text-anchor="middle" font-family="monospace" '
        f'font-size="12">{xlabel}{" (log10)" if logx else ""}</text>'
    )
    parts.append(
        f'<text x="18" y="{_H/2}" text-anchor="middle" font-family="monospace" font-size="12" '
        f'transform="rotate(-90 18 {_H/2})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def polar_chart(path: str, alphas, values, title: str = "") -> None:
    """Radius-encoded periodic profile: r = r0 + scaled value at each angle."""
    alphas = np.asarray(alphas, dtype=float)
    values = np.asarray(values, dtype=float)
    cx, cy = _W / 2.0, (_H + 20) / 2.0
    r0 = 60.0
    r1 = min(_W, _H) / 2.0 - 70.0
    vmax = float(np.max(np.abs(values))) or 1.0
    rr = r0 + (values / vmax) * (r1 - r0)
    xs = cx + rr * np.cos(alphas)
    ys = cy - rr * np.sin(alphas)
    parts = _open(title)
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r0}" fill="none" stroke="#bbb" stroke-dasharray="4 3"/>')
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r1}" fill="none" stroke="#ddd"/>')
    for k in range(4):
        a = k * math.pi / 2.0
        parts.append(
            f'<line x1="{cx}" y1="{cy}" x2="{_fmt(cx + r1 * math.cos(a))}" '
            f'y2="{_fmt(cy - r1 * math.sin(a))}" stroke="#eee"/>'
        )
    pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(xs, ys))
    parts.append(f'<polyline points="{pts} {_fmt(xs[0])},{_fmt(ys[0])}" fill="none" '
                 f'stroke="{_COLORS[0]}" stroke-width="1.5"/>')
    parts.append(f'<text x="{cx}" y="{cy + 4}" text-anchor="middle" font-family="monospace" '
                 f'font-size="11">baseline = min</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
