"""Deterministic SVG ribbon plots, no plotting dependencies.

A ribbon is a filled polygon between a low and a high quantile polyline;
lines are drawn on top.  The x axis is log10-scaled (sample sizes).  All
numbers are written with %.10g so rerenders are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 64
_MARGIN_R = 18
_MARGIN_T = 34
_MARGIN_B = 46
_BAND_OPACITY = 0.45


def _fmt(v: float) -> str:
    return f"{v:.10g}"


@dataclass(frozen=True)
class Band:
    label: str
    low: tuple[float, ...]
    high: tuple[float, ...]
    color: str = "#87ceeb"


@dataclass(frozen=True)
class Line:
    label: str
    values: tuple[float, ...]
    color: str = "#1f3a5f"
    dasharray: str = ""  # empty = solid


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(t) < 1e-15 else t)
        if t + step == t:  # a range too narrow for this step to move t
            break
        t += step
    return ticks


def ribbon_plot_svg(
    x_values,
    bands: list[Band],
    lines: list[Line],
    title: str,
    y_label: str = "",
) -> str:
    """Render ribbons and lines over a log10 x axis to an SVG string."""
    xs = [float(v) for v in x_values]
    if any(v <= 0.0 for v in xs):
        raise ValueError("log-scaled x values must be positive")
    for b in bands:
        if len(b.low) != len(xs) or len(b.high) != len(xs):
            raise ValueError(f"band {b.label!r} does not match the x grid")
    for l in lines:
        if len(l.values) != len(xs):
            raise ValueError(f"line {l.label!r} does not match the x grid")

    all_y = [v for b in bands for v in (*b.low, *b.high)] + [v for l in lines for v in l.values]
    if not all_y:
        raise ValueError("nothing to plot")
    y_lo, y_hi = min(all_y), max(all_y)
    pad = 0.06 * (y_hi - y_lo) if y_hi > y_lo else max(0.5, abs(y_hi) * 0.1)
    y_lo -= pad
    y_hi += pad

    lx_lo, lx_hi = math.log10(xs[0]), math.log10(xs[-1])
    if lx_hi <= lx_lo:
        lx_hi = lx_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + plot_w * (math.log10(v) - lx_lo) / (lx_hi - lx_lo)

    def py(v: float) -> float:
        return _MARGIN_T + plot_h * (y_hi - v) / (y_hi - y_lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_L}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
    ]

    # axes box and ticks
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for xv in xs:
        parts.append(
            f'<line x1="{_fmt(px(xv))}" y1="{y0}" x2="{_fmt(px(xv))}" y2="{y0 + 5}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(xv))}" y="{y0 + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_fmt(xv)}</text>'
        )
    for tv in _nice_ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py(tv))}" x2="{x0}" y2="{_fmt(py(tv))}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py(tv) + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_fmt(tv)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.10g}" y="{_HEIGHT - 10}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">n</text>'
    )
    if y_label:
        parts.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.10g}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.10g})">{y_label}</text>'
        )

    for b in bands:
        pts = [f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in zip(xs, b.high)]
        pts += [f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in zip(reversed(xs), reversed(b.low))]
        parts.append(
            f'<polygon points="{" ".join(pts)}" fill="{b.color}" '
            f'fill-opacity="{_fmt(_BAND_OPACITY)}" stroke="none"><title>{b.label}</title></polygon>'
        )
    for l in lines:
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in zip(xs, l.values))
        dash = f' stroke-dasharray="{l.dasharray}"' if l.dasharray else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{l.color}" '
            f'stroke-width="1.5"{dash}><title>{l.label}</title></polyline>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
