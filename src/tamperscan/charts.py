"""Hand-rolled SVG detection charts.

One chart per state: global significance versus flipped votes, one polyline
per (county, direction) curve, a dashed vertical at the state margin and a
dashed horizontal at the 4 sigma detection threshold. Pure string assembly
with fixed-precision coordinates, so identical curves always produce an
identical file.
"""

from __future__ import annotations

import numpy as np

from .data_model import format_floats
from .errors import ConfigError
from .scenarios import DETECTION_SIGMA, Direction, SweepCurve

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 42
MARGIN_BOTTOM = 56

COLOR_R_TO_D = "#1f5fbf"   # flipping Republican votes
COLOR_D_TO_R = "#c22f2f"   # flipping Democratic votes
COLOR_GUIDE = "#555555"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def sweep_chart_svg(curves: list[SweepCurve], state: str, comment: str = "") -> str:
    """Render the detection curves of one state to an SVG document string.

    Each polyline's points are "%.2f,%.2f" pairs joined by spaces, written
    by one `format_floats` call, so in C where it is available.
    """
    curves = [c for c in curves if c.state == state]
    if not curves:
        raise ConfigError(f"no sweep curves for state {state}")
    margin = curves[0].margin
    # ks are strictly increasing within a curve, so its last k is its largest
    k_max = max(max(int(c.ks[-1]) for c in curves), margin)
    sigma_max = max(6.0, max(float(c.sigmas.max()) for c in curves) + 0.5)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(k: float) -> float:
        return MARGIN_LEFT + plot_w * (k / k_max)

    def sy(sigma: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - sigma / sigma_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    ]
    if comment:
        parts.append(f"<!-- {_escape(comment)} -->")
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{_escape(state)}: detectability of flipped votes</text>'
    )

    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = int(round(frac * k_max))
        x = sx(k)
        parts.append(f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{k:,}</text>'
        )
    tick = 0
    while tick <= sigma_max:
        y = sy(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 9}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick}</text>'
        )
        tick += 1
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">flipped votes k</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">global significance</text>'
    )

    # guides: detection threshold and state margin
    y4 = sy(DETECTION_SIGMA)
    parts.append(
        f'<line x1="{x0}" y1="{_fmt(y4)}" x2="{x0 + plot_w}" y2="{_fmt(y4)}" '
        f'stroke="{COLOR_GUIDE}" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<text x="{x0 + plot_w - 4}" y="{_fmt(y4 - 5)}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="{COLOR_GUIDE}">{DETECTION_SIGMA:g} sigma</text>'
    )
    if margin <= k_max:
        xm = sx(margin)
        parts.append(
            f'<line x1="{_fmt(xm)}" y1="{MARGIN_TOP}" x2="{_fmt(xm)}" y2="{y0}" '
            f'stroke="{COLOR_GUIDE}" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{_fmt(xm + 4)}" y="{MARGIN_TOP + 14}" font-family="sans-serif" '
            f'font-size="11" fill="{COLOR_GUIDE}">margin {margin:,}</text>'
        )

    for curve in curves:
        color = COLOR_R_TO_D if curve.direction is Direction.R_TO_D else COLOR_D_TO_R
        # sx and sy over whole arrays: the same float64 operations in the same order
        x = MARGIN_LEFT + plot_w * (curve.ks / k_max)
        y = MARGIN_TOP + plot_h * (1.0 - curve.sigmas / sigma_max)
        points = format_floats(" %.2f,%.2f", np.column_stack([x, y]), reps=x.size)[1:]
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.2" stroke-opacity="0.75">'
            f"<title>{_escape(curve.county)} ({curve.direction.value})</title></polyline>"
        )

    lx = x0 + 10
    parts.append(
        f'<line x1="{lx}" y1="{MARGIN_TOP + 10}" x2="{lx + 24}" y2="{MARGIN_TOP + 10}" '
        f'stroke="{COLOR_R_TO_D}" stroke-width="2"/>'
        f'<text x="{lx + 30}" y="{MARGIN_TOP + 14}" font-family="sans-serif" '
        f'font-size="11">flip R to D</text>'
    )
    parts.append(
        f'<line x1="{lx}" y1="{MARGIN_TOP + 26}" x2="{lx + 24}" y2="{MARGIN_TOP + 26}" '
        f'stroke="{COLOR_D_TO_R}" stroke-width="2"/>'
        f'<text x="{lx + 30}" y="{MARGIN_TOP + 30}" font-family="sans-serif" '
        f'font-size="11">flip D to R</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_chart(curves, state: str, path, comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sweep_chart_svg(curves, state, comment=comment))
