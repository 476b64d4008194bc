"""Deterministic SVG pictures of support cells and codebooks.

Output is plain SVG 1.1 text built from exact rationals: coordinates
are rounded once, to a fixed three-decimal grid, so a given (n, depth,
variant) triple always renders byte-identical output on any platform.
"""

from __future__ import annotations

from fractions import Fraction

from .measure import cell_interval
from .optimal import grid_cells, optimal_codebook

MARGIN = 20
BOARD = 600
CANVAS = BOARD + 2 * MARGIN

CELL_STYLE = 'fill="#c8c8c8" stroke="#505050" stroke-width="0.5"'
DOT_STYLE = 'fill="#b2182b"'
DOT_RADIUS = "5"


def _fmt(value: Fraction) -> str:
    """Fixed three-decimal rendering, exact rational in, stable text out."""
    milli = round(value * 1000)
    sign = "-" if milli < 0 else ""
    whole, frac = divmod(abs(milli), 1000)
    return f"{sign}{whole}.{frac:03d}"


def _to_canvas_x(x: Fraction) -> Fraction:
    return MARGIN + x * BOARD


def _to_canvas_y(y: Fraction) -> Fraction:
    # SVG grows downward; the measure's y axis grows upward.
    return MARGIN + (1 - y) * BOARD


def render_svg(n: int, depth: int, variant: int = 0) -> str:
    """The depth-level support cells with the n-point codebook on top.

    Exactly 4^depth <rect> elements and n <circle> elements, emitted in
    cell-address and codeword order.
    """
    if n < 1:
        raise ValueError(f"render_svg requires n >= 1, got {n}")
    if depth < 1:
        raise ValueError(f"render_svg requires depth >= 1, got {depth}")
    book = optimal_codebook(n, variant)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS}" height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
    ]
    for sigma, tau in grid_cells(depth):
        x0, x1 = cell_interval(sigma)
        y0, y1 = cell_interval(tau)
        x = _to_canvas_x(x0)
        y = _to_canvas_y(y1)
        w = (x1 - x0) * BOARD
        h = (y1 - y0) * BOARD
        lines.append(
            f'  <rect x="{_fmt(x)}" y="{_fmt(y)}" '
            f'width="{_fmt(w)}" height="{_fmt(h)}" {CELL_STYLE}/>'
        )
    for p in book:
        cx = _to_canvas_x(p.x)
        cy = _to_canvas_y(p.y)
        lines.append(
            f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{DOT_RADIUS}" {DOT_STYLE}/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
