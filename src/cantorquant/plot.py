"""Deterministic SVG pictures of support cells and codebooks.

Output is plain SVG 1.1 text built from exact rationals: coordinates
are rounded once, to a fixed three-decimal grid, so a given (n, depth,
variant) triple always renders byte-identical output on any platform.
"""

from __future__ import annotations

from fractions import Fraction

from .optimal import lattice_row, optimal_codebook

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
    # The cell U_s[0,1] x U_t[0,1] is [X, X+1] x [Y, Y+1] * 3^-depth, so
    # every rect uses one of 2^depth left edges, one of 2^depth top edges
    # and the one side length.
    side = Fraction(1, 3**depth)
    lattice = lattice_row(depth)
    lefts = [_fmt(_to_canvas_x(v * side)) for v in lattice]
    tops = [_fmt(_to_canvas_y((v + 1) * side)) for v in lattice]
    size = _fmt(side * BOARD)
    for x in lefts:
        for y in tops:
            lines.append(
                f'  <rect x="{x}" y="{y}" width="{size}" height="{size}" {CELL_STYLE}/>'
            )
    for p in book:
        cx = _to_canvas_x(p.x)
        cy = _to_canvas_y(p.y)
        lines.append(
            f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{DOT_RADIUS}" {DOT_STYLE}/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
