"""Deterministic SVG pictures of support cells and codebooks.

Output is plain SVG 1.1 text built from exact rationals: coordinates
are rounded once, to a fixed three-decimal grid, so a given (n, depth)
pair always renders byte-identical output on any platform.
"""

from __future__ import annotations

from .optimal import lattice_row, optimal_codebook

MARGIN = 20
BOARD = 600
CANVAS = BOARD + 2 * MARGIN

CELL_STYLE = 'fill="#c8c8c8" stroke="#505050" stroke-width="0.5"'
DOT_STYLE = 'fill="#b2182b"'
DOT_RADIUS = "5"


def _fixed3(num: int, den: int) -> str:
    """num/den (den > 0) rounded half-to-even to three decimals, as
    round(Fraction) rounds, in fixed-point text."""
    milli, rest = divmod(1000 * num, den)
    if 2 * rest > den or (2 * rest == den and milli % 2):
        milli += 1
    sign = "-" if milli < 0 else ""
    whole, frac = divmod(abs(milli), 1000)
    return f"{sign}{whole}.{frac:03d}"


def render_svg(n: int, depth: int) -> str:
    """The depth-level support cells with n's variant-0 codebook on top.

    Exactly 4^depth <rect> elements and n <circle> elements, emitted in
    cell-address and codeword order.
    """
    if n < 1:
        raise ValueError(f"render_svg requires n >= 1, got {n}")
    if depth < 1:
        raise ValueError(f"render_svg requires depth >= 1, got {depth}")
    book = optimal_codebook(n)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS}" height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
    ]
    # The cell U_s[0,1] x U_t[0,1] is [X, X+1] x [Y, Y+1] * 3^-depth, so
    # every rect uses one of 2^depth left edges, one of 2^depth top edges
    # and the one side length.  A canvas point is (MARGIN + x * BOARD,
    # MARGIN + (1 - y) * BOARD): SVG grows downward, the measure's y
    # axis upward.
    side = 3**depth
    lattice = lattice_row(depth)
    lefts = [_fixed3(MARGIN * side + BOARD * v, side) for v in lattice]
    tops = [_fixed3(MARGIN * side + BOARD * (side - v - 1), side) for v in lattice]
    size = _fixed3(BOARD, side)
    for x in lefts:
        for y in tops:
            lines.append(
                f'  <rect x="{x}" y="{y}" width="{size}" height="{size}" {CELL_STYLE}/>'
            )
    # An optimal codebook has at most 3 * 2^ell distinct coordinates per
    # axis, so each is formatted once.
    xs: dict[tuple[int, int], str] = {}
    ys: dict[tuple[int, int], str] = {}
    for p in book:
        x = p.x.numerator, p.x.denominator
        y = p.y.numerator, p.y.denominator
        if x not in xs:
            xs[x] = _fixed3(MARGIN * x[1] + BOARD * x[0], x[1])
        if y not in ys:
            ys[y] = _fixed3(MARGIN * y[1] + BOARD * (y[1] - y[0]), y[1])
        lines.append(
            f'  <circle cx="{xs[x]}" cy="{ys[y]}" r="{DOT_RADIUS}" {DOT_STYLE}/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
