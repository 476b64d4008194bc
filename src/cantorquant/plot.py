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
    # and the one side length, and each column of rects is one join over
    # the tops.  A canvas point is (MARGIN + x * BOARD, MARGIN + (1 - y) *
    # BOARD): SVG grows downward, the measure's y axis upward.
    side = 3**depth
    lattice = lattice_row(depth)
    tops = [_fixed3(MARGIN * side + BOARD * (side - v - 1), side) for v in lattice]
    size = _fixed3(BOARD, side)
    tail = f'" width="{size}" height="{size}" {CELL_STYLE}/>'
    for v in lattice:
        head = f'  <rect x="{_fixed3(MARGIN * side + BOARD * v, side)}" y="'
        lines.append(head + f"{tail}\n{head}".join(tops) + tail)
    # Every coordinate is one of at most 3 * 2^ell numerators over q, so
    # each is formatted once per axis.
    q, used = book.den, set().union(*book.pairs)
    xs = {a: _fixed3(MARGIN * q + BOARD * a, q) for a in used}
    ys = {a: _fixed3(MARGIN * q + BOARD * (q - a), q) for a in used}
    lines.extend([f'  <circle cx="{xs[a]}" cy="{ys[b]}" r="{DOT_RADIUS}" {DOT_STYLE}/>'
                  for a, b in book.pairs])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
