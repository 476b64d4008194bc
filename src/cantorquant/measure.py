"""The paper's model of the planar product-Cantor measure, in exact maps.

The measure lives on [0,1]^2 and is generated by the infinite family of
contractions

    S_(i,j)(x, y) = (T_i(x), T_j(y)),   T_k(x) = x/3^k + 1 - 3^(1-k),

with probability weight 2^-(i+j) on S_(i,j).  It coincides with the
product of two copies of the classical Cantor distribution, generated by
U_1(x) = x/3 and U_2(x) = x/3 + 2/3 with weights 1/2 each.  Every
geometric quantity here (map coefficients, interval endpoints, masses,
moments) is an exact rational; no floating point is used anywhere in
this module.

Through :func:`cantorquant.words.F_map` every region of the infinite
system is a product cell U_s[0,1] x U_t[0,1]: a basic rectangle
J_w = S_w([0,1]^2) takes s and t from w's two coordinate words, and a
sibling tail union sets the infinite flag on each coordinate that runs
to infinity.  ``cell_moments`` gives the mass, centroid and second
moment of any such cell in closed form, and ``dist2`` the squared
distance its parallel-axis form reads.  No runtime module imports this
module or ``words``: every command runs on the product form alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .optimal import Point
from .words import BinaryWord, NatWord

HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class Map1D:
    """An affine contraction x -> scale*x + offset on the line."""

    scale: Fraction
    offset: Fraction

    def apply(self, x: Fraction) -> Fraction:
        return self.scale * x + self.offset

    def compose(self, inner: "Map1D") -> "Map1D":
        """self after inner: (self.compose(inner))(x) = self(inner(x))."""
        return Map1D(self.scale * inner.scale, self.scale * inner.offset + self.offset)

    @classmethod
    def identity(cls) -> "Map1D":
        return cls(Fraction(1), Fraction(0))


# ============================================================
# The two generating systems and their composed maps
# ============================================================

def map_T(k: int) -> Map1D:
    """The k-th block contraction T_k(x) = x/3^k + 1 - 3^(1-k)."""
    if k < 1:
        raise ValueError(f"block index must be >= 1, got {k}")
    p3 = 3**k
    return Map1D(Fraction(1, p3), 1 - Fraction(3, p3))


_U1 = Map1D(Fraction(1, 3), Fraction(0))
_U2 = Map1D(Fraction(1, 3), Fraction(2, 3))


def map_U(sigma: BinaryWord) -> Map1D:
    """Compose the two Cantor maps along a binary word; empty word -> identity."""
    m = Map1D.identity()
    for s in sigma:
        m = m.compose(_U1 if s == 1 else _U2)
    return m


def map_T_word(sigma: NatWord) -> Map1D:
    """Compose T over a word of block indices; empty word -> identity."""
    m = Map1D.identity()
    for k in sigma:
        m = m.compose(map_T(k))
    return m


def cantor_point(sigma: BinaryWord) -> Fraction:
    """The cell midpoint A(s) = U_s(1/2), the conditional mean on the cell."""
    return map_U(sigma).apply(HALF)


def cell_interval(sigma: BinaryWord) -> tuple[Fraction, Fraction]:
    """Endpoints of the Cantor cell A_s = U_s[0,1]; width 3^-|s|."""
    m = map_U(sigma)
    return m.apply(Fraction(0)), m.apply(Fraction(1))


def cell_moments(s: BinaryWord, t: BinaryWord) -> tuple[Fraction, Point, Fraction]:
    """Mass, centroid and second moment about the centroid of U_s[0,1] x U_t[0,1].

    The mass is 2^-(|s|+|t|) and the centroid the cell midpoint
    ((2X+1) / (2 * 3^|s|), (2Y+1) / (2 * 3^|t|)) with X = s.lattice and
    Y = t.lattice.  Each axis marginal has variance 1/8 before the
    contraction by 3^-|s| or 3^-|t|, so the second moment is
    mass * (9^-|s| + 9^-|t|) / 8.  The integral of |p - c|^2 over the
    cell is second + mass * |centroid - c|^2, the parallel-axis form of
Graf & Luschgy, Foundations of Quantization for Probability
Distributions (LNM 1730, 2000).
    """
    mass = Fraction(1, 2 ** (len(s) + len(t)))
    centroid = Point(
        Fraction(2 * s.lattice + 1, 2 * 3 ** len(s)),
        Fraction(2 * t.lattice + 1, 2 * 3 ** len(t)),
    )
    second = mass * (Fraction(1, 9 ** len(s)) + Fraction(1, 9 ** len(t))) / 8
    return mass, centroid, second


def dist2(p: Point, q: Point) -> Fraction:
    """Squared Euclidean distance |p - q|^2; no square roots anywhere."""
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2
