"""Exact affine machinery of the planar product-Cantor measure.

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
moment of any such cell in closed form.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .words import BinaryWord, NatWord

HALF = Fraction(1, 2)


# ============================================================
# Serialization helpers ("p/q" strings; integers drop the "/q")
# ============================================================

_EXPONENT = re.compile(r"e([-+]?[\d_]+)", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer string, or a plain decimal like "0.31".

    Raises TypeError for anything but a string and ValueError for
    malformed text, a zero denominator included, or for more digits or a
    larger exponent than ``sys.get_int_max_str_digits()`` allows.
    """
    if not isinstance(text, str):
        raise TypeError(f"a rational must be given as text, got {text!r}")
    # Python before 3.10.7 has no such limit; its later default stands in.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if limit:
        if sum(c.isdigit() for c in text) > limit:
            raise ValueError(f"a rational may have at most {limit} digits")
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1].replace("_", ""))) > limit:
            raise ValueError(f"a decimal exponent may be at most {limit} in magnitude")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical string for a rational: "p/q", or "p" when q = 1."""
    return str(value)


@dataclass(frozen=True, slots=True, order=True)
class Point:
    """A point of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def dist2(self, other: "Point") -> Fraction:
        """Squared Euclidean distance; no square roots anywhere."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def to_json(self) -> dict:
        return {"x": format_rational(self.x), "y": format_rational(self.y)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Point":
        if not isinstance(obj, Mapping) or "x" not in obj or "y" not in obj:
            raise ValueError(f"a point must be an object with x and y, got {obj!r}")
        return cls(parse_rational(obj["x"]), parse_rational(obj["y"]))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


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
