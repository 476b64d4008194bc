"""Exact affine machinery of the planar product-Cantor measure.

The measure lives on [0,1]^2 and is generated by the infinite family of
contractions

    S_(i,j)(x, y) = (T_i(x), T_j(y)),   T_k(x) = x/3^k + 1 - 3^(1-k),

with probability weight 2^-(i+j) on S_(i,j).  It coincides with the
product of two copies of the classical Cantor distribution, generated by
U_1(x) = x/3 and U_2(x) = x/3 + 2/3 with weights 1/2 each.  Every
geometric quantity here (map coefficients, block probabilities,
contraction ratios, interval endpoints) is an exact rational; no floating
point is used anywhere in this module.

Addresses come from :mod:`cantorquant.words`: pair words name basic
rectangles J_w = S_w([0,1]^2), binary words name Cantor cells
A_s = U_s[0,1], and a tail marker on a pair word names the union of all
sibling rectangles past its last symbol.  ``Region`` packages a
rectangle or a tail union with its cached mass, per-axis contraction
ratios, and bounding rectangle.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .words import BinaryWord, F_map, NatWord, PairWord, TailMarker, components, parent

# Rationals are stdlib fractions end to end: arbitrary precision, always
# reduced, positive denominator.
Rational = Fraction

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

    @classmethod
    def of(cls, x, y) -> "Point":
        return cls(Fraction(x), Fraction(y))

    def dist2(self, other: "Point") -> Fraction:
        """Squared Euclidean distance; no square roots anywhere."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def translate(self, dx: Fraction, dy: Fraction) -> "Point":
        return Point(self.x + dx, self.y + dy)

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


@dataclass(frozen=True, slots=True)
class Map2D:
    """A product of two axis maps acting on points."""

    horizontal: Map1D
    vertical: Map1D

    def apply(self, p: Point) -> Point:
        return Point(self.horizontal.apply(p.x), self.vertical.apply(p.y))


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


def map_S(omega: PairWord) -> Map2D:
    """Compose the planar contractions along a pair word; empty -> identity."""
    first, second = components(omega)
    return Map2D(map_T_word(first), map_T_word(second))


def prob(omega: PairWord) -> Fraction:
    """Mass of the basic rectangle J_w: 2^-(sum of all symbol components).

    The same value is the mass of any tail union attached to w, since the
    siblings past a symbol carry exactly the missing geometric weight.
    """
    total = sum(i + j for i, j in omega)
    return Fraction(1, 2**total)


def ratio(omega: PairWord, axis: int) -> Fraction:
    """Per-axis contraction ratio of S_w: 3^-(sum over the chosen coordinate)."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    total = sum(sym[axis - 1] for sym in omega)
    return Fraction(1, 3**total)


def ratios(omega: PairWord) -> tuple[Fraction, Fraction]:
    return ratio(omega, 1), ratio(omega, 2)


def interval_mass(sigma: NatWord) -> Fraction:
    """Mass of the 1-D block image T_s[0,1]: the product of weights 2^-k."""
    return Fraction(1, 2 ** sum(sigma.symbols))


def cantor_point(sigma: BinaryWord) -> Fraction:
    """The cell midpoint A(s) = U_s(1/2), the conditional mean on the cell."""
    return map_U(sigma).apply(HALF)


def cell_interval(sigma: BinaryWord) -> tuple[Fraction, Fraction]:
    """Endpoints of the Cantor cell A_s = U_s[0,1]; width 3^-|s|."""
    m = map_U(sigma)
    return m.apply(Fraction(0)), m.apply(Fraction(1))


def conjugacy_check(sigma: NatWord, x: Fraction) -> bool:
    """Exact check that the composed block map agrees with the binary
    composition along the conjugated word: T_s(x) = U_F(s)(x)."""
    return map_T_word(sigma).apply(x) == map_U(F_map(sigma)).apply(x)


# ============================================================
# Regions: rectangles and tail unions
# ============================================================

class RegionKind(Enum):
    RECT = "rect"
    TAIL = "tail"


@dataclass(frozen=True, slots=True)
class Region:
    """An addressed piece of the support with cached mass and geometry.

    kind RECT: the basic rectangle J_w for a pair word w.
    kind TAIL: one of the three sibling tail unions attached to w.

    ``mass`` is the exact probability of the region; ``ratio_x``/``ratio_y``
    are the per-axis contraction factors entering the second-moment closed
    form mass*(rx^2+ry^2)/8; the bounds give the closed bounding rectangle.
    """

    kind: RegionKind
    word: PairWord
    tail: TailMarker
    mass: Fraction
    ratio_x: Fraction
    ratio_y: Fraction
    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def address(self) -> str:
        return f"{self.word}{self.tail}"


def rect_region(word: PairWord) -> Region:
    """The basic rectangle J_w (the unit square for the empty word)."""
    m = map_S(word)
    rx, ry = ratios(word)
    return Region(
        kind=RegionKind.RECT,
        word=word,
        tail=TailMarker.NONE,
        mass=prob(word),
        ratio_x=rx,
        ratio_y=ry,
        x0=m.horizontal.apply(Fraction(0)),
        x1=m.horizontal.apply(Fraction(1)),
        y0=m.vertical.apply(Fraction(0)),
        y1=m.vertical.apply(Fraction(1)),
    )


def tail_region(word: PairWord, tail: TailMarker) -> Region:
    """A sibling tail union attached to a nonempty pair word.

    Mass equals prob(word); ratios are those of the word itself, which is
    the parametrization under which the union's second moment about its
    own centroid takes the same closed form as the rectangle's.
    """
    if tail is TailMarker.NONE:
        raise ValueError("tail_region requires a real tail marker")
    if len(word) == 0:
        raise ValueError("tail unions require at least one symbol")
    i, j = word.last
    pre = map_S(parent(word))
    rx, ry = ratios(word)

    # Hull per axis: the written block for a kept coordinate, the closing
    # strip [1 - 3^-k, 1] for a coordinate that runs to infinity.
    def kept(axis_map: Map1D, k: int) -> tuple[Fraction, Fraction]:
        block = axis_map.compose(map_T(k))
        return block.apply(Fraction(0)), block.apply(Fraction(1))

    def runaway(axis_map: Map1D, k: int) -> tuple[Fraction, Fraction]:
        return axis_map.apply(1 - Fraction(1, 3**k)), axis_map.apply(Fraction(1))

    if tail is TailMarker.EMPTY_INF:
        xb, yb = kept(pre.horizontal, i), runaway(pre.vertical, j)
    elif tail is TailMarker.INF_EMPTY:
        xb, yb = runaway(pre.horizontal, i), kept(pre.vertical, j)
    else:
        xb, yb = runaway(pre.horizontal, i), runaway(pre.vertical, j)
    return Region(
        kind=RegionKind.TAIL,
        word=word,
        tail=tail,
        mass=prob(word),
        ratio_x=rx,
        ratio_y=ry,
        x0=xb[0],
        x1=xb[1],
        y0=yb[0],
        y1=yb[1],
    )
