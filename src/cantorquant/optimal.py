"""Closed-form optimal codebooks and quantization errors for every n.

For n >= 1 write ell for the unique exponent with 4^ell <= n < 4^(ell+1).
Optimal n-point codebooks are assembled on the 4^ell product cells of the
binary refinement at depth ell.  Every cell holds a local optimal set of
m points, except a set I of k "split" cells, which hold m + 1:

    m = max(1, ceil(n / 4^ell) - 1),    k = n - m * 4^ell.

The local optimal sets of p = 1, 2, 3 and 4 points are the midpoint, one
of 2 axis pairs, one of 4 three-point sets and the 2x2 child grid, with
errors e(p) = 1/4, 5/36, 1/12 and 1/36 at unit scale.  A depth-ell cell
has mass 4^-ell and scale 3^-ell, so with r(p) patterns of p points:

    error = ((4^ell - k) * e(m) + k * e(m+1)) / 36^ell,
    count = C(4^ell, k) * r(m+1)^k * r(m)^(4^ell - k).

So n = 4^ell has m = 1 and k = 0, and its codebook is unique; m = 1 up
to n = 2*4^ell, m = 2 up to n = 3*4^ell and m = 3 above it.  Admitting
ell = 0 (the single empty cell) makes n = 1, 2 and 3 ordinary
instances: n = 1 has its codebook at the mean and its error at the
total variance 1/4.

A cell carries a choice iff it has more than one pattern.  A depth-ell
cell (s, t) is named by its position, its index in address order: the
cells sorted lexicographically by (s, t).  With rank(s) the word s read
as binary with 1 -> 0 and 2 -> 1, the position is rank(s) * 2^ell +
rank(t).  Variants are indexed deterministically: subsets I in
lexicographic order of their sorted positions, then the choices of the
choice-carrying cells, in position order, as one mixed-radix number.
The index <-> VariantSpec mapping is part of the public contract.

Subsets are ranked and unranked in the combinatorial number system.
A Codebook holds its points as sorted integer numerator pairs over their
least common denominator, which codebook_for assembles directly and the
engine, the CLI and plot read directly; Fractions are made only where
Points come in (Codebook.of) or go out (Codebook.points).  Point and
format_rational, its "p/q" text, live here beside Codebook, so the
runtime never loads the paper's map model, measure and words.  Nothing
here reads text: the codebook file and rational parsing are the CLI's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


# ============================================================
# Point patterns per cell
# ============================================================
# A depth-ell cell U_s[0,1] is the lattice interval [X, X+1] * 3^-ell
# with X = lattice_row(ell)[rank(s)].  Over Q = 2 * 3^(ell+1) its left
# child's midpoint, its own midpoint and its right child's midpoint have
# the numerators 6X+1, 6X+3 and 6X+5, so each pattern below lists
# (dx, dy) offsets from (6X, 6Y).

_MIDPOINT = ((3, 3),)
# Choice 0 splits along x, choice 1 along y.
_AXIS_PAIRS = (((1, 3), (5, 3)), ((3, 1), (3, 5)))
# The four three-point patterns: one child column/row pair plus the
# opposite half's midpoint, in the documented choice order.
_TRIPLES = (
    ((1, 3), (5, 1), (5, 5)),
    ((1, 1), (1, 5), (5, 3)),
    ((1, 1), (5, 1), (3, 5)),
    ((3, 1), (1, 5), (5, 5)),
)
_CHILD_GRID = ((1, 1), (1, 5), (5, 1), (5, 5))

# The local optimal sets of a cell, keyed by how many points it holds,
# and their errors at unit scale.
_PATTERNS = {1: (_MIDPOINT,), 2: _AXIS_PAIRS, 3: _TRIPLES, 4: (_CHILD_GRID,)}
_CELL_ERROR = {1: Fraction(1, 4), 2: Fraction(5, 36), 3: Fraction(1, 12),
               4: Fraction(1, 36)}


def _cell_counts(n: int) -> tuple[int, int, int]:
    """(ell, m, k) for n >= 1: of the 4^ell cells of depth ell, k are
    split and hold m + 1 points, and the rest hold m."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    ell = (n.bit_length() - 1) // 2
    cells = 4**ell
    m = max(1, (n - 1) // cells)
    return ell, m, n - m * cells


def quantization_error(n: int) -> Fraction:
    """The exact n-point quantization error of the measure."""
    ell, m, k = _cell_counts(n)
    cells = 4**ell
    return ((cells - k) * _CELL_ERROR[m] + k * _CELL_ERROR[m + 1]) / 36**ell


@dataclass(frozen=True, slots=True)
class VariantSpec:
    """One member of the optimal family for a given n.

    ``split_cells`` is the set I as a sorted tuple of cell positions,
    each a cell's index in address order (see the module docstring):
    the k cells holding m + 1 points, where every other cell holds m.
    A cell carries a choice iff it has more than one pattern, and
    ``choices`` holds one pattern index per such cell, in position
    order.  So m = 1 (n up to 2*4^ell) chooses an axis pair, in {0,1},
    on each split cell; m = 2 (up to 3*4^ell) chooses on every cell, in
    {0,1,2,3} if split (three-point set) else {0,1} (axis pair); m = 3
    chooses a three-point set, in {0,1,2,3}, on each non-split cell,
    since the child grid is unique.  n = 4^ell (k = 0, m = 1) carries
    no choices.
    """

    n: int
    split_cells: tuple[int, ...]
    choices: tuple[int, ...]


def count_variants(n: int) -> int:
    """How many distinct optimal codebooks the construction yields."""
    ell, _, k = _cell_counts(n)
    return math.comb(4**ell, k) << _count_bits(n)


def _count_bits(n: int) -> int:
    """B with count_variants(n) = C(4^ell, k) * 2^B: every pattern count
    is 1, 2 or 4, so the choices of a variant span exactly B bits."""
    ell, m, k = _cell_counts(n)
    rest, more = len(_PATTERNS[m]), len(_PATTERNS[m + 1])
    return k * (more.bit_length() - 1) + (4**ell - k) * (rest.bit_length() - 1)


def _unrank_combination(total: int, size: int, rank: int) -> tuple[int, ...]:
    """The rank-th size-subset of range(total) in lexicographic order.

    Before candidate x, skip = C(m, r) with m = total - x - 1 and r the
    elements still to pick after the current slot: the number of subsets
    that put x in this slot.  Passing x over gives C(m-1, r) =
    C(m, r) * (m-r) / m, and picking it gives C(m-1, r-1) = C(m, r) * r / m,
    both exact, so math.comb runs once.
    """
    if size == 0:
        return ()
    out = []
    x, m, r = 0, total - 1, size - 1
    skip = math.comb(m, r)
    while True:
        if rank < skip:
            out.append(x)
            if r == 0:
                return tuple(out)
            skip = skip * r // m
            r -= 1
        else:
            rank -= skip
            skip = skip * (m - r) // m
        x += 1
        m -= 1


def _rank_combination(total: int, picked: tuple[int, ...]) -> int:
    """Inverse of _unrank_combination, with the same skip counts."""
    if not picked:
        return 0
    rank = 0
    y, m, r = 0, total - 1, len(picked) - 1
    skip = math.comb(m, r)
    for x in picked:
        while y < x:
            rank += skip
            skip = skip * (m - r) // m
            y += 1
            m -= 1
        if r == 0:
            break
        skip = skip * r // m
        r -= 1
        y += 1
        m -= 1
    return rank


def _radices(m: int, cells: int, split: frozenset[int]) -> list[int]:
    """The pattern counts of the cells that carry a choice, in position
    order.  A split cell holds m + 1 points and any other cell m; a cell
    carries a choice iff its point count has more than one pattern."""
    rest, more = len(_PATTERNS[m]), len(_PATTERNS[m + 1])
    return [r for p in range(cells) if (r := more if p in split else rest) > 1]


def _checked(spec: VariantSpec) -> tuple[int, int, frozenset[int], list[int]]:
    """ell, m, the split positions and the choice radices of a spec, after
    checking that it describes an n-point variant; raises ValueError if not."""
    ell, m, k = _cell_counts(spec.n)
    cells = 4**ell
    for p in spec.split_cells:
        if type(p) is not int or not 0 <= p < cells:
            raise ValueError(f"split cell {p!r} is not a position in [0, {cells})")
    split = frozenset(spec.split_cells)
    if len(split) != len(spec.split_cells):
        raise ValueError("a split cell is repeated")
    if len(split) != k:
        raise ValueError("split-cell count does not match the regime")
    radices = _radices(m, cells, split)
    if len(spec.choices) != len(radices):
        raise ValueError("choice vector length does not match the regime")
    for digit, radix in zip(spec.choices, radices):
        if not 0 <= digit < radix:
            raise ValueError(f"choice {digit} out of range for arity {radix}")
    return ell, m, split, radices


def variant_by_index(n: int, index: int) -> VariantSpec:
    """The index-th variant (0-based) in the lexicographic enumeration."""
    total = count_variants(n)
    if not 0 <= index < total:
        raise ValueError(f"variant index {index} out of range [0, {total}) for n={n}")
    ell, m, k = _cell_counts(n)
    cells, bits = 4**ell, _count_bits(n)
    subset_rank, choice_code = index >> bits, index & ((1 << bits) - 1)
    picked = _unrank_combination(cells, k, subset_rank)
    radices = _radices(m, cells, frozenset(picked))
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        choice_code, digits[pos] = divmod(choice_code, radices[pos])
    return VariantSpec(n, picked, tuple(digits))


def variant_index(spec: VariantSpec) -> int:
    """Inverse of variant_by_index; raises ValueError on a malformed spec."""
    ell, _, split, radices = _checked(spec)
    subset_rank = _rank_combination(4**ell, tuple(sorted(split)))
    code = 0
    for digit, radix in zip(spec.choices, radices):
        code = code * radix + digit
    return (subset_rank << _count_bits(spec.n)) + code


def spread_indices(total: int, cap: int) -> tuple[int, ...]:
    """At most cap distinct indices spread evenly over range(total).

    Endpoints are always included when total > cap, so checks cover the
    first and last variant of a family too large to enumerate in full.
    """
    if total < 0 or cap < 1:
        raise ValueError(f"need total >= 0 and cap >= 1, got {total}, {cap}")
    if total <= cap:
        return tuple(range(total))
    if cap == 1:
        return (0,)
    picked = {(i * (total - 1)) // (cap - 1) for i in range(cap)}
    return tuple(sorted(picked))


def lattice_row(ell: int) -> list[int]:
    """The X of every depth-ell cell U_s[0,1], s in lexicographic order:
    the children s1 and s2 of a cell at X are at 3X and 3X + 2."""
    row = [0]
    for _ in range(ell):
        row = [3 * x + d for x in row for d in (0, 2)]
    return row


def format_rational(value: Fraction) -> str:
    """Canonical string for a rational: "p/q", or "p" when q = 1."""
    return str(value)


@dataclass(frozen=True, slots=True, order=True)
class Point:
    """A point of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def to_json(self) -> dict:
        return {"x": format_rational(self.x), "y": format_rational(self.y)}

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True, slots=True)
class Codebook:
    """The points (a/den, b/den) for (a, b) in pairs, sorted and distinct,
    den their least common denominator.  Over one positive denominator
    integer order is point order, so equal point sets are equal, and hash
    equal, as plain tuples of integers."""

    den: int
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def over(cls, den: int, pairs: Iterable[tuple[int, int]]) -> "Codebook":
        """The codebook of the points (a/den, b/den), den > 0: the one
        constructor.  Raises ValueError on a repeated point or on none."""
        ordered = sorted(pairs)
        for p, q in zip(ordered, ordered[1:]):
            if p == q:
                raise ValueError(f"duplicate codeword {Point(*(Fraction(a, den) for a in p))}")
        if not ordered:
            raise ValueError("codebook must contain at least one point")
        # The first pair often shows den in lowest terms already, without
        # reading the other 2n - 2 numerators.
        g = math.gcd(den, *ordered[0])
        if g > 1 and (g := math.gcd(g, *itertools.chain.from_iterable(ordered))) > 1:
            den, ordered = den // g, [(a // g, b // g) for a, b in ordered]
        return cls(den, tuple(ordered))

    @classmethod
    def of(cls, points: Iterable[Point]) -> "Codebook":
        points = list(points)
        den = math.lcm(*(c.denominator for p in points for c in (p.x, p.y)))
        return cls.over(den, [(p.x.numerator * (den // p.x.denominator),
                               p.y.numerator * (den // p.y.denominator)) for p in points])

    @property
    def points(self) -> tuple[Point, ...]:
        """The points, sorted lexicographically by (x, y)."""
        return tuple([Point(Fraction(a, self.den), Fraction(b, self.den)) for a, b in self.pairs])

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)


def codebook_for(spec: VariantSpec) -> Codebook:
    """Assemble the codebook of a variant spec, over q = 2 * 3^(ell+1) and
    its coordinate numerators 6X + 1, 6X + 3 and 6X + 5 for the X of
    lattice_row(ell); only n = 4^ell, whose every numerator is 6X + 3,
    reduces to q / 3.  Raises ValueError on a malformed spec."""
    ell, m, split, _ = _checked(spec)
    # Other cells hold m points and split cells m + 1; the cells with more
    # than one pattern take spec.choices in position order.
    table = (_PATTERNS[m], _PATTERNS[m + 1])
    digits = iter(spec.choices)
    chosen = iter([pats[next(digits)] if len(pats) > 1 else pats[0]
                   for pats in [table[cell in split] for cell in range(4**ell)]])
    # line[d] is 6X + d, one int shared by every pair on that line.
    lines = [tuple(range(6 * v, 6 * v + 6)) for v in lattice_row(ell)]
    return Codebook.over(2 * 3 ** (ell + 1), [
        (x[dx], y[dy]) for x in lines for y in lines for dx, dy in next(chosen)])


def optimal_codebook(n: int, variant: int = 0) -> Codebook:
    """The variant's codebook; default is variant 0 (first subset, all
    choices 0).  n = 1 yields the mean point."""
    return codebook_for(variant_by_index(n, variant))
