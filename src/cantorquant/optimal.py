"""Closed-form optimal codebooks and quantization errors for every n.

For n >= 2 write ell for the unique exponent with 4^ell <= n < 4^(ell+1).
Optimal n-point codebooks are assembled on the 4^ell product cells of the
binary refinement at depth ell, in three regimes:

* POWER (n = 4^ell): every cell holds its midpoint; the codebook is
  unique and the error is (1/4) * 9^-ell.
* LOW (4^ell < n <= 2*4^ell): a set I of n - 4^ell cells is "split" into
  a two-point set along one axis (each split cell chooses the x or y
  pair); the rest keep their midpoint.  Error:
  (1/4) * 36^-ell * (2*4^ell - n + (5/9)(n - 4^ell)).
* HIGH (2*4^ell < n < 4^(ell+1)): in the lower band n <= 3*4^ell, a set
  I of n - 2*4^ell cells holds a three-point set (4 choices each) and
  the rest hold two-point axis pairs (2 choices each).  In the upper
  band n > 3*4^ell there are more split cells than cells, so the
  construction rolls over: a set I of n - 3*4^ell cells holds the full
  four-point child grid (unique) and the rest hold three-point sets
  (4 choices each).  Both bands share the error
  36^-(ell+1) * (9*4^ell - 2n), because the per-cell errors of the 2-,
  3- and 4-point local sets are in arithmetic progression, and the
  counts agree where the bands meet (n = 3*4^ell) and where the upper
  band runs into the next power (n = 4^(ell+1) gives one codebook).

Admitting ell = 0 (the single empty cell) makes n = 2 and n = 3 ordinary
instances of the LOW and HIGH constructions instead of special cases.
n = 1 stays outside the machinery: its codebook is the mean and its
error the total variance 1/4.

Variants are indexed deterministically: subsets I in lexicographic order
of their sorted cell addresses, then choice vectors in numeric order.
The index <-> VariantSpec mapping is part of the public contract.

Internally a depth-ell cell (s, t) is its position rank(s) * 2^ell +
rank(t), where rank reads a word as binary with 1 -> 0 and 2 -> 1; that
is its index in grid_cells(ell), so address order is position order.
Subsets are ranked and unranked as sets of positions in the
combinatorial number system, and codebooks are assembled as integer
numerator pairs over the common denominator 2 * 3^(ell+1), with one
Fraction per distinct numerator.  BinaryWord addresses appear only in
the VariantSpecs handed out and read back.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .measure import Point
from .words import BinaryWord

CellAddress = tuple[BinaryWord, BinaryWord]


class Regime(Enum):
    POWER = "power"
    LOW = "low"
    HIGH = "high"


def level(n: int) -> tuple[int, Regime]:
    """Classify n >= 2 into (ell, regime); the regimes partition n >= 2."""
    if n < 2:
        raise ValueError(f"level requires n >= 2, got {n}")
    ell = 0
    while 4 ** (ell + 1) <= n:
        ell += 1
    if n == 4**ell:
        return ell, Regime.POWER
    if n <= 2 * 4**ell:
        return ell, Regime.LOW
    return ell, Regime.HIGH


def quantization_error(n: int) -> Fraction:
    """The exact n-point quantization error of the measure."""
    if n < 1:
        raise ValueError(f"quantization_error requires n >= 1, got {n}")
    if n == 1:
        return Fraction(1, 4)
    ell, regime = level(n)
    if regime is Regime.POWER:
        return Fraction(1, 4) * Fraction(1, 9**ell)
    if regime is Regime.LOW:
        inner = 2 * 4**ell - n + Fraction(5, 9) * (n - 4**ell)
        return Fraction(1, 4) * Fraction(1, 36**ell) * inner
    return Fraction(1, 36 ** (ell + 1)) * (9 * 4**ell - 2 * n)


def _words(ell: int) -> list[BinaryWord]:
    return [BinaryWord("".join(bits)) for bits in itertools.product("12", repeat=ell)]


def grid_cells(ell: int) -> tuple[CellAddress, ...]:
    """All product cells of depth ell, in lexicographic address order."""
    words = _words(ell)
    return tuple((s, t) for s in words for t in words)


@dataclass(frozen=True, slots=True)
class VariantSpec:
    """One member of the optimal family for a given n.

    ``split_cells`` is the set I as a sorted tuple of cell addresses:
    the cells holding one point more than the rest.  ``choices`` aligns
    with the cells that carry a choice, in address order.  LOW: the
    split cells, each in {0,1} (x-pair or y-pair).  HIGH, lower band:
    every cell, {0,1,2,3} if split else {0,1}.  HIGH, upper band: the
    non-split cells only, each in {0,1,2,3}; split cells hold the full
    child grid, which is unique.  POWER variants carry no choices.
    """

    n: int
    level: int
    regime: Regime
    split_cells: tuple[CellAddress, ...]
    choices: tuple[int, ...]


def _split_count(n: int, ell: int, regime: Regime) -> int:
    if regime is Regime.POWER:
        return 0
    if regime is Regime.LOW:
        return n - 4**ell
    if n <= 3 * 4**ell:
        return n - 2 * 4**ell
    return n - 3 * 4**ell


def count_variants(n: int) -> int:
    """How many distinct optimal codebooks the construction yields."""
    if n < 2:
        raise ValueError(f"count_variants requires n >= 2, got {n}")
    ell, regime = level(n)
    cells = 4**ell
    k = _split_count(n, ell, regime)
    if regime is Regime.POWER:
        return 1
    if regime is Regime.LOW:
        return 2**k * math.comb(cells, k)
    if n <= 3 * cells:
        return 2 ** (3 * cells - n) * 4**k * math.comb(cells, k)
    return 4 ** (4 * cells - n) * math.comb(cells, k)


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


def _choice_radices(
    n: int,
    regime: Regime,
    cells: tuple[CellAddress, ...],
    split: frozenset[CellAddress],
) -> tuple[tuple[CellAddress, ...], tuple[int, ...]]:
    """The cells that carry a choice, with each cell's number of options."""
    if regime is Regime.LOW:
        chosen = tuple(c for c in cells if c in split)
        return chosen, tuple(2 for _ in chosen)
    if regime is Regime.HIGH:
        if n <= 3 * len(cells):
            return cells, tuple(4 if c in split else 2 for c in cells)
        chosen = tuple(c for c in cells if c not in split)
        return chosen, tuple(4 for _ in chosen)
    return (), ()


# A word's rank reads it as binary with 1 -> 0 and 2 -> 1.
_RANK_DIGITS = str.maketrans("12", "01")


def _cell_words(ell: int, positions: Iterable[int]) -> tuple[CellAddress, ...]:
    """The addresses of the cells at the given positions."""
    words = _words(ell)
    return tuple((words[p >> ell], words[p & ((1 << ell) - 1)]) for p in positions)


def _split_positions(spec: VariantSpec) -> frozenset[int]:
    """spec.split_cells as cell positions.

    Cell (s, t) of depth ell has position rank(s) * 2^ell + rank(t), its
    index in grid_cells(ell).  Raises ValueError for a cell of another depth
    and for a repeated cell.
    """
    ell = spec.level
    positions = set()
    for s, t in spec.split_cells:
        if len(s) != ell or len(t) != ell:
            raise ValueError(f"split cell ({s}, {t}) is not a cell of depth {ell}")
        p = int("0" + (s.symbols + t.symbols).translate(_RANK_DIGITS), 2)
        if p in positions:
            raise ValueError(f"split cell ({s}, {t}) is repeated")
        positions.add(p)
    return frozenset(positions)


def _checked(spec: VariantSpec) -> tuple[frozenset[int], tuple[int, ...]]:
    """The split positions and choice radices of a spec, after checking
    that it describes an n-point variant; raises ValueError if not."""
    if level(spec.n) != (spec.level, spec.regime):
        raise ValueError(
            f"n={spec.n} is not in regime {spec.regime.value} at level {spec.level}"
        )
    split = _split_positions(spec)
    if len(split) != _split_count(spec.n, spec.level, spec.regime):
        raise ValueError("split-cell count does not match the regime")
    _, radices = _choice_radices(spec.n, spec.regime, range(4**spec.level), split)
    if len(spec.choices) != len(radices):
        raise ValueError("choice vector length does not match the regime")
    for digit, radix in zip(spec.choices, radices):
        if not 0 <= digit < radix:
            raise ValueError(f"choice {digit} out of range for arity {radix}")
    return split, radices


def variant_by_index(n: int, index: int) -> VariantSpec:
    """The index-th variant (0-based) in the lexicographic enumeration."""
    total = count_variants(n)
    if not 0 <= index < total:
        raise ValueError(f"variant index {index} out of range [0, {total}) for n={n}")
    ell, regime = level(n)
    cells = 4**ell
    k = _split_count(n, ell, regime)
    if regime is Regime.POWER:
        return VariantSpec(n, ell, regime, (), ())
    per_subset = total // math.comb(cells, k)
    subset_rank, choice_code = divmod(index, per_subset)
    picked = _unrank_combination(cells, k, subset_rank)
    _, radices = _choice_radices(n, regime, range(cells), frozenset(picked))
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        choice_code, digits[pos] = divmod(choice_code, radices[pos])
    return VariantSpec(n, ell, regime, _cell_words(ell, picked), tuple(digits))


def variant_index(spec: VariantSpec) -> int:
    """Inverse of variant_by_index; raises ValueError on a malformed spec."""
    split, radices = _checked(spec)
    subset_rank = _rank_combination(4**spec.level, tuple(sorted(split)))
    code = 0
    for digit, radix in zip(spec.choices, radices):
        code = code * radix + digit
    return subset_rank * math.prod(radices) + code


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


def enumerate_variants(n: int) -> Iterator[VariantSpec]:
    """All variants in index order: subsets lexicographic, then choices numeric."""
    if n < 2:
        raise ValueError(f"enumerate_variants requires n >= 2, got {n}")
    ell, regime = level(n)
    cells = range(4**ell)
    k = _split_count(n, ell, regime)
    if regime is Regime.POWER:
        yield VariantSpec(n, ell, regime, (), ())
        return
    for picked in itertools.combinations(cells, k):
        split = _cell_words(ell, picked)
        _, radices = _choice_radices(n, regime, cells, frozenset(picked))
        for digits in itertools.product(*(range(r) for r in radices)):
            yield VariantSpec(n, ell, regime, split, digits)


# ============================================================
# Point patterns per cell
# ============================================================
# A depth-ell cell U_s[0,1] is the lattice interval [X, X+1] * 3^-ell
# with X = s.lattice.  Over Q = 2 * 3^(ell+1) its left child's midpoint,
# its own midpoint and its right child's midpoint have the numerators
# 6X+1, 6X+3 and 6X+5, so each pattern below lists (dx, dy) offsets from
# (6X, 6Y).

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


def lattice_row(ell: int) -> list[int]:
    """The X of every depth-ell cell U_s[0,1], s in lexicographic order."""
    return [s.lattice for s in _words(ell)]


@dataclass(frozen=True, slots=True)
class Codebook:
    """A finite set of codewords, stored sorted lexicographically by (x, y)."""

    points: tuple[Point, ...]

    @classmethod
    def of(cls, points: Iterable[Point]) -> "Codebook":
        ordered = tuple(sorted(points))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate codeword {a}")
        if not ordered:
            raise ValueError("codebook must contain at least one point")
        return cls(ordered)

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "points": [p.to_json() for p in self.points]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Codebook":
        """Read the to_json_obj form; raises ValueError or TypeError on bad input."""
        if not isinstance(obj, Mapping) or not isinstance(obj.get("points"), list):
            raise ValueError("a codebook must be an object with a list of points")
        book = cls.of(Point.from_json(entry) for entry in obj["points"])
        declared = obj.get("n")
        if declared is not None and type(declared) is not int:
            raise TypeError(f"codebook field n must be an integer, got {declared!r}")
        if declared is not None and declared != book.n:
            raise ValueError(f"codebook declares n={declared} but has {book.n} points")
        return book

    @classmethod
    def from_json(cls, text: str) -> "Codebook":
        return cls.from_json_obj(json.loads(text))


def codebook_for(spec: VariantSpec) -> Codebook:
    """Assemble the codebook of a variant spec; raises ValueError on a
    malformed spec."""
    split, _ = _checked(spec)
    ell = spec.level
    row = lattice_row(ell)
    upper_band = spec.regime is Regime.HIGH and spec.n > 3 * 4**ell
    # The cells that carry a choice take spec.choices in position order.
    digits = iter(spec.choices)
    pairs: list[tuple[int, int]] = []
    cell = 0
    for sx in row:
        x = 6 * sx
        for sy in row:
            if spec.regime is Regime.POWER:
                pattern = _MIDPOINT
            elif spec.regime is Regime.LOW:
                pattern = _AXIS_PAIRS[next(digits)] if cell in split else _MIDPOINT
            elif upper_band:
                pattern = _CHILD_GRID if cell in split else _TRIPLES[next(digits)]
            else:
                pattern = (_TRIPLES if cell in split else _AXIS_PAIRS)[next(digits)]
            y = 6 * sy
            pairs.extend((x + dx, y + dy) for dx, dy in pattern)
            cell += 1
    # Over the common denominator q, integer order is point order, so the
    # sorted pairs give Codebook.of's sorted, distinct points without
    # comparing Fractions.
    pairs.sort()
    for a, b in zip(pairs, pairs[1:]):
        if a == b:
            raise ValueError(f"duplicate codeword numerators {a}")
    q = 2 * 3 ** (ell + 1)
    coord = {a: Fraction(a, q) for a in (6 * v + d for v in row for d in (1, 3, 5))}
    return Codebook(tuple(Point(coord[a], coord[b]) for a, b in pairs))


def optimal_codebook(n: int, variant: int | VariantSpec = 0) -> Codebook:
    """The variant's codebook; default is variant 0 (first subset, all
    choices 0).  n = 1 yields the mean point."""
    if isinstance(variant, VariantSpec):
        return codebook_for(variant)
    if n < 1:
        raise ValueError(f"optimal_codebook requires n >= 1, got {n}")
    if n == 1:
        if variant != 0:
            raise ValueError("n=1 has a single variant")
        return Codebook.of([Point(Fraction(1, 2), Fraction(1, 2))])
    return codebook_for(variant_by_index(n, variant))
