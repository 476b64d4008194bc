"""Closed-form errors, variant counting and enumeration, codebook geometry."""

import enum
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from cantorquant import measure
from cantorquant.cli import main, read_codebook
from cantorquant.measure import cell_interval
from cantorquant.optimal import (
    Codebook,
    Point,
    VariantSpec,
    _cell_counts,
    _count_bits,
    _rank_combination,
    _unrank_combination,
    lattice_row,
    codebook_for,
    count_variants,
    optimal_codebook,
    quantization_error,
    spread_indices,
    variant_by_index,
    variant_index,
)
from cantorquant.words import BinaryWord


class Regime(enum.Enum):
    POWER = "power"
    LOW = "low"
    HIGH = "high"


def reference_level(n):
    """(ell, regime) of n >= 1, found by stepping ell up while 4^(ell+1) <= n:
    POWER is n = 4^ell, LOW n <= 2*4^ell and HIGH the rest."""
    ell = 0
    while 4 ** (ell + 1) <= n:
        ell += 1
    if n == 4**ell:
        return ell, Regime.POWER
    return ell, Regime.LOW if n <= 2 * 4**ell else Regime.HIGH


@functools.lru_cache(maxsize=None)
def grid_cells(ell):
    """Every depth-ell cell address (s, t), in lexicographic order: the
    cell at position p is grid_cells(ell)[p]."""
    words = [BinaryWord("".join(bits)) for bits in itertools.product("12", repeat=ell)]
    return tuple((s, t) for s in words for t in words)


def split_addresses(spec):
    """spec.split_cells as (s, t) addresses."""
    cells = grid_cells(reference_level(spec.n)[0])
    return tuple(cells[p] for p in spec.split_cells)


def balanced_split_error(n, cache={1: Fraction(1, 4), 2: Fraction(5, 36),
                                   3: Fraction(1, 12)}):
    """Independent oracle: split n as evenly as possible over the four
    child cells and recurse, each child contributing at 1/36 scale."""
    if n not in cache:
        q, r = divmod(n, 4)
        parts = [q + 1] * r + [q] * (4 - r)
        cache[n] = sum(balanced_split_error(m) for m in parts) * Fraction(1, 36)
    return cache[n]


# (n, ell, m, k), each row labelled by the regime of the reference
# formulas below that it exemplifies.
CELL_COUNTS = [
    (2, 0, 1, 1, Regime.LOW), (3, 0, 2, 1, Regime.HIGH), (4, 1, 1, 0, Regime.POWER),
    (5, 1, 1, 1, Regime.LOW), (8, 1, 1, 4, Regime.LOW), (9, 1, 2, 1, Regime.HIGH),
    (13, 1, 3, 1, Regime.HIGH), (15, 1, 3, 3, Regime.HIGH), (16, 2, 1, 0, Regime.POWER),
    (17, 2, 1, 1, Regime.LOW), (63, 2, 3, 15, Regime.HIGH), (64, 3, 1, 0, Regime.POWER),
    (1, 0, 1, 0, Regime.POWER),
]


class TestLevel:
    @pytest.mark.parametrize("n,ell,m,k,regime", [
        pytest.param(*row, id=f"{row[0]}-{row[1]}-{row[4]}") for row in CELL_COUNTS])
    def test_examples(self, n, ell, m, k, regime):
        assert _cell_counts(n) == (ell, m, k)
        assert reference_level(n) == (ell, regime)

    def test_rejects_small_n(self):
        for function in (_cell_counts, quantization_error, count_variants, optimal_codebook):
            for n in (0, -1):
                with pytest.raises(ValueError):
                    function(n)


class TestClosedForm:
    @pytest.mark.parametrize(
        "n,value",
        [(1, Fraction(1, 4)), (2, Fraction(5, 36)), (3, Fraction(1, 12)),
         (4, Fraction(1, 36)), (5, Fraction(2, 81)), (6, Fraction(7, 324)),
         (9, Fraction(1, 72)), (10, Fraction(1, 81)), (13, Fraction(5, 648)),
         (15, Fraction(1, 216)), (16, Fraction(1, 324))],
    )
    def test_values(self, n, value):
        assert quantization_error(n) == value

    def test_matches_balanced_split_recursion(self):
        for n in range(1, 1025):
            assert quantization_error(n) == balanced_split_error(n), n

    def test_scaling(self):
        for n in range(1, 65):
            assert quantization_error(4 * n) == quantization_error(n) / 9

    def test_strictly_decreasing(self):
        values = [quantization_error(n) for n in range(1, 257)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_gains_are_non_increasing(self):
        # V_n is convex in n: each extra point gains no more than the last.
        values = [quantization_error(n) for n in range(1, 4**6 + 3)]
        gains = [a - b for a, b in zip(values, values[1:])]
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    def test_gain_per_band(self):
        # At level ell an extra point turns a midpoint into an axis pair
        # (4/36 at unit scale), an axis pair into a three-point set or a
        # three-point set into the child grid (2/36 each), on a cell of
        # scale 36^-ell.
        for ell in range(6):
            c, unit = 4**ell, Fraction(1, 36 ** (ell + 1))
            for n in range(c, 4 * c):
                step = 4 if n < 2 * c else 2
                assert quantization_error(n) - quantization_error(n + 1) == step * unit, n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quantization_error(0)


class TestCounting:
    @pytest.mark.parametrize(
        "n,count",
        [(2, 2), (3, 4), (4, 1), (5, 8), (6, 24), (7, 32), (8, 16),
         (9, 128), (10, 384), (11, 512), (12, 256), (13, 256), (14, 96),
         (15, 16), (16, 1), (24, 3294720), (64, 1), (256, 1), (1, 1)],
    )
    def test_examples(self, n, count):
        assert count_variants(n) == count

    def test_collapses_to_one_at_powers(self):
        # The upper band narrows to the full-grid construction.
        assert count_variants(15) == 16
        assert count_variants(16) == 1
        assert count_variants(63) > 1
        assert count_variants(64) == 1

    def test_count_bits_bound_the_count(self):
        # 2^B is the choice factor; C(4^ell, k) is the rest of the count.
        for n in range(1, 4**5 + 1):
            ell, _, k = _cell_counts(n)
            assert count_variants(n) == math.comb(4**ell, k) << _count_bits(n), n


class TestVariantEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 9, 13, 14, 15])
    def test_index_roundtrip_and_distinctness(self, n):
        total = count_variants(n)
        seen = set()
        for i in range(total):
            spec = variant_by_index(n, i)
            assert variant_index(spec) == i
            book = codebook_for(spec)
            assert len(book) == n
            seen.add(tuple((p.x, p.y) for p in book))
        assert len(seen) == total

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            variant_by_index(5, 8)
        with pytest.raises(ValueError):
            variant_by_index(5, -1)

    def test_points_inside_unit_square(self):
        for n in (2, 3, 4, 5, 9, 13, 16):
            for i in range(count_variants(n)):
                for p in optimal_codebook(n, i):
                    assert 0 <= p.x <= 1 and 0 <= p.y <= 1


class TestSpreadIndices:
    def test_small_total_keeps_everything(self):
        assert spread_indices(5, 100) == (0, 1, 2, 3, 4)

    def test_endpoints_and_monotone(self):
        picked = spread_indices(10**6, 100)
        assert picked[0] == 0 and picked[-1] == 10**6 - 1
        assert len(picked) == 100
        assert all(a < b for a, b in zip(picked, picked[1:]))

    def test_exact_integer_spacing(self):
        assert spread_indices(7, 3) == (0, 3, 6)


class TestKnownCodebooks:
    def test_smallest_pairs(self):
        books = {
            tuple((p.x, p.y) for p in optimal_codebook(2, i)) for i in range(2)
        }
        h = ((Fraction(1, 6), Fraction(1, 2)), (Fraction(5, 6), Fraction(1, 2)))
        v = ((Fraction(1, 2), Fraction(1, 6)), (Fraction(1, 2), Fraction(5, 6)))
        assert books == {h, v}

    def test_single_point(self):
        book = optimal_codebook(1)
        assert list(book) == [Point(Fraction(1, 2), Fraction(1, 2))]
        with pytest.raises(ValueError):
            optimal_codebook(1, 1)

    def test_quadruple_grid(self):
        book = optimal_codebook(4)
        sixth = Fraction(1, 6)
        five = Fraction(5, 6)
        assert set((p.x, p.y) for p in book) == {
            (sixth, sixth), (sixth, five), (five, sixth), (five, five)
        }

    def test_distinguished_nine_point_set(self):
        book = optimal_codebook(9, 0)
        expected = {
            (Fraction(1, 18), Fraction(1, 6)), (Fraction(1, 18), Fraction(5, 6)),
            (Fraction(5, 18), Fraction(1, 18)), (Fraction(5, 18), Fraction(5, 18)),
            (Fraction(5, 18), Fraction(5, 6)), (Fraction(13, 18), Fraction(1, 6)),
            (Fraction(13, 18), Fraction(5, 6)), (Fraction(17, 18), Fraction(1, 6)),
            (Fraction(17, 18), Fraction(5, 6)),
        }
        assert set((p.x, p.y) for p in book) == expected

    def test_grid_cells_level_one(self):
        cells = grid_cells(1)
        assert len(cells) == 4
        assert [str(s) + str(t) for s, t in cells] == ["11", "12", "21", "22"]
        # Position p names cells[p]: n = 5 puts an axis pair on its one
        # split cell and a midpoint on each other cell.
        for p, (s, t) in enumerate(cells):
            (x0, x1), (y0, y1) = cell_interval(s), cell_interval(t)
            book = codebook_for(VariantSpec(5, (p,), (0,)))
            assert sum(x0 <= q.x <= x1 and y0 <= q.y <= y1 for q in book) == 2


class TestCodebookContainer:
    def test_sorted_and_sized(self):
        one, zero = Fraction(1), Fraction(0)
        book = Codebook.of([Point(one, zero), Point(zero, one)])
        assert len(book) == 2
        assert list(book)[0] == Point(zero, one)

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Codebook.of([])
        with pytest.raises(ValueError):
            Codebook.of([Point(Fraction(0), Fraction(0))] * 2)

    def test_one_form_per_point_set(self):
        # Over 2, 6 or 12, in any order: one den, one tuple, one hash.
        half, third = Fraction(1, 2), Fraction(1, 3)
        books = [
            Codebook.over(2, [(1, 1)]),
            Codebook.over(6, [(3, 3)]),
            Codebook.of([Point(half, half)]),
        ]
        assert {(b.den, b.pairs) for b in books} == {(2, ((1, 1),))}
        assert len({hash(b) for b in books}) == 1 and books[0] == books[1] == books[2]
        two = [Point(third, half), Point(half, Fraction(5, 6))]
        assert Codebook.of(two) == Codebook.of(two[::-1]) == Codebook.over(12, [(6, 10), (4, 6)])
        assert Codebook.of(two).den == 6

    def test_points_round_trip_off_the_unit_square(self):
        points = [Point(Fraction(-7, 3), Fraction(5, 2)), Point(Fraction(11, 4), Fraction(-1, 6)),
                  Point(Fraction(0), Fraction(3)), Point(Fraction(-7, 3), Fraction(-5, 2))]
        book = Codebook.of(points)
        assert book.den == 12
        assert book.points == tuple(sorted(points)) == tuple(book)

    def test_powers_of_four_reduce(self):
        for ell in range(6):
            book = optimal_codebook(4**ell)
            assert book.den == 2 * 3**ell
            assert all(a % 2 == 1 for pair in book.pairs for a in pair)

    def test_over_names_the_repeat_and_the_empty_set(self):
        with pytest.raises(ValueError, match=r"^duplicate codeword \(1/2, 1/3\)$"):
            Codebook.over(6, [(3, 2), (1, 1), (3, 2)])
        with pytest.raises(ValueError, match=r"^codebook must contain at least one point$"):
            Codebook.over(6, [])

    def test_json_roundtrip(self, tmp_path):
        # The CLI writes the file and reads it back.
        path = tmp_path / "book.json"
        assert main(["optimal", "5", "--variant", "3", "--out", str(path)]) == 0
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["n"] == 5
        assert read_codebook(obj) == optimal_codebook(5, 3)

    def test_json_n_mismatch(self):
        obj = {"n": 3, "points": [{"x": "0", "y": "0"}]}
        with pytest.raises(ValueError, match=r"^codebook declares n=3 but has 1 points$"):
            read_codebook(obj)


# The pre-lattice assembly: every coordinate composed by cantor_point
# along its binary word.  Kept as the reference for the lattice tables.
# cantor_point is a pure function of an immutable word, so a cached call
# returns the same Fraction as a fresh one.
cantor_point = functools.lru_cache(maxsize=None)(measure.cantor_point)


def reference_midpoint(cell):
    return [Point(cantor_point(cell[0]), cantor_point(cell[1]))]


def reference_axis_pair(cell, choice):
    s, t = cell
    if choice == 0:
        return [Point(cantor_point(s.append(1)), cantor_point(t)),
                Point(cantor_point(s.append(2)), cantor_point(t))]
    return [Point(cantor_point(s), cantor_point(t.append(1))),
            Point(cantor_point(s), cantor_point(t.append(2)))]


def reference_triple(cell, choice):
    s, t = cell
    s1, s2 = s.append(1), s.append(2)
    t1, t2 = t.append(1), t.append(2)
    patterns = {
        0: [(s1, t), (s2, t1), (s2, t2)],
        1: [(s1, t1), (s1, t2), (s2, t)],
        2: [(s1, t1), (s2, t1), (s, t2)],
        3: [(s, t1), (s1, t2), (s2, t2)],
    }
    return [Point(cantor_point(a), cantor_point(b)) for a, b in patterns[choice]]


def reference_child_grid(cell):
    s, t = cell
    return [Point(cantor_point(s.append(a)), cantor_point(t.append(b)))
            for a in (1, 2) for b in (1, 2)]


def reference_choice_radices(n, regime, cells, split):
    """The cells that carry a choice, with each one's number of options,
    by regime and band: LOW the split cells (2 each); HIGH up to
    n = 3*4^ell every cell (4 if split, else 2); HIGH above it the cells
    that are not split (4 each); POWER none."""
    if regime is Regime.LOW:
        chosen = tuple(c for c in cells if c in split)
        return chosen, tuple(2 for _ in chosen)
    if regime is Regime.HIGH and n <= 3 * len(cells):
        return cells, tuple(4 if c in split else 2 for c in cells)
    if regime is Regime.HIGH:
        chosen = tuple(c for c in cells if c not in split)
        return chosen, tuple(4 for _ in chosen)
    return (), ()


def reference_codebook(spec):
    ell, regime = reference_level(spec.n)
    cells = grid_cells(ell)
    split = frozenset(split_addresses(spec))
    chosen, _ = reference_choice_radices(spec.n, regime, cells, split)
    choice_of = dict(zip(chosen, spec.choices))
    upper_band = regime is Regime.HIGH and spec.n > 3 * len(cells)
    points = []
    for cell in cells:
        if regime is Regime.POWER:
            points += reference_midpoint(cell)
        elif regime is Regime.LOW:
            points += (reference_axis_pair(cell, choice_of[cell]) if cell in split
                       else reference_midpoint(cell))
        elif upper_band:
            points += (reference_child_grid(cell) if cell in split
                       else reference_triple(cell, choice_of[cell]))
        elif cell in split:
            points += reference_triple(cell, choice_of[cell])
        else:
            points += reference_axis_pair(cell, choice_of[cell])
    return Codebook.of(points)


LATTICE_CORPUS = pytest.mark.parametrize("ns", [
    range(2, 100), range(100, 200), range(200, 301),
    (1023, 1024, 1025, 2047, 2048, 2049, 3071, 3072, 3073, 4095),
], ids=["2-99", "100-199", "200-300", "ell-5-boundaries"])


class TestLatticeAssembly:
    @LATTICE_CORPUS
    def test_matches_cantor_point_reference(self, ns):
        for n in ns:
            for i in spread_indices(count_variants(n), 4):
                spec = variant_by_index(n, i)
                assert codebook_for(spec) == reference_codebook(spec), (n, i)

    @LATTICE_CORPUS
    def test_numerators_give_the_codebook(self, ns):
        for n in ns:
            ell = _cell_counts(n)[0]
            numerators = {6 * x + d for x in lattice_row(ell) for d in (1, 3, 5)}
            # Only n = 4^ell, whose every numerator is 6X + 3, reduces.
            reduced = 3 if n == 4**ell else 1
            for i in spread_indices(count_variants(n), 4):
                book = codebook_for(variant_by_index(n, i))
                assert book.den * reduced == 2 * 3 ** (ell + 1), (n, i)
                assert {a * reduced for pair in book.pairs for a in pair} <= numerators
                assert book.pairs == tuple(sorted(set(book.pairs))) and len(book) == n, (n, i)
                assert book.points == tuple(sorted(book.points)), (n, i)

    def test_lattice_inverts_cell_address(self):
        for depth in range(7):
            for digits in itertools.product("12", repeat=depth):
                word = BinaryWord("".join(digits))
                x = word.lattice
                assert cell_interval(word) == (Fraction(x, 3**depth),
                                               Fraction(x + 1, 3**depth))

    def test_lattice_row_follows_word_order(self):
        for depth in range(7):
            words = [s for s, _ in grid_cells(depth)[:: 2**depth]]
            assert lattice_row(depth) == [
                cell_interval(w)[0] * 3**depth for w in words
            ]


# The pre-recurrence ranking: one math.comb per skipped candidate.  Kept
# as the reference for the skip-count recurrences.

def reference_unrank_combination(total, size, rank):
    out = []
    x = 0
    for slot in range(size):
        while True:
            skip = math.comb(total - x - 1, size - slot - 1)
            if rank < skip:
                break
            rank -= skip
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def reference_rank_combination(total, picked):
    rank = 0
    prev = -1
    size = len(picked)
    for slot, x in enumerate(picked):
        for y in range(prev + 1, x):
            rank += math.comb(total - y - 1, size - slot - 1)
        prev = x
    return rank


class TestCombinationRanking:
    def test_every_small_subset_in_lexicographic_order(self):
        for total in range(10):
            for size in range(total + 1):
                subsets = itertools.combinations(range(total), size)
                for rank, subset in enumerate(subsets):
                    assert _unrank_combination(total, size, rank) == subset
                    assert _rank_combination(total, subset) == rank
                    assert reference_unrank_combination(total, size, rank) == subset
                    assert reference_rank_combination(total, subset) == rank

    def test_matches_reference_on_large_totals(self):
        rng = random.Random(8)
        cases = [(1100, 0, 0), (1100, 1100, 0), (1024, 1, 1023), (1024, 1023, 1022)]
        while len(cases) < 300:
            total = rng.randint(1, 1100)
            size = rng.randint(0, total)
            cases.append((total, size, rng.randrange(math.comb(total, size))))
        for total, size, rank in cases:
            picked = _unrank_combination(total, size, rank)
            assert picked == reference_unrank_combination(total, size, rank)
            assert _rank_combination(total, picked) == rank
            assert reference_rank_combination(total, picked) == rank


class TestMalformedSpec:
    @pytest.mark.parametrize("spec", [
        # n = 3 lives at ell = 0, whose one cell is position 0.
        VariantSpec(3, (1,), (0,)),
        # n = 5 lives at ell = 1, with positions 0..3.
        VariantSpec(5, (4,), (0,)),
        VariantSpec(5, (-1,), (0,)),
        # A cell address, not its position.
        VariantSpec(5, ((BinaryWord("1"), BinaryWord("1")),), (0,)),
        VariantSpec(6, (0, 0), (0, 0)),
        # Wrong split count, choice count or choice value.
        VariantSpec(6, (0,), (0,)),
        VariantSpec(5, (0,), (0, 0)),
        VariantSpec(5, (0,), (2,)),
    ], ids=["deeper-cell-at-ell-0", "out-of-range", "negative", "non-int",
            "repeated-cell", "split-count", "choice-count", "choice-value"])
    def test_rejected_by_assembly_and_ranking(self, spec):
        with pytest.raises(ValueError):
            codebook_for(spec)
        with pytest.raises(ValueError):
            variant_index(spec)

    def test_well_formed_spec_accepted(self):
        spec = VariantSpec(5, (0,), (1,))
        assert len(codebook_for(spec)) == 5
        assert variant_by_index(5, variant_index(spec)) == spec


# The pre-table formulas: one branch per regime and band.  Kept as the
# reference for the per-cell pattern table.

def reference_split_count(n, ell, regime):
    if regime is Regime.POWER:
        return 0
    if regime is Regime.LOW:
        return n - 4**ell
    if n <= 3 * 4**ell:
        return n - 2 * 4**ell
    return n - 3 * 4**ell


def reference_quantization_error(n):
    if n == 1:
        return Fraction(1, 4)
    ell, regime = reference_level(n)
    if regime is Regime.POWER:
        return Fraction(1, 4) * Fraction(1, 9**ell)
    if regime is Regime.LOW:
        inner = 2 * 4**ell - n + Fraction(5, 9) * (n - 4**ell)
        return Fraction(1, 4) * Fraction(1, 36**ell) * inner
    return Fraction(1, 36 ** (ell + 1)) * (9 * 4**ell - 2 * n)


def reference_count_variants(n):
    ell, regime = reference_level(n)
    cells = 4**ell
    k = reference_split_count(n, ell, regime)
    if regime is Regime.POWER:
        return 1
    if regime is Regime.LOW:
        return 2**k * math.comb(cells, k)
    if n <= 3 * cells:
        return 2 ** (3 * cells - n) * 4**k * math.comb(cells, k)
    return 4 ** (4 * cells - n) * math.comb(cells, k)


def reference_variant_by_index(n, index):
    ell, regime = reference_level(n)
    cells = grid_cells(ell)
    k = reference_split_count(n, ell, regime)
    per_subset = reference_count_variants(n) // math.comb(len(cells), k)
    subset_rank, code = divmod(index, per_subset)
    picked = reference_unrank_combination(len(cells), k, subset_rank)
    split = tuple(cells[p] for p in picked)
    _, radices = reference_choice_radices(n, regime, cells, frozenset(split))
    digits = []
    for radix in reversed(radices):
        code, digit = divmod(code, radix)
        digits.append(digit)
    return split, tuple(reversed(digits))


def around_powers(max_ell):
    """n at and around the regime and band boundaries of every level."""
    for ell in range(max_ell + 1):
        c = 4**ell
        yield from (n for n in (c - 1, c, c + 1, 2 * c, 2 * c + 1, 3 * c, 3 * c + 1)
                    if n >= 2)


class TestPatternTableMatchesRegimeFormulas:
    def test_error_and_count_for_every_small_n(self):
        for n in range(2, 4**6 + 1):
            assert quantization_error(n) == reference_quantization_error(n), n
            assert count_variants(n) == reference_count_variants(n), n

    def test_error_and_count_around_powers(self):
        for n in around_powers(8):
            assert quantization_error(n) == reference_quantization_error(n), n
            assert count_variants(n) == reference_count_variants(n), n

    def test_same_variant_specs(self):
        for n in range(2, 301):
            for i in spread_indices(count_variants(n), 4):
                spec = variant_by_index(n, i)
                expected = reference_variant_by_index(n, i)
                assert (split_addresses(spec), spec.choices) == expected, (n, i)
