"""Maps, intervals, cell masses, regions, the block/binary conjugacy,
the optimal module's Point, and the CLI's rational and point text."""

import itertools
import sys
from fractions import Fraction

import pytest

from cantorquant.measure import (
    Map1D,
    cantor_point,
    cell_interval,
    cell_moments,
    dist2,
    map_T,
    map_T_word,
    map_U,
)
from cantorquant.cli import parse_rational, read_codebook
from cantorquant.optimal import Point, format_rational
from cantorquant.words import BinaryWord, F_map, NatWord, PairWord, components

HALF = Fraction(1, 2)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("5/36", Fraction(5, 36)), ("0.25", Fraction(1, 4)),
         ("1e-12", Fraction(1, 10**12)), (" 3 ", Fraction(3)),
         ("-2/7", Fraction(-2, 7))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_format_roundtrip(self):
        for value in (Fraction(5, 36), Fraction(0), Fraction(-7, 3)):
            assert parse_rational(format_rational(value)) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one third")

    @pytest.mark.parametrize("text,needle", [
        ("3" * 2200 + "." + "3" * 2200, "digits"),
        ("1e-4301", "exponent"),
        ("1E+4_301", "exponent"),
    ])
    def test_parse_refuses_text_past_the_int_digit_limit(self, text, needle):
        with pytest.raises(ValueError, match=needle):
            parse_rational(text)
        assert parse_rational("1e-4300") == Fraction(1, 10**4300)

    def test_parse_limit_without_the_interpreter_getter(self, monkeypatch):
        # Interpreters before 3.10.7 have no get_int_max_str_digits.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        with pytest.raises(ValueError, match="at most 4300"):
            parse_rational("1e-4301")
        assert parse_rational("1e-4300") == Fraction(1, 10**4300)


class TestPoint:
    def test_dist2(self):
        zero, one = Fraction(0), Fraction(1)
        assert dist2(Point(zero, zero), Point(one, one)) == 2
        assert dist2(Point(HALF, HALF), Point(HALF, HALF)) == 0

    def test_json_roundtrip(self):
        p = Point(Fraction(5, 36), Fraction(7, 10))
        assert read_codebook({"points": [p.to_json()]}).points == (p,)


class TestBlockMaps:
    def test_block_intervals(self):
        # Block k occupies [1 - 3^(1-k), 1 - 3^(1-k) + 3^-k].
        assert (map_T(1).apply(Fraction(0)), map_T(1).apply(Fraction(1))) == (
            Fraction(0), Fraction(1, 3))
        assert (map_T(2).apply(Fraction(0)), map_T(2).apply(Fraction(1))) == (
            Fraction(2, 3), Fraction(7, 9))
        assert (map_T(3).apply(Fraction(0)), map_T(3).apply(Fraction(1))) == (
            Fraction(8, 9), Fraction(25, 27))

    def test_blocks_are_disjoint_and_increasing(self):
        ends = [(map_T(k).apply(Fraction(0)), map_T(k).apply(Fraction(1)))
                for k in range(1, 8)]
        for (a0, a1), (b0, b1) in zip(ends, ends[1:]):
            assert a1 < b0

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            map_T(0)

    def test_word_map_composes_left_to_right(self):
        m = map_T_word(NatWord.of(2, 1))
        assert m.apply(Fraction(0)) == map_T(2).apply(map_T(1).apply(Fraction(0)))

    def test_identity(self):
        assert Map1D.identity().apply(Fraction(1, 3)) == Fraction(1, 3)


class TestBinaryMaps:
    def test_two_maps(self):
        assert map_U(BinaryWord("1")).apply(Fraction(1)) == Fraction(1, 3)
        assert map_U(BinaryWord("2")).apply(Fraction(0)) == Fraction(2, 3)

    def test_composition_order(self):
        w = BinaryWord("12")
        assert map_U(w).apply(Fraction(0)) == map_U(BinaryWord("1")).apply(
            map_U(BinaryWord("2")).apply(Fraction(0))
        )

    def test_cell_interval(self):
        assert cell_interval(BinaryWord("")) == (Fraction(0), Fraction(1))
        assert cell_interval(BinaryWord("1")) == (Fraction(0), Fraction(1, 3))
        assert cell_interval(BinaryWord("2")) == (Fraction(2, 3), Fraction(1))
        a, b = cell_interval(BinaryWord("2121"))
        assert b - a == Fraction(1, 81)

    def test_child_intervals_nest(self):
        for digits in itertools.product("12", repeat=4):
            w = BinaryWord("".join(digits))
            a, b = cell_interval(w)
            la, lb = cell_interval(w.append(1))
            ra, rb = cell_interval(w.append(2))
            assert a == la and rb == b and lb < ra

    def test_cantor_point_is_cell_midpoint(self):
        assert cantor_point(BinaryWord("")) == HALF
        for w in (BinaryWord("2"), BinaryWord("121")):
            a, b = cell_interval(w)
            assert cantor_point(w) == (a + b) / 2


def cell_of(word: PairWord, inf_x: bool = False, inf_y: bool = False):
    """The product cell (s, t) of J_w, or of a sibling tail union of w."""
    first, second = components(word)
    return F_map(first, inf_x), F_map(second, inf_y)


def mass(word: PairWord) -> Fraction:
    return cell_moments(*cell_of(word))[0]


class TestMassAndRatio:
    def test_prob_is_two_power(self):
        assert mass(PairWord()) == 1
        assert mass(PairWord.of((1, 2))) == Fraction(1, 8)
        assert mass(PairWord.of((1, 2), (2, 1))) == Fraction(1, 64)

    def test_prob_multiplicative(self):
        left = PairWord.of((2, 1))
        joined = PairWord.of((2, 1), (1, 3))
        assert mass(joined) == mass(left) * mass(PairWord.of((1, 3)))

    def test_ratio_axes(self):
        # Per-axis contraction 3^-(sum over the coordinate): the cell width.
        s, t = cell_of(PairWord.of((1, 3), (2, 1)))
        a, b = cell_interval(s)
        c, d = cell_interval(t)
        assert (b - a, d - c) == (Fraction(1, 27), Fraction(1, 81))

    def test_interval_mass_matches_translation_length(self):
        for word in (NatWord.of(1), NatWord.of(2, 3), NatWord.of(4, 1, 2)):
            image = F_map(word)
            assert cell_moments(image, BinaryWord(""))[0] == Fraction(1, 2 ** len(image))
            assert len(image) == sum(word)


class TestConjugacy:
    def test_block_map_equals_translated_binary_map(self):
        xs = (Fraction(0), HALF, Fraction(1), Fraction(1, 7))
        for length in range(0, 5):
            for symbols in itertools.product(range(1, 5), repeat=length):
                word = NatWord.of(*symbols)
                image = F_map(word)
                for x in xs:
                    assert map_T_word(word).apply(x) == map_U(image).apply(x)

    def test_planar_map_agrees_with_components(self):
        # The centroid of J_w is S_w(1/2, 1/2), axis by axis.
        c = cell_moments(*cell_of(PairWord.of((1, 1), (2, 3))))[1]
        assert c.x == map_T_word(NatWord.of(1, 2)).apply(HALF)
        assert c.y == map_T_word(NatWord.of(1, 3)).apply(HALF)


class TestRegions:
    def test_unit_square(self):
        s, t = cell_of(PairWord())
        assert cell_moments(s, t)[0] == 1
        assert cell_interval(s) + cell_interval(t) == (0, 1, 0, 1)

    def test_rect_bounds_follow_blocks(self):
        s, t = cell_of(PairWord.of((1, 2)))
        assert cell_interval(s) == (Fraction(0), Fraction(1, 3))
        assert cell_interval(t) == (Fraction(2, 3), Fraction(7, 9))
        assert cell_moments(s, t)[0] == Fraction(1, 8)

    def test_tail_hull_and_mass(self):
        s, t = cell_of(PairWord.of((1, 2)), inf_y=True)
        assert cell_moments(s, t)[0] == Fraction(1, 8)
        assert cell_interval(s) == (Fraction(0), Fraction(1, 3))
        # Second coordinate runs past block 2: the closing strip.
        assert cell_interval(t) == (Fraction(8, 9), Fraction(1))

    def test_tail_requires_marker_and_symbol(self):
        # The marker turns the rectangle into its tail; the empty word has none.
        word = PairWord.of((1, 2))
        assert cell_of(word, inf_y=True) != cell_of(word)
        with pytest.raises(ValueError):
            cell_of(PairWord(), inf_x=True, inf_y=True)
