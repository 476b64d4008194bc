"""Word algebra: parsing, printing, and the block-to-binary translation."""

import itertools

import pytest

from cantorquant.words import (
    BinaryWord,
    NatWord,
    PairWord,
    F_inverse,
    F_map,
    components,
    f_map,
)


class TestNatWord:
    def test_roundtrip(self):
        w = NatWord.of(1, 3, 2)
        assert str(w) == "1.3.2"
        assert NatWord.parse("1.3.2") == w
        assert len(w) == 3
        assert list(w) == [1, 3, 2]

    def test_empty(self):
        assert str(NatWord()) == ""
        assert len(NatWord()) == 0

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            NatWord.of(bad)

    def test_ordering_is_total(self):
        words = [NatWord.of(2), NatWord.of(1, 1), NatWord.of(1), NatWord()]
        assert sorted(words) == sorted(words, reverse=True)[::-1]


class TestPairWord:
    def test_roundtrip(self):
        w = PairWord.of((1, 2), (3, 1))
        assert str(w) == "(1,2)(3,1)"
        assert PairWord.parse("(1,2)(3,1)") == w
        assert list(w) == [(1, 2), (3, 1)]

    def test_components(self):
        first, second = components(PairWord.of((1, 2), (3, 1)))
        assert first == NatWord.of(1, 3)
        assert second == NatWord.of(2, 1)

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            PairWord.of((0, 1))
        with pytest.raises(ValueError):
            PairWord.parse("(1,2")


class TestBinaryWord:
    def test_roundtrip(self):
        w = BinaryWord("121")
        assert str(w) == "121"
        assert list(w) == [1, 2, 1]
        assert w.append(2) == BinaryWord("1212")

    def test_rejects_other_digits(self):
        with pytest.raises(ValueError):
            BinaryWord("103")


class TestTailMarkers:
    def test_values(self):
        # The four tail kinds of (1,1) -- none, (∅,∞), (∞,∅), (∞,∞) -- set
        # the infinite flag per coordinate and give the four depth-1 cells.
        first, second = components(PairWord.of((1, 1)))
        cells = [
            (str(F_map(first, inf_x)), str(F_map(second, inf_y)))
            for inf_x, inf_y in ((False, False), (False, True), (True, False), (True, True))
        ]
        assert cells == [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]


class TestTranslation:
    @pytest.mark.parametrize(
        "symbol,infinite,image",
        [(1, False, "1"), (2, False, "21"), (3, False, "221"),
         (1, True, "2"), (2, True, "22"), (4, True, "2222")],
    )
    def test_single_symbol(self, symbol, infinite, image):
        assert str(f_map(symbol, infinite)) == image

    def test_rejects_nonpositive_symbol(self):
        with pytest.raises(ValueError):
            f_map(0)

    def test_concatenation(self):
        # F of a concatenation is the concatenation of the F-images.
        assert str(F_map(NatWord.of(1, 3))) == "1221"
        assert str(F_map(NatWord.of(2, 1, 2))) == "21121"
        left = NatWord.of(2, 3)
        right = NatWord.of(1, 1, 4)
        joined = NatWord.of(2, 3, 1, 1, 4)
        assert str(F_map(joined)) == str(F_map(left)) + str(F_map(right))

    def test_length_is_symbol_sum(self):
        for word in (NatWord.of(1), NatWord.of(2, 5), NatWord.of(3, 1, 1, 4)):
            assert len(F_map(word)) == sum(word)
            assert len(F_map(word, infinite=True)) == sum(word)

    def test_infinite_tail_requires_a_symbol(self):
        with pytest.raises(ValueError):
            F_map(NatWord(), infinite=True)

    def test_inverse_total_on_short_words(self):
        # Every binary word decodes, and re-encoding reproduces it.
        for length in range(0, 9):
            for digits in itertools.product("12", repeat=length):
                w = BinaryWord("".join(digits))
                word, infinite = F_inverse(w)
                if length == 0:
                    assert word == NatWord() and not infinite
                assert F_map(word, infinite=infinite) == w

    def test_injective_on_bounded_words(self):
        # Distinct (word, tail-flag) inputs give distinct binary images;
        # finite images end in 1 and infinite ones in 2, so the two
        # branches cannot collide either.
        images = set()
        count = 0
        for length in range(0, 5):
            for symbols in itertools.product(range(1, 7), repeat=length):
                word = NatWord.of(*symbols)
                images.add(str(F_map(word)))
                count += 1
                if length > 0:
                    images.add(str(F_map(word, infinite=True)))
                    count += 1
        assert len(images) == count
