"""Centroids and second moments of product cells, tail unions included.

Through F_map every region of the infinite system is a product cell: a
basic rectangle J_w takes its two binary words from w's coordinate
words, and a sibling tail union sets the infinite flag on each
coordinate that runs to infinity.
"""

from fractions import Fraction

import pytest

from cantorquant.measure import cell_interval, cell_moments, dist2, map_T_word
from cantorquant.optimal import Point
from cantorquant.words import BinaryWord, F_map, PairWord, components

HALF = Fraction(1, 2)
ROOT = BinaryWord("")
MEAN = Point(HALF, HALF)


def cell_of(word: PairWord, inf_x: bool = False, inf_y: bool = False):
    """The cell (s, t) of J_w, or of a tail union past w's last symbol."""
    first, second = components(word)
    return F_map(first, inf_x), F_map(second, inf_y)


def about(cell, center: Point) -> Fraction:
    """Integral of |p - center|^2 over the cell, by the parallel-axis form."""
    mass, centroid, second = cell_moments(*cell)
    return second + mass * dist2(centroid, center)


def union_centroid(cells) -> Point:
    moments = [cell_moments(*cell) for cell in cells]
    mass = sum(m for m, _, _ in moments)
    return Point(sum(m * c.x for m, c, _ in moments) / mass,
                 sum(m * c.y for m, c, _ in moments) / mass)


def union_about(cells, center: Point) -> Fraction:
    return sum(about(cell, center) for cell in cells)


class TestGlobalMoments:
    def test_constants(self):
        # The whole measure: mass 1, mean (1/2, 1/2), total variance 1/4.
        assert cell_moments(ROOT, ROOT) == (1, MEAN, Fraction(1, 4))

    def test_unit_square_about_mean(self):
        assert about((ROOT, ROOT), MEAN) == Fraction(1, 4)

    def test_parallel_axis_shift(self):
        origin = Point(Fraction(0), Fraction(0))
        assert about((ROOT, ROOT), origin) == Fraction(1, 4) + HALF


class TestRectangleCentroids:
    @pytest.mark.parametrize(
        "word,expected",
        [(PairWord.of((1, 1)), Point(Fraction(1, 6), Fraction(1, 6))),
         (PairWord.of((1, 2)), Point(Fraction(1, 6), Fraction(13, 18))),
         (PairWord.of((2, 1)), Point(Fraction(13, 18), Fraction(1, 6)))],
    )
    def test_values(self, word, expected):
        assert cell_moments(*cell_of(word))[1] == expected

    def test_centroid_is_image_of_mean(self):
        w = PairWord.of((2, 3), (1, 1))
        s, t = cell_of(w)
        c = cell_moments(s, t)[1]
        (x0, x1), (y0, y1) = cell_interval(s), cell_interval(t)
        assert x0 < c.x < x1 and y0 < c.y < y1
        first, second = components(w)
        assert c == Point(map_T_word(first).apply(HALF), map_T_word(second).apply(HALF))


class TestTailClosedForms:
    def test_tail_centroid_matches_truncated_series(self):
        # The (1,2) tail past the second coordinate is the union of the
        # (1,j) rectangles for j >= 3, the cell (1, 22).  Truncating at
        # j = 60 leaves mass 2^-61, so agreement to 1e-15 pins it.
        tail = cell_of(PairWord.of((1, 2)), inf_y=True)
        assert tail == (BinaryWord("1"), BinaryWord("22"))
        target = cell_moments(*tail)[1]
        approx = union_centroid(cell_of(PairWord.of((1, j))) for j in range(3, 61))
        assert abs(approx.x - target.x) < Fraction(1, 10**15)
        assert abs(approx.y - target.y) < Fraction(1, 10**15)

    def test_tail_second_moment_matches_truncated_series(self):
        tail = cell_of(PairWord.of((1, 2)), inf_y=True)
        center = Point(Fraction(1, 6), Fraction(9, 10))
        members = [cell_of(PairWord.of((1, j))) for j in range(3, 61)]
        truncated = union_about(members, center)
        exact = about(tail, center)
        # Residual mass 2^-61 at squared distance at most 2.
        assert truncated < exact < truncated + Fraction(2, 2**61)

    def test_both_axes_tail(self):
        tail = cell_of(PairWord.of((2, 2)), inf_x=True, inf_y=True)
        assert tail == (BinaryWord("22"), BinaryWord("22"))
        mass, c, _ = cell_moments(*tail)
        approx = union_centroid(
            cell_of(PairWord.of((i, j))) for i in range(3, 40) for j in range(3, 40)
        )
        assert abs(approx.x - c.x) < Fraction(1, 10**9)
        assert abs(approx.y - c.y) < Fraction(1, 10**9)
        assert mass == cell_moments(*cell_of(PairWord.of((2, 2))))[0]


class TestFourRegionPartition:
    # Any basic rectangle splits exactly into its (1,1) child rectangle
    # plus the three sibling tail unions attached to that child.
    def partition(self, word):
        child = word.append(1, 1)
        return [
            cell_of(child),
            cell_of(child, inf_y=True),
            cell_of(child, inf_x=True),
            cell_of(child, inf_x=True, inf_y=True),
        ]

    @pytest.mark.parametrize(
        "word", [PairWord(), PairWord.of((1, 1)), PairWord.of((2, 3))]
    )
    def test_mass_splits(self, word):
        parts = self.partition(word)
        assert sum(cell_moments(*p)[0] for p in parts) == cell_moments(*cell_of(word))[0]

    @pytest.mark.parametrize(
        "word", [PairWord(), PairWord.of((1, 1)), PairWord.of((2, 3))]
    )
    def test_centroid_recombines(self, word):
        parts = self.partition(word)
        assert union_centroid(parts) == cell_moments(*cell_of(word))[1]

    @pytest.mark.parametrize(
        "center",
        [Point(HALF, HALF), Point(Fraction(3, 10), Fraction(7, 10)),
         Point(Fraction(0), Fraction(1))],
    )
    def test_distortion_recombines(self, center):
        whole = about((ROOT, ROOT), center)
        assert union_about(self.partition(PairWord()), center) == whole


class TestCellMoments:
    # The depth-1 product cells A_1 x A_1 and A_2 x A_1 are the rectangle
    # J_(1,1) and the tail union past (1,1) in the first coordinate.
    def test_cell_centroid_is_midpoint(self):
        s, t = cell_of(PairWord.of((1, 1)), inf_x=True)
        assert (s, t) == (BinaryWord("2"), BinaryWord("1"))
        assert cell_interval(s) + cell_interval(t) == (Fraction(2, 3), 1, 0, Fraction(1, 3))
        assert cell_moments(s, t)[1] == Point(Fraction(5, 6), Fraction(1, 6))

    def test_second_moment_about_centroid(self):
        mass, centroid, second = cell_moments(*cell_of(PairWord.of((1, 1))))
        assert mass == Fraction(1, 4)
        assert second == Fraction(1, 4) * Fraction(2, 9) / 8
        assert about(cell_of(PairWord.of((1, 1))), centroid) == second
