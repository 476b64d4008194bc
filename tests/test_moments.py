"""Centroids and second moments, including the sibling-tail closed forms."""

from fractions import Fraction

import pytest

from cantorquant.measure import (
    Point,
    prob,
    rect_region,
    tail_region,
)
from cantorquant.moments import (
    AXIS_VARIANCE,
    MEAN,
    TOTAL_VARIANCE,
    centroid,
    region_centroid,
    single_center_distortion,
    tail_centroid,
    union_centroid,
    union_distortion,
)
from cantorquant.words import PairWord, TailMarker

HALF = Fraction(1, 2)


class TestGlobalMoments:
    def test_constants(self):
        assert MEAN == Point(HALF, HALF)
        assert AXIS_VARIANCE == Fraction(1, 8)
        assert TOTAL_VARIANCE == Fraction(1, 4)

    def test_unit_square_about_mean(self):
        square = rect_region(PairWord())
        assert single_center_distortion(square, MEAN) == TOTAL_VARIANCE

    def test_parallel_axis_shift(self):
        square = rect_region(PairWord())
        origin = Point(Fraction(0), Fraction(0))
        assert single_center_distortion(square, origin) == TOTAL_VARIANCE + HALF


class TestRectangleCentroids:
    @pytest.mark.parametrize(
        "word,expected",
        [(PairWord.of((1, 1)), Point(Fraction(1, 6), Fraction(1, 6))),
         (PairWord.of((1, 2)), Point(Fraction(1, 6), Fraction(13, 18))),
         (PairWord.of((2, 1)), Point(Fraction(13, 18), Fraction(1, 6)))],
    )
    def test_values(self, word, expected):
        assert centroid(word) == expected

    def test_centroid_is_image_of_mean(self):
        w = PairWord.of((2, 3), (1, 1))
        r = rect_region(w)
        c = centroid(w)
        assert r.x0 < c.x < r.x1 and r.y0 < c.y < r.y1
        assert region_centroid(r) == c


class TestTailClosedForms:
    def test_tail_centroid_matches_truncated_series(self):
        # The (1,2) tail past the second coordinate is the union of the
        # (1,j) rectangles for j >= 3.  Truncating at j = 60 leaves mass
        # 2^-61, so agreement to 1e-15 pins the closed form.
        target = tail_centroid(PairWord.of((1, 2)), TailMarker.EMPTY_INF)
        members = [rect_region(PairWord.of((1, j))) for j in range(3, 61)]
        approx = union_centroid(members)
        assert abs(approx.x - target.x) < Fraction(1, 10**15)
        assert abs(approx.y - target.y) < Fraction(1, 10**15)

    def test_tail_second_moment_matches_truncated_series(self):
        # Same union, now comparing the one-center integral.  The tail's
        # closed form uses the rectangle parametrization mass*(rx^2+ry^2)/8.
        word = PairWord.of((1, 2))
        tail = tail_region(word, TailMarker.EMPTY_INF)
        center = Point(Fraction(1, 6), Fraction(9, 10))
        members = [rect_region(PairWord.of((1, j))) for j in range(3, 61)]
        truncated = union_distortion(members, center)
        exact = single_center_distortion(tail, center)
        # Residual mass 2^-61 at squared distance at most 2.
        assert truncated < exact < truncated + Fraction(2, 2**61)

    def test_both_axes_tail(self):
        t = tail_region(PairWord.of((2, 2)), TailMarker.INF_INF)
        c = tail_centroid(PairWord.of((2, 2)), TailMarker.INF_INF)
        members = [
            rect_region(PairWord.of((i, j)))
            for i in range(3, 40) for j in range(3, 40)
        ]
        approx = union_centroid(members)
        assert abs(approx.x - c.x) < Fraction(1, 10**9)
        assert abs(approx.y - c.y) < Fraction(1, 10**9)
        assert t.mass == prob(PairWord.of((2, 2)))


class TestFourRegionPartition:
    # Any basic rectangle splits exactly into its (1,1) child rectangle
    # plus the three sibling tail unions attached to that child.
    def partition(self, word):
        child = word.append(1, 1)
        return [
            rect_region(child),
            tail_region(child, TailMarker.EMPTY_INF),
            tail_region(child, TailMarker.INF_EMPTY),
            tail_region(child, TailMarker.INF_INF),
        ]

    @pytest.mark.parametrize(
        "word", [PairWord(), PairWord.of((1, 1)), PairWord.of((2, 3))]
    )
    def test_mass_splits(self, word):
        parts = self.partition(word)
        assert sum(p.mass for p in parts) == prob(word)

    @pytest.mark.parametrize(
        "word", [PairWord(), PairWord.of((1, 1)), PairWord.of((2, 3))]
    )
    def test_centroid_recombines(self, word):
        parts = self.partition(word)
        assert union_centroid(parts) == region_centroid(rect_region(word))

    @pytest.mark.parametrize(
        "center",
        [Point(HALF, HALF), Point(Fraction(3, 10), Fraction(7, 10)),
         Point(Fraction(0), Fraction(1))],
    )
    def test_distortion_recombines(self, center):
        whole = single_center_distortion(rect_region(PairWord()), center)
        parts = self.partition(PairWord())
        assert union_distortion(parts, center) == whole


class TestCellMoments:
    # The depth-1 product cells A_1 x A_1 and A_2 x A_1 are the rectangle
    # J_(1,1) and the tail union past (1,1) in the first coordinate.
    def test_cell_centroid_is_midpoint(self):
        c = tail_region(PairWord.of((1, 1)), TailMarker.INF_EMPTY)
        assert (c.x0, c.x1, c.y0, c.y1) == (Fraction(2, 3), 1, 0, Fraction(1, 3))
        assert region_centroid(c) == Point(Fraction(5, 6), Fraction(1, 6))

    def test_second_moment_about_centroid(self):
        c = rect_region(PairWord.of((1, 1)))
        assert c.mass == Fraction(1, 4)
        second = single_center_distortion(c, region_centroid(c))
        assert second == Fraction(1, 4) * Fraction(2, 9) / 8


class TestUnions:
    def test_union_centroid_requires_mass(self):
        with pytest.raises(ValueError):
            union_centroid([])

    def test_union_distortion_empty_is_zero(self):
        assert union_distortion([], MEAN) == 0
