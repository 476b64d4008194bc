"""Exact centroids and squared-distance integrals over support regions.

Everything reduces to two facts about the measure.  First, the mean of
each axis marginal is 1/2 and its variance is 1/8, so the full measure
has mean (1/2, 1/2) and total variance 1/4.  Second, conditioning on a
basic rectangle J_w is the same as pushing the whole measure forward
through S_w, which turns moments into closed forms:

    centroid(J_w)      = S_w(1/2, 1/2)
    int_{J_w} |x-c|^2  = p_w * ( (s1^2 + s2^2)/8 + |centroid - c|^2 )

where p_w is the rectangle's mass and s1, s2 its per-axis contraction
ratios (the parallel-axis identity).  The three sibling tail unions
attached to a word admit centroids in closed form as well: summing the
geometric series moves the centroid to the next block's image shifted by
one block width along each coordinate that runs to infinity.  Their
second moment about their own centroid takes the *same* value
p_w (s1^2 + s2^2)/8 as the rectangle's, so a single formula serves both
region kinds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .measure import (
    HALF,
    Point,
    Region,
    RegionKind,
    map_S,
    ratios,
)
from .words import PairWord, TailMarker, parent

MEAN = Point(HALF, HALF)
AXIS_VARIANCE = Fraction(1, 8)
TOTAL_VARIANCE = Fraction(1, 4)


def centroid(omega: PairWord) -> Point:
    """Centroid of the basic rectangle J_w: the image of the global mean."""
    return map_S(omega).apply(MEAN)


def tail_centroid(omega: PairWord, tail: TailMarker) -> Point:
    """Centroid of a sibling tail union attached to a nonempty word.

    With (i, j) the last symbol, the union past the second coordinate has
    centroid S_{w-(i, j+1)}(1/2, 1/2) + (0, s2'), where s2' is the
    vertical ratio of the word w-(i, j+1); symmetrically for the first
    coordinate, and both shifts apply when both run to infinity.
    """
    if tail is TailMarker.NONE:
        raise ValueError("tail_centroid requires a real tail marker")
    if len(omega) == 0:
        raise ValueError("tail unions require at least one symbol")
    i, j = omega.last
    di = 1 if tail in (TailMarker.INF_EMPTY, TailMarker.INF_INF) else 0
    dj = 1 if tail in (TailMarker.EMPTY_INF, TailMarker.INF_INF) else 0
    base = parent(omega).append(i + di, j + dj)
    rx, ry = ratios(base)
    c = centroid(base)
    return c.translate(rx if di else Fraction(0), ry if dj else Fraction(0))


def region_centroid(region: Region) -> Point:
    if region.kind is RegionKind.RECT:
        return centroid(region.word)
    return tail_centroid(region.word, region.tail)


def single_center_distortion(region: Region, center: Point) -> Fraction:
    """Exact integral of |x - center|^2 over the region.

    Parallel-axis form: mass * ( (rx^2 + ry^2)/8 + |centroid - center|^2 ).
    """
    second = region.mass * (region.ratio_x**2 + region.ratio_y**2) * AXIS_VARIANCE
    return second + region.mass * region_centroid(region).dist2(center)


def union_centroid(regions: Sequence[Region] | Iterable[Region]) -> Point:
    """Mass-weighted centroid of pairwise disjoint regions."""
    mass = Fraction(0)
    mx = Fraction(0)
    my = Fraction(0)
    for region in regions:
        c = region_centroid(region)
        mass += region.mass
        mx += region.mass * c.x
        my += region.mass * c.y
    if mass == 0:
        raise ValueError("union_centroid requires positive total mass")
    return Point(mx / mass, my / mass)


def union_distortion(regions: Iterable[Region], center: Point) -> Fraction:
    """Sum of single-center integrals over pairwise disjoint regions."""
    return sum((single_center_distortion(r, center) for r in regions), Fraction(0))
