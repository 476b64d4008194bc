"""Certified distortion evaluation, Lloyd iteration, multistart search.

The engine answers one question rigorously: how large is the distortion
integral of an arbitrary finite codebook against the product measure?
It recurses over the square product cells, keeping for each cell the
subset of codewords that can still own part of it.  The depth-d cells
are lattice squares [x, x+1] x [y, y+1] * 3^-d, so the walk runs on
integers.  Each cell is filtered against z, the active codeword nearest
its midpoint: a codeword is discarded when z is weakly closer on the
whole cell rectangle, which one corner decides, since the closer-to-z
set is a half-plane (the filtering algorithm of Kanungo et al., TPAMI
2002), which keeps the owners and bounds of testing every pair (see
_LatticeBook).  A cell with a single survivor is owned outright and
contributes a closed-form integral; a contested cell splits into its
four children.  Contested cells at the depth limit contribute certified
lower and upper bounds instead, so the result is always a correct
enclosure, and it is exact whenever the recursion terminates.

Two walks share the one filter kernel: the best-first exact_distortion
and the depth-first _walk under iter_assignments and lloyd_step.  Both
carry cells as bare (depth, x, y) integers, take the root from
_LatticeBook.split and every other cell from _LatticeBook.children, which
expands a cell's four children in one pass and keeps them.  The lattice
book of the last codebook walked is kept as well, so a second walk of
one codebook (lloyd_step after exact_distortion) reuses the tree that
the first expanded.  A leaf of _walk is one (depth, x, y, owner)
CellAssignment.
Distances appear only squared; no roots, no rounding.  exact_distortion
sums its bounds as integers in the unit 1/(4 * 36^deep * D^2), D the
codebook's denominator and deep the depth of the deepest cell met so
far, and turns them into Fractions once, at return.  The engine reads
and writes no text: the CLI parses codebook files and prints intervals.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, NamedTuple

from .optimal import Codebook, Point

DEFAULT_TOLERANCE = Fraction(1, 10**12)
DEFAULT_MAX_DEPTH = 40
# Iteration cap of lloyd.
_MAX_ITERS = 50


class CellAssignment(NamedTuple):
    """The depth-d product cell [x, x+1] x [y, y+1] * 3^-d and the codeword
    that owns all of it, or None when it is still contested at the cutoff.

    These are the cells U_s[0,1] x U_t[0,1] with |s| = |t| = d: the base-3
    digits of x spell s with 0 for the map U_1 and 2 for U_2, and those of
    y spell t.
    """

    depth: int
    x: int
    y: int
    owner: int | None


class _LatticeBook:
    """A codebook on the integer lattice: D is its denominator and P_i =
    D z_i its numerator pairs, as the Codebook holds them.  Codeword j is
    weakly closer than codeword i at a point c exactly when
    2c.(z_i - z_j) <= |z_i|^2 - |z_j|^2.  With c = C/3^d and cleared
    denominators that reads C.u <= 3^d k for u = 2D(P_i - P_j) and
    k = |P_i|^2 - |P_j|^2; j dominates i on a cell when this holds at the
    one corner picked by the signs of u, where the left side is largest.

    Filtering each cell against z alone gives the results of all pairs:
    - domination on a cell is a strict partial order: it is transitive,
      and two distinct codewords never dominate each other;
    - z is never dominated: a tie at the interior midpoint cannot lie on
      the edge of a half-plane;
    - so each extra survivor is dominated by an all-pairs survivor, which
      is at least as near the midpoint and the cell rectangle.

    root is split's result for the root cell, and tree holds children's
    result for every cell expanded so far, for the life of the book.
    """

    def __init__(self, codebook: Codebook):
        d = self.scale = codebook.den
        self.coords = codebook.pairs
        self.norms = [a * a + b * b for a, b in self.coords]
        self.scaled = [(2 * d * a, 2 * d * b) for a, b in self.coords]  # u = 2D P_i - 2D P_j
        self.root = self.split(0, 0, 0, tuple(range(len(codebook))))
        self.tree: dict[tuple[int, int, int], tuple] = {}

    def split(self, depth: int, x: int, y: int, active: tuple[int, ...]) -> tuple:
        """(z, gap, survivors) for the depth-d cell at (x, y): z is the
        active codeword nearest the midpoint (the earliest on ties), gap its
        squared distance to the midpoint in units of 1/(2 * 3^d * D)^2, and
        the survivors the active codewords that z does not dominate on the
        cell.  Dropped codewords cannot own any point of the cell."""
        coords, d, s = self.coords, self.scale, 3**depth
        cx, cy, s2 = (2 * x + 1) * d, (2 * y + 1) * d, 2 * s
        z = best = None
        for i in active:
            a, b = coords[i]
            ex, ey = cx - s2 * a, cy - s2 * b
            gap = ex * ex + ey * ey
            if best is None or gap < best:
                z, best = i, gap
        scaled, norms = self.scaled, self.norms
        (xz, yz), kz = scaled[z], s * norms[z]
        keep = []
        for i in active:
            xi, yi = scaled[i]
            ux, uy = xi - xz, yi - yz
            if i == z or (x * ux + y * uy + (ux if ux > 0 else 0) + (uy if uy > 0 else 0)
                          > s * norms[i] - kz):
                keep.append(i)
        return z, best, tuple(keep)

    def children(self, depth: int, x: int, y: int, active: tuple[int, ...]) -> tuple:
        """split's (z, gap, survivors) for each of the four children of the
        depth-d cell at (x, y), in address order, each filtered from active.

        The children sit at (3x + 2e, 3y + 2f) for e, f in {0, 1}, and
        child (e, f)'s squared midpoint offset is gx[e] + gy[f]: one pass
        over active finds the four nearest codewords from four squares per
        codeword, a second runs the four filter tests.  The result is kept
        per parent cell.  Both walks reach a cell only with its parent's
        survivors as active, and the root's are all codewords, so
        (depth, x, y) names the result and a second walk of the codebook
        reuses the first walk's tree."""
        key = depth, x, y
        if (kids := self.tree.get(key)) is not None:
            return kids
        coords, d, s = self.coords, self.scale, 3 ** (depth + 1)
        x, y, s2, step = 3 * x, 3 * y, 2 * s, 4 * d
        cx, cy = (2 * x + 1) * d, (2 * y + 1) * d
        b0 = b1 = b2 = b3 = math.inf  # the first codeword sets every z
        for i in active:
            a, b = coords[i]
            ex, ey = cx - s2 * a, cy - s2 * b
            # gx[0], gx[1], gy[0], gy[1] of the docstring
            gx, hx, gy, hy = ex * ex, (ex + step) ** 2, ey * ey, (ey + step) ** 2
            if gx + gy < b0:
                z0, b0 = i, gx + gy
            if gx + hy < b1:
                z1, b1 = i, gx + hy
            if hx + gy < b2:
                z2, b2 = i, hx + gy
            if hx + hy < b3:
                z3, b3 = i, hx + hy
        # j dominates i on the child at (X, Y) when h(i) + max(x_i, x_j) +
        # max(y_i, y_j) <= h(j) + x_j + y_j, h(i) = X x_i + Y y_i - s |P_i|^2
        # over the scaled pairs (x_i, y_i): split's corner test, rearranged.
        scaled, norms = self.scaled, self.norms
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = scaled[z0], scaled[z1], scaled[z2], scaled[z3]
        t0 = (x + 1) * x0 + (y + 1) * y0 - s * norms[z0]
        t1 = (x + 1) * x1 + (y + 3) * y1 - s * norms[z1]
        t2 = (x + 3) * x2 + (y + 1) * y2 - s * norms[z2]
        t3 = (x + 3) * x3 + (y + 3) * y3 - s * norms[z3]
        k0, k1, k2, k3 = [], [], [], []
        for i in active:  # h visits the children at offsets (0, 0), (0, 2), (2, 2), (2, 0)
            xi, yi = scaled[i]
            h = x * xi + y * yi - s * norms[i]
            if i == z0 or h + (xi if xi > x0 else x0) + (yi if yi > y0 else y0) > t0:
                k0.append(i)
            h += 2 * yi
            if i == z1 or h + (xi if xi > x1 else x1) + (yi if yi > y1 else y1) > t1:
                k1.append(i)
            h += 2 * xi
            if i == z3 or h + (xi if xi > x3 else x3) + (yi if yi > y3 else y3) > t3:
                k3.append(i)
            h -= 2 * yi
            if i == z2 or h + (xi if xi > x2 else x2) + (yi if yi > y2 else y2) > t2:
                k2.append(i)
        kids = self.tree[key] = (
            (z0, b0, tuple(k0)), (z1, b1, tuple(k1)), (z2, b2, tuple(k2)), (z3, b3, tuple(k3)))
        return kids

    def lower_gap(self, depth: int, x: int, y: int, active: tuple[int, ...]) -> int:
        """Squared distance from the depth-d cell at (x, y) to its nearest
        active codeword, in the units of split's midpoint gap."""
        coords, d, s2 = self.coords, self.scale, 2 * 3**depth
        x0, y0 = 2 * x * d, 2 * y * d
        x1, y1 = x0 + 2 * d, y0 + 2 * d
        best = None
        for i in active:
            a, b = coords[i]
            a, b = s2 * a, s2 * b
            ex = x0 - a if a < x0 else a - x1 if a > x1 else 0
            ey = y0 - b if b < y0 else b - y1 if b > y1 else 0
            gap = ex * ex + ey * ey
            if best is None or gap < best:
                best = gap
        return best


# The lattice book of the last codebook walked, so that a second question
# about it (exact_distortion, then lloyd_step) walks the tree once.
_lattice = functools.lru_cache(maxsize=1)(_LatticeBook)


class ResolutionError(Exception):
    """Voronoi resolution did not terminate at the requested depth: cell is
    the first leaf still contested at the cutoff, which is cell.depth."""

    def __init__(self, cell: CellAssignment):
        self.cell = cell
        super().__init__(f"cell unresolved at depth {cell.depth}: x={cell.x}, y={cell.y}")


class EmptyRegionError(Exception):
    """Some codeword captures no mass at all."""

    def __init__(self, indices: list[int]):
        self.indices = tuple(indices)
        joined = ", ".join(str(i) for i in self.indices)
        super().__init__(f"codewords with empty regions: {joined}")


@dataclass(frozen=True, slots=True)
class CertifiedInterval:
    """Rational enclosure [lower, upper] of a distortion integral."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"interval has lower {self.lower} > upper {self.upper}")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def exact_distortion(
    codebook: Codebook,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CertifiedInterval:
    """Certified distortion of a codebook, exact when resolution ends.

    Best-first refinement: contested cells wait in a heap keyed by the
    width of their bound gap, widest first, and are split into their
    four children until the global gap drops to the tolerance, the depth
    limit freezes the remainder, or nothing is contested.  The result is
    exact precisely when no contested cell remains.

    Per cell, with z the active codeword nearest the midpoint and g the
    squared offsets in units of 1/(2 * 3^d * D):
    - the upper bound is the integral of |p - z|^2, mass times the
      parallel-axis sum 2 * 9^-d / 8 + |midpoint - z|^2; exact for a single
      owner, an overestimate for a contested cell;
    - the lower bound is mass times the squared distance from the cell
      rectangle to its nearest survivor.
    In the unit 1/(4 * 36^d * D^2) these are D^2 + g(midpoint) and
    g(rectangle), both integers.  All sums and heap keys are kept as
    integers in the unit of the deepest cell met so far; when a deeper
    cell arrives, everything is multiplied by 36, which keeps the heap
    order.  The bounds become Fractions once, at return.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    tol_num, tol_den = tolerance.numerator, tolerance.denominator
    book = _lattice(codebook)
    d2 = book.scale**2
    # Bounds are numerators over unit = 4 * 36^deep * D^2; a depth-c
    # numerator is lifted to it by f = 36^(deep - c).  New cells are the
    # children of a popped one, so they are at most one level below deep.
    # Contested cells, queued or frozen at the depth limit, are open, and
    # each has lo < up, since lo <= f * gap < f * (d2 + gap) = up.
    deep, unit = 0, 4 * d2
    resolved = open_lo = open_up = 0
    heap: list[tuple] = []
    tick = itertools.count()
    # Each pass takes the root, or the four children of a popped cell.
    depth, cells = 0, (((0, 0), book.root),)
    while True:
        if depth > deep:
            deep, unit = depth, 36 * unit
            resolved, open_lo, open_up = 36 * resolved, 36 * open_lo, 36 * open_up
            heap[:] = [(36 * key, t, c, x, y, s, 36 * lo, 36 * up)
                       for key, t, c, x, y, s, lo, up in heap]
        f = 36 ** (deep - depth)
        for (x, y), (_, gap, surv) in cells:
            up = (d2 + gap) * f
            if len(surv) == 1:
                resolved += up
                continue
            lo = book.lower_gap(depth, x, y, surv) * f
            open_lo += lo
            open_up += up
            if depth < max_depth:
                heapq.heappush(heap, (lo - up, next(tick), depth, x, y, surv, lo, up))
        if not heap or (open_up - open_lo) * tol_den <= tol_num * unit:
            break
        _, _, depth, x, y, active, lo, up = heapq.heappop(heap)
        open_lo -= lo
        open_up -= up
        kids = book.children(depth, x, y, active)
        depth, x, y = depth + 1, 3 * x, 3 * y
        cells = zip(((x, y), (x, y + 2), (x + 2, y), (x + 2, y + 2)), kids)
    return CertifiedInterval(
        Fraction(resolved + open_lo, unit),
        Fraction(resolved + open_up, unit),
    )


def _walk(book: _LatticeBook, depth: int) -> Iterator[tuple[int, int, int, int | None]]:
    """Depth-first over the cell tree: (depth, x, y, owner) per maximal
    resolved cell, and owner None per cell still contested at the cutoff."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    stack = [(0, 0, 0, book.root[2])]
    while stack:
        c, x, y, surv = stack.pop()
        if len(surv) == 1:
            yield c, x, y, surv[0]
        elif c >= depth:
            yield c, x, y, None
        else:
            (_, _, s0), (_, _, s1), (_, _, s2), (_, _, s3) = book.children(c, x, y, surv)
            c, x, y = c + 1, 3 * x, 3 * y
            stack += ((c, x + 2, y + 2, s3), (c, x + 2, y, s2), (c, x, y + 2, s1), (c, x, y, s0))


def iter_assignments(codebook: Codebook, depth: int) -> Iterator[CellAssignment]:
    """Maximal resolved cells of the tree, cut off at the given depth.

    Yields each cell as a (depth, x, y, owner) record the moment it
    resolves, so a cell resolved at depth 2 stands for all its depth-5
    descendants.  Cells still contested at the cutoff are yielded with
    owner None, in the depth-first order of the walk.
    """
    return map(CellAssignment._make, _walk(_lattice(codebook), depth))


def lloyd_step(codebook: Codebook, depth: int) -> Codebook:
    """One exact centroid update over the depth-resolved partition.

    Every codeword moves to the mass centroid of the cells it owns.  The
    first cell still contested at the cutoff, in walk order, aborts the
    step with a ResolutionError that names it: the partition is not
    known, so no centroid may be trusted.  A contested cell thus wins
    over an empty region, which only the whole walk can show.
    """
    k = len(codebook)
    # Masses in units of 4^-depth, first moments in units of 4^-depth /
    # (2 * 3^depth), the cell midpoint being (2x+1) / (2 * 3^d); a depth-c
    # cell weighs 4^u and 12^u in them, u = depth - c.
    mass, mx, my = [0] * k, [0] * k, [0] * k
    for c, x, y, owner in _walk(_lattice(codebook), depth):
        if owner is None:
            raise ResolutionError(CellAssignment(c, x, y, None))
        w = 12 ** (depth - c)
        mass[owner] += 4 ** (depth - c)
        mx[owner] += w * (2 * x + 1)
        my[owner] += w * (2 * y + 1)
    empty = [i for i in range(k) if mass[i] == 0]
    if empty:
        raise EmptyRegionError(empty)
    den = math.lcm(*mass)
    return Codebook.over(2 * 3**depth * den, [
        (mx[i] * (den // mass[i]), my[i] * (den // mass[i])) for i in range(k)])


@dataclass(frozen=True, slots=True)
class LloydResult:
    codebook: Codebook
    interval: CertifiedInterval
    iterations: int
    converged: bool


def lloyd(codebook: Codebook, depth: int) -> LloydResult:
    """Iterate lloyd_step to an exact fixed point or the iteration cap.

    Convergence means exact rational equality of consecutive codebooks,
    not a numerical threshold.  The returned interval is the certified
    distortion of the final codebook, at the default tolerance and depth
    cap of exact_distortion.
    """
    current = codebook
    converged = False
    steps = 0
    for _ in range(_MAX_ITERS):
        nxt = lloyd_step(current, depth)
        steps += 1
        if nxt == current:
            converged = True
            break
        current = nxt
    interval = exact_distortion(current)
    return LloydResult(current, interval, steps, converged)


class Lcg64:
    """64-bit linear congruential generator, fixed published constants.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    emitting state'/2^64 as an exact dyadic fraction in [0, 1).  The
    stream depends only on the seed, never on platform or hash state.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_fraction(self) -> Fraction:
        self.state = (self.state * self.MULT + self.INC) & self._MASK
        return Fraction(self.state, 1 << 64)


class RunStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max-iters"
    RESOLUTION_FAILURE = "resolution-failure"
    EMPTY_REGION = "empty-region"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, slots=True)
class RunRecord:
    """Outcome of one multistart run."""

    index: int
    status: RunStatus
    iterations: int
    codebook: Codebook | None
    interval: CertifiedInterval | None


@dataclass(frozen=True, slots=True)
class MultistartResult:
    runs: tuple[RunRecord, ...]

    @property
    def best(self) -> RunRecord | None:
        """The finished run with the smallest upper bound, earliest wins ties."""
        candidates = [r for r in self.runs if r.interval is not None]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.interval.upper, r.index))

    def tally(self) -> dict[RunStatus, int]:
        counts = {status: 0 for status in RunStatus}
        for r in self.runs:
            counts[r.status] += 1
        return counts


def multistart_search(n: int, seeds: int, rng_seed: int, depth: int) -> MultistartResult:
    """Lloyd iteration from uniform random starts, deterministic stream.

    All runs draw from one generator in run order, 2n draws per run, so
    run r's start depends only on (n, rng_seed, r).  Each run is one
    lloyd call at the given depth, with no retry at a deeper one: for
    1/3 <= lambda <= 3 the sum C + lambda*C of the middle-thirds Cantor
    set is an interval (Newhouse's gap lemma), so a bisector whose normal
    (u_x, u_y) has |u_y / u_x| in that range meets the support in every
    cell it crosses, at every depth.
    Most random starts for small n are expected to fail that way.
    Failed runs are recorded and counted, never silently dropped.
    """
    if n < 1:
        raise ValueError(f"multistart_search requires n >= 1, got {n}")
    if seeds < 1:
        raise ValueError(f"multistart_search requires seeds >= 1, got {seeds}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    rng = Lcg64(rng_seed)
    runs = []
    for r in range(seeds):
        coords = [(rng.next_fraction(), rng.next_fraction()) for _ in range(n)]
        try:
            start = Codebook.of(Point(x, y) for x, y in coords)
        except ValueError:  # a repeated start point
            runs.append(RunRecord(r, RunStatus.DEGENERATE, 0, None, None))
            continue
        try:
            res = lloyd(start, depth)
        except ResolutionError:
            runs.append(RunRecord(r, RunStatus.RESOLUTION_FAILURE, 0, None, None))
        except EmptyRegionError:
            runs.append(RunRecord(r, RunStatus.EMPTY_REGION, 0, None, None))
        else:
            status = RunStatus.CONVERGED if res.converged else RunStatus.MAX_ITERS
            runs.append(RunRecord(r, status, res.iterations, res.codebook, res.interval))
    return MultistartResult(tuple(runs))
