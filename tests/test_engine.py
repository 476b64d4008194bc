"""Certified distortion, cell resolution, Lloyd iteration, multistart."""

import heapq
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from cantorquant.cli import main
from cantorquant.engine import (
    CellAssignment,
    CertifiedInterval,
    EmptyRegionError,
    Lcg64,
    ResolutionError,
    RunStatus,
    exact_distortion,
    iter_assignments,
    lloyd,
    lloyd_step,
    multistart_search,
    _LatticeBook,
    _MAX_ITERS,
    _lattice,
)
from cantorquant.measure import cell_interval, cell_moments, dist2
from cantorquant.optimal import (
    Codebook,
    Point,
    count_variants,
    optimal_codebook,
    quantization_error,
    spread_indices,
)
from cantorquant.words import BinaryWord

HALF = Fraction(1, 2)


def book_of(*coords):
    return Codebook.of(Point(Fraction(x), Fraction(y)) for x, y in coords)


HORIZONTAL_PAIR = book_of(("1/6", "1/2"), ("5/6", "1/2"))
DIAGONAL_PAIR = book_of(("3/10", "7/10"), ("7/10", "3/10"))
THREE_DOWN = book_of(("1/6", "1/6"), ("5/6", "1/6"), ("1/2", "5/6"))


def cell_at(sigma: str, tau: str) -> tuple[int, int, int]:
    """The (depth, x, y) position of the cell U_sigma[0,1] x U_tau[0,1],
    read off the word model."""
    return len(sigma), BinaryWord(sigma).lattice, BinaryWord(tau).lattice


ROOT = cell_at("", "")


def cell_mass(cell) -> Fraction:
    """The mass of the cell at (depth, x, y), or of a leaf record."""
    return Fraction(1, 4 ** cell[0])


def children(cell):
    """The four subcells one level down, in address order."""
    d, x, y = cell[0] + 1, 3 * cell[1], 3 * cell[2]
    return ((d, x, y), (d, x, y + 2), (d, x + 2, y), (d, x + 2, y + 2))


class TestCell:
    def test_root_address(self):
        assert ROOT == (0, 0, 0)
        assert cell_mass(ROOT) == 1

    def test_address_round_trips(self):
        cell = cell_at("12", "21")
        assert cell == (2, 2, 6)
        # Descending by the digits of (sigma, tau) reaches the same cell.
        walked = ROOT
        for a, b in zip("12", "21"):
            walked = children(walked)[2 * (a == "2") + (b == "2")]
        assert walked == cell
        assert cell_mass(cell) == Fraction(1, 16)
        depth, x, y = cell
        scale = 3**depth
        assert cell_interval(BinaryWord("12")) == (Fraction(x, scale), Fraction(x + 1, scale))
        assert cell_interval(BinaryWord("21")) == (Fraction(y, scale), Fraction(y + 1, scale))

    def test_children_masses_sum_to_parent(self):
        cell = cell_at("12", "21")
        subcells = children(cell)
        assert subcells == (cell_at("121", "211"), cell_at("121", "212"),
                            cell_at("122", "211"), cell_at("122", "212"))
        assert sum(cell_mass(c) for c in subcells) == cell_mass(cell)


class TestResolveCell:
    """Which codeword owns a whole cell, read off iter_assignments."""

    def test_left_cell_owned_by_left_point(self):
        owners = {a[:3]: a.owner for a in iter_assignments(HORIZONTAL_PAIR, 1)}
        assert owners == {cell_at("1", "1"): 0, cell_at("1", "2"): 0,
                          cell_at("2", "1"): 1, cell_at("2", "2"): 1}

    def test_root_is_contested(self):
        assigns = list(iter_assignments(HORIZONTAL_PAIR, 0))
        assert assigns == [CellAssignment(*ROOT, None)]
        assert CellAssignment._fields == ("depth", "x", "y", "owner")

    def test_single_point_owns_everything(self):
        assigns = list(iter_assignments(book_of(("1/2", "1/2")), 5))
        assert assigns == [CellAssignment(*ROOT, 0)]


class TestCertifiedInterval:
    def test_width(self):
        iv = CertifiedInterval(Fraction(1, 3), HALF)
        assert iv.width == Fraction(1, 6)
        assert not iv.exact and CertifiedInterval(HALF, HALF).exact

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            CertifiedInterval(Fraction(1), Fraction(0))


class TestExactDistortion:
    @pytest.mark.parametrize(
        "book,value",
        [(book_of(("1/2", "1/2")), Fraction(1, 4)),
         (HORIZONTAL_PAIR, Fraction(5, 36)),
         (THREE_DOWN, Fraction(1, 12)),
         (optimal_codebook(4), Fraction(1, 36)),
         (optimal_codebook(5, 0), Fraction(2, 81))],
    )
    def test_exact_values(self, book, value):
        iv = exact_distortion(book)
        assert iv.exact
        assert iv.lower == iv.upper == value

    def test_symmetry_images_agree(self):
        # The measure is invariant under the square's symmetries.
        def images(book):
            pts = [(p.x, p.y) for p in book]
            yield pts
            yield [(1 - x, y) for x, y in pts]
            yield [(x, 1 - y) for x, y in pts]
            yield [(y, x) for x, y in pts]
        values = set()
        for pts in images(THREE_DOWN):
            iv = exact_distortion(Codebook.of(Point(x, y) for x, y in pts))
            assert iv.exact
            values.add(iv.lower)
        assert values == {Fraction(1, 12)}

    def test_single_center_matches_moment_engine(self):
        center = Point(Fraction(2, 7), Fraction(1, 3))
        iv = exact_distortion(Codebook.of([center]))
        mass, centroid, second = cell_moments(BinaryWord(""), BinaryWord(""))
        assert iv.exact
        assert iv.lower == second + mass * dist2(centroid, center)

    def test_diagonal_intervals_nest(self):
        tiny = Fraction(1, 10**30)
        ivs = [exact_distortion(DIAGONAL_PAIR, tiny, depth)
               for depth in (6, 9, 12)]
        for shallow, deep in zip(ivs, ivs[1:]):
            assert shallow.lower <= deep.lower
            assert deep.upper <= shallow.upper
        assert not ivs[-1].exact
        assert ivs[-1].lower > Fraction(5, 36)

    def test_huge_depth_cap_costs_nothing_extra(self):
        # The bounds' unit follows the deepest cell reached, not the cap: a
        # unit of 36^max_depth would be a gigabit integer here.
        tol = Fraction(1, 10**9)
        start = time.monotonic()
        huge = exact_distortion(DIAGONAL_PAIR, tol, 10**9)
        assert time.monotonic() - start < 2
        capped = exact_distortion(DIAGONAL_PAIR, tol, 40)
        assert (huge.lower, huge.upper, huge.exact) == (capped.lower, capped.upper, capped.exact)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match=r"^max_depth must be >= 1, got 0$"):
            exact_distortion(HORIZONTAL_PAIR, max_depth=0)
        with pytest.raises(ValueError):
            exact_distortion(HORIZONTAL_PAIR, tolerance=Fraction(-1))

    def test_interval_json(self, tmp_path, capsys):
        # The engine returns the interval; the CLI prints its JSON.
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"points": [p.to_json() for p in HORIZONTAL_PAIR]}))
        assert main(["distortion", "--codebook", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "lower": "5/36", "upper": "5/36", "exact": True}


class TestAssignments:
    def test_resolved_assignments_cover_all_mass(self):
        total = Fraction(0)
        owners = set()
        for assign in iter_assignments(optimal_codebook(4), 8):
            assert assign.owner is not None
            total += cell_mass(assign)
            owners.add(assign.owner)
        assert total == 1
        assert owners == {0, 1, 2, 3}

    def test_depth_zero_single_point(self):
        assigns = list(iter_assignments(book_of(("1/2", "1/2")), 0))
        assert len(assigns) == 1
        assert assigns[0].owner == 0
        assert assigns[0][:3] == cell_at("", "")

    def test_contested_cells_reported_at_cutoff(self):
        owners = [a.owner for a in iter_assignments(DIAGONAL_PAIR, 3)]
        assert None in owners

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            list(iter_assignments(HORIZONTAL_PAIR, -1))


class TestLloydStep:
    def test_pair_is_fixed_at_depth_one(self):
        assert lloyd_step(HORIZONTAL_PAIR, 1) == HORIZONTAL_PAIR

    def test_quadruple_is_fixed(self):
        a4 = optimal_codebook(4)
        assert lloyd_step(a4, 8) == a4

    def test_perturbed_quadruple_recovers_in_one_step(self):
        a4 = optimal_codebook(4)
        nudged = Codebook.of(
            Point(p.x + Fraction(1, 150), p.y - Fraction(1, 200)) for p in a4
        )
        assert lloyd_step(nudged, 8) == a4

    def test_collinear_stack_is_a_fixed_point_but_not_optimal(self):
        stack = book_of(("1/2", "1/18"), ("1/2", "5/18"),
                        ("1/2", "13/18"), ("1/2", "17/18"))
        assert lloyd_step(stack, 8) == stack
        iv = exact_distortion(stack)
        assert iv.exact and iv.lower == Fraction(41, 324)
        assert iv.lower > quantization_error(4)

    def test_unresolved_step_raises_with_cells(self):
        # The step stops at the first contested leaf of the walk.
        with pytest.raises(ResolutionError) as info:
            lloyd_step(DIAGONAL_PAIR, 6)
        first = next(a for a in iter_assignments(DIAGONAL_PAIR, 6) if a.owner is None)
        assert info.value.cell == first
        assert first.depth == 6

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
            lloyd_step(HORIZONTAL_PAIR, -1)

    def test_dead_center_point_raises_empty_region(self):
        mid = book_of(("1/6", "1/2"), ("1/2", "1/2"), ("5/6", "1/2"))
        with pytest.raises(EmptyRegionError) as info:
            lloyd_step(mid, 10)
        assert info.value.indices == (1,)


class TestLloyd:
    def test_fixed_point_detected_immediately(self):
        res = lloyd(optimal_codebook(5, 0), 8)
        assert res.converged
        assert res.codebook == optimal_codebook(5, 0)
        assert res.interval.exact and res.interval.lower == Fraction(2, 81)

    def test_quadrant_seed_flows_to_grid(self):
        seed = book_of(("1/10", "2/11"), ("1/9", "7/8"),
                       ("8/9", "1/7"), ("9/10", "8/9"))
        res = lloyd(seed, 16)
        assert res.converged
        assert res.codebook == optimal_codebook(4)
        assert res.interval.lower == Fraction(1, 36)
        assert res.iterations >= 1

    def test_errors_propagate(self):
        with pytest.raises(ResolutionError):
            lloyd(DIAGONAL_PAIR, 6)


class TestRng:
    def test_recurrence_matches_documented_constants(self):
        r = Lcg64(1)
        state = 1
        for _ in range(5):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            assert r.next_fraction() == Fraction(state, 2**64)

    def test_same_seed_same_stream(self):
        a, b = Lcg64(99), Lcg64(99)
        assert [a.next_fraction() for _ in range(8)] == [
            b.next_fraction() for _ in range(8)
        ]

    def test_values_live_in_unit_interval(self):
        r = Lcg64(12345)
        for _ in range(100):
            v = r.next_fraction()
            assert 0 <= v < 1


class TestMultistart:
    def test_deterministic(self):
        a = multistart_search(2, 8, 1, 14)
        b = multistart_search(2, 8, 1, 14)
        assert [(r.status, r.codebook, r.interval) for r in a.runs] == [
            (r.status, r.codebook, r.interval) for r in b.runs
        ]

    def test_single_point_always_converges(self):
        res = multistart_search(1, 3, 7, 6)
        best = res.best
        assert best is not None
        assert best.interval.exact and best.interval.lower == Fraction(1, 4)
        assert best.codebook == optimal_codebook(1)

    def test_pair_search_finds_the_optimum(self):
        # With this stream the first converging seed lands on a coordinate
        # split; its certified value is the exact closed form.
        res = multistart_search(2, 20, 1, 20)
        best = res.best
        assert best is not None
        assert best.status is RunStatus.CONVERGED
        assert best.interval.exact
        assert best.interval.lower == quantization_error(2)

    def test_pair_search_tally(self):
        # One lloyd call per run: the statuses are deterministic counters.
        tally = multistart_search(2, 20, 1, 20).tally()
        assert tally == {
            RunStatus.CONVERGED: 3,
            RunStatus.MAX_ITERS: 0,
            RunStatus.RESOLUTION_FAILURE: 17,
            RunStatus.EMPTY_REGION: 0,
            RunStatus.DEGENERATE: 0,
        }

    def test_failed_runs_are_counted_not_raised(self):
        res = multistart_search(4, 10, 1, 12)
        tally = res.tally()
        assert sum(tally.values()) == 10
        assert tally[RunStatus.RESOLUTION_FAILURE] > 0

    @pytest.mark.parametrize("args,message", [
        ((0, 3, 1, 6), "multistart_search requires n >= 1, got 0"),
        ((2, 0, 1, 6), "multistart_search requires seeds >= 1, got 0"),
        ((2, 3, 1, -1), "depth must be >= 0, got -1"),
    ], ids=["n", "seeds", "depth"])
    def test_rejects_bad_parameters(self, args, message):
        with pytest.raises(ValueError) as info:
            multistart_search(*args)
        assert str(info.value) == message

    def test_degenerate_means_a_repeated_start_point(self, monkeypatch):
        monkeypatch.setattr(Lcg64, "next_fraction", lambda self: HALF)
        tally = multistart_search(2, 3, 1, 6).tally()
        assert tally[RunStatus.DEGENERATE] == 3

    def test_statuses_are_stable_strings(self):
        assert {s.value for s in RunStatus} == {
            "converged", "max-iters", "resolution-failure",
            "empty-region", "degenerate",
        }


class TestLargeN:
    # About 6 s on a 2-vCPU Intel Xeon VM (Python 3.11); the budget leaves
    # room for a loaded machine.
    BUDGET_S = 60

    def test_spread_variants_certify_exactly(self):
        start = time.monotonic()
        for n in (4095, 4096, 4097, 8192, 16383):
            target = quantization_error(n)
            for index in spread_indices(count_variants(n), 2):
                iv = exact_distortion(optimal_codebook(n, index))
                assert iv.exact and iv.lower == target, (n, index)
        book = optimal_codebook(4096)
        assert lloyd_step(book, 12) == book
        assert time.monotonic() - start < self.BUDGET_S


# ------------------------------------------------------------------
# Reference walker: the engine as it was before cells became lattice
# squares.  Cells are (sigma, tau, x0, x1, y0, y1) rectangles in plain
# Fractions, a codeword is dropped when a rival is weakly closer at all
# four corners, and the two traversals are the same loops.

def ref_root():
    return ("", "", Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def ref_children(rect):
    sigma, tau, x0, x1, y0, y1 = rect
    r = (x1 - x0) / 3
    xs = (("1", x0, x0 + r), ("2", x1 - r, x1))
    ys = (("1", y0, y0 + r), ("2", y1 - r, y1))
    return [(sigma + a, tau + b, ax0, ax1, by0, by1)
            for a, ax0, ax1 in xs for b, by0, by1 in ys]


def ref_position(rect):
    return cell_at(rect[0], rect[1])


def ref_mass(rect):
    return Fraction(1, 4 ** len(rect[0]))


def ref_survivors(points, active, rect):
    _, _, x0, x1, y0, y1 = rect
    corners = ((x0, y0), (x0, y1), (x1, y0), (x1, y1))
    table = {i: [(points[i].x - cx) ** 2 + (points[i].y - cy) ** 2 for cx, cy in corners]
             for i in active}
    return tuple(
        i for i in active
        if not any(j != i and all(a <= b for a, b in zip(table[j], table[i])) for j in active)
    )


def ref_integral(rect, p):
    _, _, x0, x1, y0, y1 = rect
    mass = ref_mass(rect)
    second = mass * 2 * (x1 - x0) ** 2 / 8
    return second + mass * dist2(Point((x0 + x1) / 2, (y0 + y1) / 2), p)


def ref_bracket(points, active, rect):
    _, _, x0, x1, y0, y1 = rect

    def rect_dist2(p):
        dx = max(x0 - p.x, 0, p.x - x1)
        dy = max(y0 - p.y, 0, p.y - y1)
        return dx * dx + dy * dy

    lower = ref_mass(rect) * min(rect_dist2(points[i]) for i in active)
    upper = min(ref_integral(rect, points[i]) for i in active)
    return lower, upper


def ref_exact_distortion(codebook, tolerance, max_depth):
    points = codebook.points
    resolved = stuck_lo = stuck_up = pending_lo = pending_up = Fraction(0)
    stuck_cells = 0
    heap = []
    tick = itertools.count()

    def consider(rect, active):
        nonlocal resolved, stuck_lo, stuck_up, stuck_cells, pending_lo, pending_up
        surv = ref_survivors(points, active, rect)
        if len(surv) == 1:
            resolved += ref_integral(rect, points[surv[0]])
            return
        lo, up = ref_bracket(points, surv, rect)
        if len(rect[0]) >= max_depth:
            stuck_cells += 1
            stuck_lo += lo
            stuck_up += up
        else:
            pending_lo += lo
            pending_up += up
            heapq.heappush(heap, (lo - up, next(tick), rect, surv, lo, up))

    consider(ref_root(), tuple(range(len(points))))
    while heap and (pending_up - pending_lo) + (stuck_up - stuck_lo) > tolerance:
        _, _, rect, surv, lo, up = heapq.heappop(heap)
        pending_lo -= lo
        pending_up -= up
        for child in ref_children(rect):
            consider(child, surv)
    lower = resolved + pending_lo + stuck_lo
    upper = resolved + pending_up + stuck_up
    return lower, upper, not heap and stuck_cells == 0


def ref_assignments(codebook, depth):
    points = codebook.points
    stack = [(ref_root(), tuple(range(len(points))))]
    while stack:
        rect, active = stack.pop()
        surv = ref_survivors(points, active, rect)
        if len(surv) == 1:
            yield rect, surv[0]
        elif len(rect[0]) >= depth:
            yield rect, None
        else:
            for child in reversed(ref_children(rect)):
                stack.append((child, surv))


def ref_lloyd_step(codebook, depth):
    k = len(codebook)
    mass = [Fraction(0)] * k
    mx = [Fraction(0)] * k
    my = [Fraction(0)] * k
    for rect, owner in ref_assignments(codebook, depth):
        if owner is None:
            raise ResolutionError(CellAssignment(*ref_position(rect), None))
        _, _, x0, x1, y0, y1 = rect
        m = ref_mass(rect)
        mass[owner] += m
        mx[owner] += m * (x0 + x1) / 2
        my[owner] += m * (y0 + y1) / 2
    empty = [i for i in range(k) if mass[i] == 0]
    if empty:
        raise EmptyRegionError(empty)
    return Codebook.of(Point(mx[i] / mass[i], my[i] / mass[i]) for i in range(k))


def random_books(count, seed=2024, sizes=(2, 9)):
    """Codebooks of sizes[0] up to sizes[1] - 1 codewords on a 2^-20 grid;
    their bisectors cross the dust."""
    rng = random.Random(seed)
    books = []
    while len(books) < count:
        n = rng.randrange(*sizes)
        points = {Point(Fraction(rng.getrandbits(20), 1 << 20),
                        Fraction(rng.getrandbits(20), 1 << 20)) for _ in range(n)}
        if len(points) == n:
            books.append(Codebook.of(points))
    return books


# (codebook, tolerance, max_depth, partition depth) per corpus family.
CORPUS = {
    "optimal": [
        (optimal_codebook(n, i), Fraction(1, 10**12), 40, 12)
        for n in range(2, 65) for i in spread_indices(count_variants(n), 2)
    ],
    "random": [(book, Fraction(1, 10**9), 40, 6) for book in random_books(30)],
    # Large active sets: in some cells of each of these codebooks the
    # filter against the nearest codeword keeps strictly more survivors
    # than the all-pairs test of the reference walker.
    "wide": [(book, Fraction(1, 10**9), 40, 6)
             for book in random_books(8, seed=2025, sizes=(16, 33))],
    "diagonal": [(DIAGONAL_PAIR, Fraction(1, 10**30), depth, depth) for depth in (6, 9, 12)],
}


def step_outcome(step, book, depth):
    try:
        return step(book, depth)
    except (ResolutionError, EmptyRegionError) as err:
        return type(err).__name__, str(err)


class TestAgainstReferenceWalker:
    @pytest.mark.parametrize("family", sorted(CORPUS))
    def test_intervals_match(self, family):
        for book, tol, max_depth, _ in CORPUS[family]:
            iv = exact_distortion(book, tol, max_depth)
            assert (iv.lower, iv.upper, iv.exact) == ref_exact_distortion(book, tol, max_depth)

    @pytest.mark.parametrize("family", ["diagonal", "random"])
    def test_intervals_match_at_the_stop_boundary(self, family):
        # A reference walk that stops on the tolerance 1e-9 with width w
        # stops at the same step at tolerance w: every earlier width was
        # above 1e-9.  At tolerance w the stop test's strict > is decided
        # by equality.
        tol = Fraction(1, 10**9)
        boundary = 0
        for book, _, max_depth, _ in CORPUS[family]:
            want = ref_exact_distortion(book, tol, max_depth)
            width = want[1] - want[0]
            if 0 < width <= tol:
                boundary += 1
                iv = exact_distortion(book, width, max_depth)
                assert (iv.lower, iv.upper, iv.exact) == want
        assert boundary > 0

    @pytest.mark.parametrize("family", sorted(CORPUS))
    def test_partitions_match(self, family):
        for book, _, _, depth in CORPUS[family]:
            want = [(*ref_position(r), owner) for r, owner in ref_assignments(book, depth)]
            assert list(iter_assignments(book, depth)) == want

    @pytest.mark.parametrize("family", [*sorted(CORPUS), "moving"])
    def test_lloyd_steps_match(self, family):
        # The optimal books are fixed points and the other CORPUS books
        # never resolve, so only the moving input checks a step that moves.
        # A ResolutionError's text names its cell, so the first contested
        # cell of each unresolved step is compared too.
        if family == "moving":
            nudged, paths = nudged_books(), lloyd_paths()
            assert (len(nudged), len(paths)) == (236, 6)
            entries = nudged + paths
        else:
            entries = CORPUS[family]
        for book, _, _, depth in entries:
            got = step_outcome(lloyd_step, book, depth)
            assert got == step_outcome(ref_lloyd_step, book, depth)
            if family == "optimal":
                assert got == book
            elif family == "moving":
                assert isinstance(got, Codebook) and got != book
            else:
                assert type(got) is tuple and got[0] == "ResolutionError"


def old_survivors(book, cell, active):
    """The filter kernel as it was before it took bare integers."""
    d, coords, norms = book.scale, book.coords, book.norms
    depth, x, y = cell
    s = 3**depth
    cx, cy, s2 = (2 * x + 1) * d, (2 * y + 1) * d, 2 * s
    z = best = None
    for i in active:
        a, b = coords[i]
        gap = (cx - s2 * a) ** 2 + (cy - s2 * b) ** 2
        if best is None or gap < best:
            z, best = i, gap
    xz, yz = coords[z]
    keep = []
    for i in active:
        xi, yi = coords[i]
        ux, uy = 2 * d * (xi - xz), 2 * d * (yi - yz)
        if i == z or x * ux + y * uy + max(ux, 0) + max(uy, 0) > s * (norms[i] - norms[z]):
            keep.append(i)
    return z, best, tuple(keep)


def old_lower_gap(book, cell, active):
    def outside(lo, hi, v):
        return lo - v if v < lo else v - hi if v > hi else 0

    d = book.scale
    depth, x, y = cell
    s2 = 2 * 3**depth
    x0, y0, side = 2 * x * d, 2 * y * d, 2 * d
    return min(
        outside(x0, x0 + side, s2 * a) ** 2 + outside(y0, y0 + side, s2 * b) ** 2
        for a, b in (book.coords[i] for i in active)
    )


# Random 2^-20 books of the dust benchmark's kind, walked deeper than the
# random family, where the lattice integers grow large.
DUST_BOOKS = [(book, None, None, 16) for book in random_books(6, seed=2026, sizes=(2, 5))]


@pytest.mark.parametrize("family", ["optimal", "random", "wide", "dust"])
def test_kernel_matches_its_former_form(family):
    """split and lower_gap against the cell-taking kernel they replace, on
    every cell of the depth-first walk to each entry's partition depth, and
    children against split on each child of every cell it expands."""
    cells, entries = 0, DUST_BOOKS if family == "dust" else CORPUS[family]
    for book, _, _, depth in entries:
        lattice = _LatticeBook(book)
        stack = [(ROOT, tuple(range(len(book))))]
        while stack:
            cell, active = stack.pop()
            want = old_survivors(lattice, cell, active)
            assert lattice.split(*cell, active) == want
            one = want[:1]  # a single active codeword
            assert lattice.split(*cell, one) == old_survivors(lattice, cell, one)
            surv = want[2]
            assert lattice.lower_gap(*cell, surv) == old_lower_gap(lattice, cell, surv)
            cells += 1
            if len(surv) > 1 and cell[0] < depth:
                kids = _LatticeBook(book).children(*cell, surv)
                assert kids == tuple(lattice.split(*child, surv) for child in children(cell))
                stack.extend((child, surv) for child in children(cell))
    assert cells > 10 * len(entries)


def test_the_lattice_cache_cannot_change_a_result():
    """exact_distortion, lloyd_step and iter_assignments of each CORPUS
    book give the values they give on a fresh cache: in either order,
    after a shallow walk that left the tree half expanded, with another
    book walked in between, and for an equal but distinct Codebook."""
    def questions(book, tol, max_depth, depth):
        return {
            "exact": lambda: exact_distortion(book, tol, max_depth),
            "step": lambda: step_outcome(lloyd_step, book, depth),
            "assignments": lambda: list(iter_assignments(book, depth)),
        }

    entries = [entry for family in sorted(CORPUS) for entry in CORPUS[family]]
    for k, (book, tol, max_depth, depth) in enumerate(entries):
        ask = questions(book, tol, max_depth, depth)
        want = {}
        for name, call in ask.items():
            _lattice.cache_clear()
            want[name] = call()
        for order in (list(ask), list(ask)[::-1]):
            for shallow in (False, True):
                _lattice.cache_clear()
                if shallow:
                    exact_distortion(book, tol, 2)
                assert {name: ask[name]() for name in order} == want
        other, got = questions(*entries[k - 1]), {}
        for name, call in ask.items():
            got[name] = call()
            other[name]()
        assert got == want
        twin = Codebook(book.den, tuple(list(book.pairs)))
        assert twin == book and twin is not book
        exact_distortion(book, tol, 2)
        assert {name: call() for name, call in questions(twin, tol, max_depth, depth).items()} == want


def lloyd_paths(starts=40, depth=12):
    """Every codebook on the Lloyd paths from multistart's first random
    starts for n = 2..5 whose step resolves and moves it."""
    rng, books = Lcg64(1), []
    for n in (2, 3, 4, 5):
        for _ in range(starts):
            book = Codebook.of(Point(rng.next_fraction(), rng.next_fraction()) for _ in range(n))
            for _ in range(_MAX_ITERS):  # lloyd's cap: a step that never settles fails, not hangs
                nxt = step_outcome(lloyd_step, book, depth)
                if not isinstance(nxt, Codebook) or nxt == book:
                    break
                books.append(book)
                book = nxt
    return [(book, None, None, depth) for book in books]


def nudged_books(depth=12):
    """optimal_codebook(n) for n = 2..16 with one codeword moved by 1/100
    along x or along y, wherever the step from it resolves and moves it."""
    nudges = ((Fraction(1, 100), 0), (0, Fraction(1, 100)))
    books = []
    for n in range(2, 17):
        points = list(optimal_codebook(n).points)
        for i, (dx, dy) in itertools.product(range(n), nudges):
            book = Codebook.of([*points[:i], Point(points[i].x + dx, points[i].y + dy),
                                *points[i + 1:]])
            nxt = step_outcome(lloyd_step, book, depth)
            if isinstance(nxt, Codebook) and nxt != book:
                books.append((book, None, None, depth))
    return books


# The square's eight symmetries, each as a map of the point (x, y).
DIHEDRAL = [
    lambda x, y: (x, y), lambda x, y: (1 - x, y),
    lambda x, y: (x, 1 - y), lambda x, y: (1 - x, 1 - y),
    lambda x, y: (y, x), lambda x, y: (1 - y, x),
    lambda x, y: (y, 1 - x), lambda x, y: (1 - y, 1 - x),
]


def image(t, book):
    return Codebook.of(Point(*t(p.x, p.y)) for p in book)


def test_dihedral_images_give_identical_enclosures():
    """The measure is invariant under the square's eight symmetries."""
    tiny = Fraction(1, 10**30)
    contested = [book for book in random_books(12, seed=88)
                 if not exact_distortion(book, tiny, 6).exact]
    assert len(contested) >= 6
    for book in contested:
        images = {exact_distortion(image(t, book), tiny, 6) for t in DIHEDRAL}
        assert len(images) == 1


def test_lloyd_step_commutes_with_the_symmetries():
    """The measure and its cell tree are invariant under the square's
    symmetries, so a step from the image of a codebook is the image of the
    step, or both fail alike.  A ResolutionError names a cell, which the
    symmetry moves, so failures are compared by class."""
    def outcome(book, depth):
        got = step_outcome(lloyd_step, book, depth)
        return got if isinstance(got, Codebook) else got[0]

    moving = nudged_books() + lloyd_paths()
    kinds = []
    for book, _, _, depth in moving + CORPUS["random"]:
        want = outcome(book, depth)
        kinds.append(want != book if isinstance(want, Codebook) else want)
        for t in DIHEDRAL:
            got = outcome(image(t, book), depth)
            assert got == (image(t, want) if isinstance(want, Codebook) else want)
    assert kinds == [True] * len(moving) + ["ResolutionError"] * len(CORPUS["random"])
