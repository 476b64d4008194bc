"""Release gate: one test per acceptance criterion.

Each test prints a single "criterion N: PASS/FAIL (...)" line before its
assertions so the verdicts survive into the pytest report, including for
a failing criterion.  Run with -rA (the project default) to see the
lines for passing tests too.
"""

import itertools
import time
from fractions import Fraction

from cantorquant.engine import (
    RunStatus,
    exact_distortion,
    lloyd_step,
    multistart_search,
)
from cantorquant.measure import cell_moments, dist2, map_T, map_U, map_T_word
from cantorquant.optimal import (
    Codebook,
    Point,
    count_variants,
    optimal_codebook,
    quantization_error,
    spread_indices,
)
from cantorquant.words import F_map, NatWord, PairWord, components


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_small_errors_exact():
    expected = {
        1: Fraction(1, 4),
        2: Fraction(5, 36),
        3: Fraction(1, 12),
        4: Fraction(1, 36),
        5: Fraction(2, 81),
    }
    closed_ok = all(quantization_error(n) == v for n, v in expected.items())
    certified_ok = True
    for n, v in expected.items():
        iv = exact_distortion(optimal_codebook(n))
        certified_ok &= iv.exact and iv.lower == v
    ok = closed_ok and certified_ok
    verdict("1", ok, "n=1..5 closed form and certified distortion both exact")
    assert closed_ok
    assert certified_ok


def test_criterion_2_every_variant_attains_the_error():
    start = time.monotonic()
    books = 0
    bad = []
    for n in range(2, 65):
        target = quantization_error(n)
        total = count_variants(n)
        for index in spread_indices(total, 100):
            iv = exact_distortion(optimal_codebook(n, index))
            books += 1
            if not (iv.exact and iv.lower == target):
                bad.append((n, index))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 300
    verdict("2", ok, f"{books} codebooks over n=2..64 exact in {elapsed:.1f}s")
    assert bad == []
    assert elapsed < 300


def test_criterion_3_variant_counts():
    checks = [
        count_variants(5) == 8,
        count_variants(9) == 128,
        all(count_variants(4**ell) == 1 for ell in range(1, 5)),
        count_variants(3) == 4,
    ]
    ok = all(checks)
    verdict("3", ok, "counts 8, 128, 1 at powers of four, 4")
    assert all(checks)


def test_criterion_4_variants_are_lloyd_fixed_points():
    start = time.monotonic()
    books = 0
    moved = []
    for n in range(2, 33):
        total = count_variants(n)
        for index in spread_indices(total, 100):
            book = optimal_codebook(n, index)
            books += 1
            if lloyd_step(book, 12) != book:
                moved.append((n, index))
    elapsed = time.monotonic() - start
    ok = not moved
    verdict("4", ok, f"{books} codebooks over n=2..32 fixed at depth 12, {elapsed:.1f}s")
    assert moved == []


def test_criterion_5_word_translation_is_a_conjugacy():
    xs = (Fraction(0), Fraction(1, 2), Fraction(1))
    words = 0
    ok = True
    for length in range(1, 7):
        for symbols in itertools.product(range(1, 6), repeat=length):
            sigma = NatWord.of(*symbols)
            image = F_map(sigma)
            words += 1
            ok &= Fraction(1, 2 ** sum(sigma)) == Fraction(1, 2 ** len(image))
            left = map_T_word(sigma)
            right = map_U(image)
            ok &= all(left.apply(x) == right.apply(x) for x in xs)
            if not ok:
                break
    verdict("5", ok, f"{words} words, symbols <= 5, length <= 6, three probe points")
    assert ok


def _rect_moments(word: PairWord) -> tuple:
    """Mass, centroid and second moment of J_w, the cell (F(w_1), F(w_2))."""
    first, second = components(word)
    return cell_moments(F_map(first), F_map(second))


def _union_distortion(rects: list, center: Point) -> Fraction:
    return sum(second + mass * dist2(c, center) for mass, c, second in rects)


def _union_centroid(rects: list) -> Point:
    mass = sum(m for m, _, _ in rects)
    return Point(sum(m * c.x for m, c, _ in rects) / mass,
                 sum(m * c.y for m, c, _ in rects) / mass)


def _region_a_rectangles() -> list:
    # Fourteen families of basic rectangles; sixty-nine in all.
    families = [
        ("(1,1)(1,1)(1,1)(1,1)", 1, range(2, 5)),
        ("(1,1)(1,1)(1,1)", 1, range(2, 7)),
        ("(1,1)(1,1)(1,1)", 2, range(3, 6)),
        ("(1,1)(1,1)", 1, range(2, 9)),
        ("(1,1)(1,1)", 2, range(3, 7)),
        ("(1,1)(1,1)", 3, range(4, 5)),
        ("(1,1)", 1, range(2, 9)),
        ("(1,1)", 2, range(3, 8)),
        ("(1,1)", 3, range(4, 7)),
        ("", 1, range(2, 11)),
        ("", 2, range(3, 11)),
        ("", 3, range(4, 11)),
        ("", 4, range(5, 10)),
        ("", 5, range(6, 8)),
    ]
    rects = []
    for prefix, i, js in families:
        base = PairWord.parse(prefix)
        for j in js:
            rects.append(_rect_moments(base.append(i, j)))
    return rects


def _half_support_centroid(limit: int, max_symbol: int, levels: int) -> Point:
    """Centroid of the part of the support above the main diagonal.

    The half splits by its maximal diagonal prefix (k1,k1)...(km,km);
    each prefix maps the base union of blocks (i,j) with j > i by a
    similarity with equal axis scale and shift, so prefixes of one
    length aggregate into three scalars: total weight, weight*scale,
    weight*shift.  Truncation tails: base blocks with i+j > limit carry
    mass under 2**(3-limit); prefix symbols above max_symbol weigh under
    4**(1-max_symbol) per level; levels beyond the cap scale the rest by
    under 3**(-levels).  At (64, 32, 40) all three sit below 1e-17.
    """
    half = Fraction(1, 2)
    base_mass = Fraction(0)
    base_x = Fraction(0)
    base_y = Fraction(0)
    for i in range(1, limit):
        for j in range(i + 1, limit - i + 1):
            w = Fraction(1, 2 ** (i + j))
            base_mass += w
            base_x += w * map_T(i).apply(half)
            base_y += w * map_T(j).apply(half)
    ks = range(1, max_symbol + 1)
    u = sum(Fraction(1, 4**k) for k in ks)
    v = sum(Fraction(1, 12**k) for k in ks)
    w_shift = sum(Fraction(1, 4**k) * map_T(k).apply(Fraction(0)) for k in ks)
    weight, scale, shift = Fraction(1), Fraction(1), Fraction(0)
    sum_w, sum_s, sum_t = weight, scale, shift
    for _ in range(levels):
        weight, scale, shift = u * weight, v * scale, v * shift + w_shift * weight
        sum_w += weight
        sum_s += scale
        sum_t += shift
    mass = sum_w * base_mass
    return Point(
        (sum_s * base_x + sum_t * base_mass) / mass,
        (sum_s * base_y + sum_t * base_mass) / mass,
    )


def _corner_strip_rectangles(limit: int, max_symbol: int) -> list:
    """The upper-left corner region used by the three-means lower bound.

    The union of the blocks (1,j) for j >= 2, the strictly-above-diagonal
    children of the corner block (1,1), and the same children inside each
    diagonal grandchild (1,1)(k,k).  Truncation at i+j <= limit and
    k <= max_symbol omits mass under 2**(2-limit) + 4**(-max_symbol),
    below 1e-17 at (64, 32).
    """
    rects = []
    for j in range(2, limit):
        rects.append(_rect_moments(PairWord.of((1, j))))
    for i in range(1, limit):
        for j in range(i + 1, limit - i + 1):
            rects.append(_rect_moments(PairWord.of((1, 1), (i, j))))
    for k in range(1, max_symbol + 1):
        for i in range(1, limit):
            for j in range(i + 1, limit - i + 1):
                rects.append(_rect_moments(PairWord.of((1, 1), (k, k), (i, j))))
    return rects


def _dihedral_images(book: Codebook):
    one = Fraction(1)
    pts = [(p.x, p.y) for p in book]
    transforms = [
        lambda x, y: (x, y),
        lambda x, y: (one - x, y),
        lambda x, y: (x, one - y),
        lambda x, y: (one - x, one - y),
        lambda x, y: (y, x),
        lambda x, y: (one - y, x),
        lambda x, y: (y, one - x),
        lambda x, y: (one - y, one - x),
    ]
    for t in transforms:
        yield Codebook.of(Point(*t(x, y)) for x, y in pts)


def test_criterion_6_lower_bound_constants():
    tol12 = Fraction(1, 10**12)

    rects = _region_a_rectangles()
    doubled = 2 * _union_distortion(rects, Point(Fraction(3, 10), Fraction(7, 10)))
    region_ok = (
        len(rects) == 69
        and abs(doubled - Fraction(13899, 100000)) < Fraction(1, 10**5)
    )

    three = Codebook.of([
        Point(Fraction(1, 6), Fraction(1, 6)),
        Point(Fraction(5, 6), Fraction(1, 6)),
        Point(Fraction(1, 2), Fraction(5, 6)),
    ])
    three_ok = True
    for image in _dihedral_images(three):
        iv = exact_distortion(image)
        three_ok &= iv.exact and iv.lower == Fraction(1, 12)

    half = _half_support_centroid(64, 32, 40)
    half_ok = (
        abs(half.x - Fraction(3, 10)) < tol12
        and abs(half.y - Fraction(7, 10)) < tol12
    )

    corner = _union_centroid(_corner_strip_rectangles(64, 32))
    corner_ok = (
        abs(corner.x - Fraction(1385, 9438)) < tol12
        and abs(corner.y - Fraction(6173, 9438)) < tol12
    )

    ok = region_ok and three_ok and half_ok and corner_ok
    verdict(
        "6", ok,
        f"region value {float(doubled):.7f}, three-means 1/12 with images, "
        f"half centroid and corner centroid within 1e-12",
    )
    assert region_ok
    assert three_ok
    assert half_ok
    assert corner_ok


def test_criterion_7_scaling_and_monotonicity():
    scaling_ok = all(
        quantization_error(4 * n) == quantization_error(n) / 9
        for n in range(1, 65)
    )
    decreasing_ok = all(
        quantization_error(n) > quantization_error(n + 1)
        for n in range(1, 256)
    )
    ok = scaling_ok and decreasing_ok
    verdict("7", ok, "V(4n) = V(n)/9 for n <= 64, strictly decreasing to 256")
    assert scaling_ok
    assert decreasing_ok


def test_criterion_8_multistart_never_beats_and_usually_lands():
    """Multistart evidence at 200 seeds per n.

    Soundness (no certified upper bound below the closed form) holds in
    every run.  The second clause asks a majority of runs at n = 2 and
    n = 4 to converge onto an enumerated optimal codebook; random starts
    mostly abort instead, because a bisector of two random points tends
    to cross the support dust and then no product cell on it ever
    resolves at any depth.  The clause fails and the measured rates are
    printed; the failure is stable under the pinned seed stream.
    """
    start = time.monotonic()
    violations = []
    landed = {}
    finished = {}
    for n in (2, 3, 4, 5):
        target = quantization_error(n)
        variants = [optimal_codebook(n, i) for i in range(count_variants(n))]
        result = multistart_search(n, 200, 1, 20)
        hits = 0
        done = 0
        for run in result.runs:
            if run.interval is not None and run.interval.upper < target:
                violations.append((n, run.index))
            if run.status is RunStatus.CONVERGED:
                done += 1
                if run.codebook in variants:
                    hits += 1
        landed[n] = hits
        finished[n] = done
    elapsed = time.monotonic() - start
    sound = not violations
    majority = all(landed[n] >= 100 for n in (2, 4))
    ok = sound and majority and elapsed < 600
    verdict(
        "8", ok,
        f"soundness {'held' if sound else 'VIOLATED'} in 800 runs; "
        f"landed on an optimal codebook: "
        + ", ".join(f"n={n}: {landed[n]}/200" for n in (2, 3, 4, 5))
        + f" (converged: "
        + ", ".join(f"{finished[n]}" for n in (2, 3, 4, 5))
        + f"); threshold 100/200 at n=2 and n=4; {elapsed:.1f}s",
    )
    assert sound
    assert elapsed < 600
    assert majority


def test_criterion_9_diagonal_pair_certificates():
    diagonal = Codebook.of([
        Point(Fraction(3, 10), Fraction(7, 10)),
        Point(Fraction(7, 10), Fraction(3, 10)),
    ])
    tiny = Fraction(1, 10**30)
    intervals = [exact_distortion(diagonal, tiny, depth) for depth in (6, 9, 12)]
    nested = all(
        a.lower <= b.lower and b.upper <= a.upper
        for a, b in zip(intervals, intervals[1:])
    )
    strict = intervals[-1].lower > Fraction(5, 36)
    ok = nested and strict
    verdict(
        "9", ok,
        f"depths 6/9/12 nest, depth-12 lower bound "
        f"{float(intervals[-1].lower):.6f} > 5/36",
    )
    assert nested
    assert strict
