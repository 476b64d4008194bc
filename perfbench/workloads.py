"""The benchmark's workloads: seeded inputs, one op each, and its check.

Each workload is a closed loop: one caller issues the next op when the
previous one returns.  An op calls public functions of the ``engine``,
``optimal``, ``plot`` and ``cli`` layers, one span around each call;
``moments``, ``measure`` and ``words`` run inside those spans.  The
check that follows an op compares its outputs with closed forms and
invariants and is the benchmark's own cost.

Input streams are endless and depend only on the ``random.Random``
they are given.  Each stream is stratified by cost, so that every
prefix of a run holds nearly the same mix of small and large inputs
and throughput does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

from cantorquant import (
    Codebook,
    Point,
    codebook_for,
    count_variants,
    exact_distortion,
    iter_assignments,
    lloyd_step,
    optimal_codebook,
    quantization_error,
    render_svg,
    spread_indices,
    variant_by_index,
    variant_index,
)
from cantorquant import cli

FIXED_POINT_DEPTH = 12
DUST_TOLERANCE = Fraction(1, 10**9)
DUST_BITS = 20  # codeword coordinates are uniform multiples of 2^-20
RENDER_DEPTH = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[random.Random], Iterator[tuple]]
    op: Callable[[Any, tuple], Any]  # (tracer, input) -> output
    check: Callable[[tuple, Any], bool]
    count: Callable[[Counter, tuple, Any], None]  # traced run only, outside spans
    warm: tuple[tuple, ...]  # tiny inputs whose first call is part of set-up
    traced_ops_per_s: float  # sizes the traced run's fixed op list


def _cycles(rng: random.Random, classes) -> Iterator:
    """Every class once per cycle, each cycle in a fresh seeded order."""
    while True:
        yield from rng.sample(classes, len(classes))


# ------------------------------------------------------------ certify

def _certify_inputs(rng: random.Random) -> Iterator[tuple]:
    # Each group of 9 ops takes one n from each band of 7 consecutive n.
    counts = {n: count_variants(n) for n in range(2, 65)}
    bands = [_cycles(rng, range(lo, lo + 7)) for lo in range(2, 65, 7)]
    while True:
        group = [next(band) for band in bands]
        rng.shuffle(group)
        for n in group:
            yield (n, rng.randrange(counts[n]))


def _certify_op(tracer, inp):
    n, index = inp
    with tracer.span("optimal.unrank"):
        spec = variant_by_index(n, index)
    with tracer.span("optimal.assemble"):
        book = codebook_for(spec)
    with tracer.span("engine.certify"):
        interval = exact_distortion(book)
    with tracer.span("engine.fixedpoint"):
        fixed = lloyd_step(book, FIXED_POINT_DEPTH) == book
    return book, interval, fixed


def _certify_check(inp, out) -> bool:
    n, _ = inp
    book, interval, fixed = out
    return len(book) == n and interval.exact and interval.lower == quantization_error(n) and fixed


def _certify_count(counts: Counter, inp, out) -> None:
    book = out[0]
    counts["engine.partition_cells"] += sum(
        1 for cell in iter_assignments(book, FIXED_POINT_DEPTH) if cell.owner is not None
    )


# ------------------------------------------------------------ dust

def _random_book(rng: random.Random, n: int) -> Codebook:
    scale = 1 << DUST_BITS
    while True:
        points = [
            Point(Fraction(rng.getrandbits(DUST_BITS), scale), Fraction(rng.getrandbits(DUST_BITS), scale))
            for _ in range(n)
        ]
        try:
            return Codebook.of(points)
        except ValueError:  # a repeated codeword; draw again
            continue


def _dust_inputs(rng: random.Random) -> Iterator[tuple]:
    for n in _cycles(rng, range(2, 9)):
        yield (n, _random_book(rng, n))


def _dust_op(tracer, inp):
    _, book = inp
    with tracer.span("engine.enclose"):
        return exact_distortion(book, DUST_TOLERANCE)


def _dust_check(inp, interval) -> bool:
    n, _ = inp
    return interval.width <= DUST_TOLERANCE and interval.upper >= quantization_error(n)


def _dust_count(counts: Counter, inp, interval) -> None:
    counts["engine.enclose.exact"] += interval.exact


# ------------------------------------------------------------ build

def _build_inputs(rng: random.Random) -> Iterator[tuple]:
    # A round holds, for each grid level ell = 3..5, a variant round trip
    # and two renders at n in [4^ell, 4^(ell+1)), and a CLI enumeration at
    # a small n around 4^(ell-2).  Cost grows with n, so each slot steps
    # through cost classes (quarters of its n range, or the three CLI
    # sizes) in seeded cycles.  The second render keeps the round's median
    # op inside the cluster of renders instead of in the gap between cheap
    # and costly ops, where it would jump from seed to seed.
    slots = []
    for ell in (3, 4, 5):
        lo, quarter = 4**ell, 3 * 4**ell // 4
        quarters = [range(lo + k * quarter, lo + (k + 1) * quarter) for k in range(4)]
        small = 4 ** (ell - 2)
        slots += [
            ("variant", _cycles(rng, quarters)),
            ("render", _cycles(rng, quarters)),
            ("render", _cycles(rng, quarters)),
            ("cli", _cycles(rng, (small - 1, small, small + 1))),
        ]
    while True:
        ops = []
        for kind, classes in slots:
            cls = next(classes)
            if kind == "variant":
                n = rng.choice(cls)
                ops.append((kind, n, rng.randrange(count_variants(n))))
            elif kind == "render":
                ops.append((kind, rng.choice(cls), RENDER_DEPTH))
            else:
                ops.append((kind, cls))
        rng.shuffle(ops)
        yield from ops


def _build_op(tracer, inp):
    kind, n = inp[0], inp[1]
    if kind == "variant":
        with tracer.span("optimal.unrank"):
            spec = variant_by_index(n, inp[2])
        with tracer.span("optimal.assemble"):
            book = codebook_for(spec)
        with tracer.span("optimal.rank"):
            index = variant_index(spec)
        return book, index
    if kind == "render":
        with tracer.span("plot.render"):
            return render_svg(n, inp[2])
    out = io.StringIO()
    with tracer.span("cli.optimal"):
        with contextlib.redirect_stdout(out):
            code = cli.main(["optimal", str(n), "--all"])
    return code, out.getvalue()


def _build_check(inp, out) -> bool:
    kind, n = inp[0], inp[1]
    if kind == "variant":
        book, index = out
        return len(book) == n and index == inp[2]
    if kind == "render":
        return out.count("<rect ") == 4 ** inp[2] and out.count("<circle ") == n
    code, text = out
    if code != 0:
        return False
    obj = json.loads(text)
    total = count_variants(n)
    books = obj["codebooks"]
    if obj["n"] != n or obj["count"] != total or len(books) != total:
        return False
    # First, middle and last variant against the library's own codebooks.
    return all(
        books[i]["variant"] == i and books[i]["points"] == [p.to_json() for p in optimal_codebook(n, i)]
        for i in spread_indices(total, 3)
    )


def _build_count(counts: Counter, inp, out) -> None:
    if inp[0] == "render":
        counts["plot.render.bytes"] += len(out.encode())
    elif inp[0] == "cli":
        counts["cli.optimal.bytes"] += len(out[1].encode())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify",
            why="the paper's claim: a seeded optimal variant for n=2..64 is certified exact at V_n and is a Lloyd fixed point",
            inputs=_certify_inputs,
            op=_certify_op,
            check=_certify_check,
            count=_certify_count,
            warm=((2, 0),),
            traced_ops_per_s=5.5,
        ),
        Workload(
            name="dust",
            why="distortion of a random codebook whose bisectors cross the support: contested cells bracketed to width 1e-9",
            inputs=_dust_inputs,
            op=_dust_op,
            check=_dust_check,
            count=_dust_count,
            warm=((2, Codebook.of([Point(Fraction(1, 4), Fraction(1, 2)), Point(Fraction(3, 4), Fraction(1, 2))])),),
            traced_ops_per_s=4.5,
        ),
        Workload(
            name="build",
            why="variant round trips, SVG renders and CLI enumerations at ell=3..5: the engine bypass, all optimal, plot and cli",
            inputs=_build_inputs,
            op=_build_op,
            check=_build_check,
            count=_build_count,
            warm=(("variant", 2, 0), ("render", 2, 1), ("cli", 2)),
            traced_ops_per_s=2.0,
        ),
    )
}
