"""Command-line front end.

Subcommands: optimal, error, distortion, verify, count, plot.  All
numeric output is exact rational text; decimal renderings are a
convenience, carry ten significant digits, and are marked as approx.
Every command is deterministic given its flags.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 verification failure, 3 I/O or input-file error or a result too long
to print.  A command that fails prints one line to stderr: it raises
``_Failure``, and ``main`` prints it and returns its code.  ``verify``
instead ends its stdout with a FAIL line naming every reason: a checked
variant that is not a fixed point, multistart beating the closed form,
or no multistart run finished, since it then has no evidence.  Codebook
files are read as UTF-8, as JSON is.  A variant count whose lower bound
is already too long to print is refused before it is computed, as is a
``plot`` deeper than PLOT_DEPTH_LIMIT.  A closed stdout gives exit 3.

This module owns every text format the program reads: rational text
(parse_rational, with the interpreter's digit limit), the codebook file
(read_codebook, beside the writers) and the interval JSON.  The package
does not import it; it is loaded by name, as ``cantorquant.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .engine import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOLERANCE,
    ResolutionError,
    RunStatus,
    exact_distortion,
    lloyd_step,
    multistart_search,
)
from .optimal import (
    Codebook,
    Point,
    _count_bits,
    count_variants,
    format_rational,
    optimal_codebook,
    quantization_error,
    spread_indices,
)
from .plot import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

ENUM_ALL_LIMIT = 100_000
VERIFY_VARIANTS = 100
PLOT_DEPTH_LIMIT = 10


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Failure(Exception):
    """_Failure(code, message): main prints the message as one stderr
    line and returns the exit code."""


def approx_str(value: Fraction) -> str:
    """Decimal rendering with ten significant digits."""
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 25
        d = Decimal(value.numerator) / Decimal(value.denominator)
        q = d.quantize(Decimal(1).scaleb(d.adjusted() - 9))
    return str(q)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


_EXPONENT = re.compile(r"e([-+]?[\d_]+)", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer string, or a plain decimal like "0.31".

    Raises TypeError for anything but a string and ValueError for
    malformed text, a zero denominator included, or for more digits or a
    larger exponent than ``sys.get_int_max_str_digits()`` allows.
    """
    if not isinstance(text, str):
        raise TypeError(f"a rational must be given as text, got {text!r}")
    # Python before 3.10.7 has no such limit; its later default stands in.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if limit:
        if sum(c.isdigit() for c in text) > limit:
            raise ValueError(f"a rational may have at most {limit} digits")
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1].replace("_", ""))) > limit:
            raise ValueError(f"a decimal exponent may be at most {limit} in magnitude")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_tolerance(text: str) -> Fraction:
    try:
        tol = parse_rational(text)
    except ValueError as err:
        raise _Failure(EXIT_USAGE, str(err))
    if tol <= 0:
        raise _Failure(EXIT_USAGE, f"tolerance must be positive, got {text}")
    return tol


def _emit(text: str, path: str | None) -> int:
    if path is None:
        out = getattr(sys.stdout, "buffer", None)
        if out is None:
            sys.stdout.write(text)
        else:
            # Unbuffered, out is a raw file whose write may take only a part.
            sys.stdout.flush()
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[out.write(data):]
        return EXIT_OK
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
    except OSError as err:
        raise _Failure(EXIT_IO, f"cannot write {path}: {err}")
    return EXIT_OK


def _text(value: int | Fraction, n: int, code: int, prefix: str) -> str:
    """n's variant count or error as exact text, or a failure when it has
    more digits than the interpreter prints (sys.get_int_max_str_digits())."""
    try:
        return format_rational(value)
    except ValueError:
        what = "a variant count" if isinstance(value, int) else "an error denominator"
        limit = sys.get_int_max_str_digits()
        raise _Failure(code, f"{prefix}n={n} has {what} of more than {limit} digits")


def _count_text(n: int, code: int, prefix: str) -> tuple[int, str]:
    """count_variants(n) and its text.  A count too long to print is refused
    before it is computed when its lower bound 2^B already is:
    B * log10(2) > B / 3.3220 >= limit (no limit before Python 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and _count_bits(n) * 1000 >= limit * 3322:
        raise _Failure(code, f"{prefix}n={n} has a variant count of more than {limit} digits")
    total = count_variants(n)
    return total, _text(total, n, code, prefix)


def _json_object(fields: list[tuple[str, str]], pad: str, end: str = "") -> str:
    """A JSON object laid out as json.dumps(..., indent=2) lays it out
    when nested at indent pad, then end; keys are plain names, values JSON
    text.  One join, so a long value is not copied twice."""
    parts = []
    for key, value in fields:
        parts += (",\n" if parts else "{\n", f'{pad}  "{key}": ', value)
    parts.append(f"\n{pad}}}{end}")
    return "".join(parts)


def _json_list(items, pad: str) -> str:
    """A non-empty JSON list of JSON texts, each already indented by
    pad + "  ", laid out like _json_object."""
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _codebooks(n: int, indices: range, text):
    """(i, pairs, texts) per variant index i of n, as it is unranked: the
    numerator pairs of its codebook and text(coordinate) per numerator.
    Every variant of n has the same denominator, so text runs once per
    numerator, not once per point."""
    texts = {}
    for i in indices:
        book = optimal_codebook(n, i)
        for a in set().union(*book.pairs).difference(texts):
            texts[a] = text(Fraction(a, book.den))
        yield i, book.pairs, texts


def _json_points(pairs: list[tuple[int, int]], texts: dict, pad: str) -> str:
    """The points as a list of {"x": ..., "y": ...}, laid out like _json_object."""
    inner, key = pad + "  ", pad + "    "
    return _json_list(
        [f'{inner}{{\n{key}"x": {texts[a]},\n{key}"y": {texts[b]}\n{inner}}}' for a, b in pairs],
        pad,
    )


def read_codebook(obj) -> Codebook:
    """The codebook of a parsed JSON object in the form that ``optimal``
    writes; raises ValueError or TypeError."""
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise ValueError("a codebook must be an object with a list of points")
    points = []
    for entry in obj["points"]:
        if not isinstance(entry, dict) or "x" not in entry or "y" not in entry:
            raise ValueError(f"a point must be an object with x and y, got {entry!r}")
        points.append(Point(parse_rational(entry["x"]), parse_rational(entry["y"])))
    book = Codebook.of(points)
    declared = obj.get("n")
    if declared is not None and type(declared) is not int:
        raise TypeError(f"codebook field n must be an integer, got {declared!r}")
    if declared is not None and declared != len(book):
        raise ValueError(f"codebook declares n={declared} but has {len(book)} points")
    return book


def cmd_optimal(args: argparse.Namespace) -> int:
    n = args.n
    error = quantization_error(n)
    if args.all:
        total, shown = _count_text(n, EXIT_USAGE, "refusing to enumerate the variants: ")
        if total > ENUM_ALL_LIMIT:
            raise _Failure(EXIT_USAGE, f"refusing to enumerate {shown} variants for n={n}; "
                           f"use --variant with an index below {shown}")
        indices = range(total)
    else:
        total = count_variants(n)
        index = args.variant if args.variant is not None else 0
        if not 0 <= index < total:
            shown = _text(total, n, EXIT_USAGE,
                          f"variant {index} out of range: indices start at 0, and ")
            raise _Failure(EXIT_USAGE, f"variant {index} out of range: n={n} has {shown} "
                           f"variant{'s' if total != 1 else ''} (0..{total - 1})")
        indices = range(index, index + 1)
    if args.format == "csv":
        shown = _text(total, n, EXIT_IO, "cannot print the CSV header: ")
        lines = [
            f"# n={n} count={shown} error={format_rational(error)} "
            f"approx={approx_str(error)}",
            "variant,x,y",
        ]
        for i, pairs, texts in _codebooks(n, indices, format_rational):
            lines.extend([f"{i},{texts[a]},{texts[b]}" for a, b in pairs])
        lines.append("")
        text = "\n".join(lines)
        del lines  # so that only the text and its bytes are alive in _emit
        return _emit(text, args.out)
    variants = _codebooks(n, indices, lambda value: json.dumps(format_rational(value)))
    if args.all:
        head = ("count", json.dumps(total))
        body = ("codebooks", _json_list(
            ("    " + _json_object([("variant", json.dumps(i)),
                                    ("points", _json_points(pairs, texts, "      "))], "    ")
             for i, pairs, texts in variants),
            "  "))
    else:
        i, pairs, texts = next(variants)
        head = ("variant", json.dumps(i))
        body = ("points", _json_points(pairs, texts, "  "))
    fields = [
        ("n", json.dumps(n)),
        head,
        ("error", json.dumps(format_rational(error))),
        ("error_approx", json.dumps(approx_str(error))),
        body,
    ]
    text = _json_object(fields, "", "\n")
    del fields, body  # so that only the text and its bytes are alive in _emit
    return _emit(text, args.out)


def cmd_error(args: argparse.Namespace) -> int:
    value = quantization_error(args.n)
    shown = _text(value, args.n, EXIT_IO, "cannot print the error: ")
    print(f"{shown} = {approx_str(value)} (approx)")
    return EXIT_OK


def cmd_distortion(args: argparse.Namespace) -> int:
    path = args.codebook
    tol = _parse_tolerance(args.tol)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _Failure(EXIT_IO, f"cannot read {path}: {err}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise _Failure(EXIT_IO, f"parse error in {path} at line {err.lineno}, "
                       f"column {err.colno}: {err.msg}")
    try:
        book = read_codebook(obj)
    except (TypeError, ValueError) as err:
        raise _Failure(EXIT_IO, f"invalid codebook in {path}: {err}")
    interval = exact_distortion(book, tol, args.depth)
    try:
        text = json.dumps({"lower": format_rational(interval.lower),
                           "upper": format_rational(interval.upper), "exact": interval.exact})
    except ValueError as err:
        raise _Failure(EXIT_IO, f"cannot print the distortion of {path}: {err}")
    print(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    total, shown = _count_text(n, EXIT_IO, "cannot print the count: ")
    target = quantization_error(n)
    target_text = _text(target, n, EXIT_IO, "cannot print the error: ")
    print(f"n = {n}")
    print(f"closed-form error = {target_text} = {approx_str(target)} (approx)")
    checked = spread_indices(total, VERIFY_VARIANTS)
    sampled = " (evenly sampled)" if len(checked) < total else ""
    print(f"variants = {shown}, checking {len(checked)}{sampled}")
    failed_variants = 0
    for i in checked:
        book = optimal_codebook(n, i)
        try:
            ok, why = lloyd_step(book, args.depth) == book, ""
        except ResolutionError:
            ok, why = False, f" (unresolved at depth {args.depth})"
        failed_variants += 0 if ok else 1
        print(f"variant {i}: fixed point {'PASS' if ok else 'FAIL'}{why}")
    result = multistart_search(n, args.seeds, args.rng_seed, args.depth)
    print(f"multistart: seeds={args.seeds} rng_seed={args.rng_seed} depth={args.depth}")
    tally = result.tally()
    print("statuses: " + " ".join(f"{s.value}={tally[s]}" for s in RunStatus))
    reasons = []
    if failed_variants:
        reasons.append(
            f"{failed_variants} of {len(checked)} checked variants are not fixed points")
    best = result.best
    if best is None:
        print("best upper bound = none (no run finished)")
        reasons.append("no multistart run finished")
    else:
        upper = best.interval.upper
        flag = "exact" if best.interval.exact else "interval"
        print(
            f"best upper bound = {format_rational(upper)} = "
            f"{approx_str(upper)} (approx) [{flag}, seed {best.index}]"
        )
        if upper < target:
            print(f"multistart found a better codebook than the closed form by "
                  f"{format_rational(target - upper)}")
            reasons.append("multistart beat the closed form")
    if reasons:
        print(f"RESULT: FAIL ({'; '.join(reasons)})")
        return EXIT_VERIFY
    print("RESULT: PASS")
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    print(_count_text(args.n, EXIT_IO, "cannot print the count: ")[1])
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    if args.depth > PLOT_DEPTH_LIMIT:
        raise _Failure(EXIT_USAGE, f"refusing to draw the 4^{args.depth} cells of depth "
                       f"{args.depth}; use --depth {PLOT_DEPTH_LIMIT} or less")
    return _emit(render_svg(args.n, args.depth), args.out)


_HANDLERS = {
    "optimal": cmd_optimal,
    "error": cmd_error,
    "distortion": cmd_distortion,
    "verify": cmd_verify,
    "count": cmd_count,
    "plot": cmd_plot,
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cantorquant",
        description="Optimal quantizers of the product-Cantor measure, "
        "with certified verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimal", help="construct optimal codebooks")
    p.add_argument("n", type=_positive_int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--variant", type=int, default=None)
    group.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("error", help="closed-form quantization error")
    p.add_argument("n", type=_positive_int)

    p = sub.add_parser("distortion", help="certified distortion of a codebook file")
    p.add_argument("--codebook", required=True)
    p.add_argument("--tol", default=format_rational(DEFAULT_TOLERANCE))
    p.add_argument("--depth", type=_positive_int, default=DEFAULT_MAX_DEPTH)

    p = sub.add_parser("verify", help="cross-check variants and multistart evidence")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--seeds", type=_positive_int, default=200)
    p.add_argument("--rng-seed", type=int, default=1)
    p.add_argument("--depth", type=_positive_int, default=20)

    p = sub.add_parser("count", help="number of optimal codebooks")
    p.add_argument("n", type=_positive_int)

    p = sub.add_parser("plot", help="render support cells and codebook as SVG")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--depth", type=_positive_int, default=3)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except _Failure as failure:
        code, message = failure.args
        print(message, file=sys.stderr)
        return code
    except BrokenPipeError as err:
        # The reader is gone: point stdout at os.devnull for the flush at exit.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"cannot write stdout: {err}", file=sys.stderr)
        return EXIT_IO
