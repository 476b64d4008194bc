"""Command-line front end.

Subcommands: optimal, error, distortion, verify, count, plot.  All
numeric output is exact rational text; decimal renderings are a
convenience, carry ten significant digits, and are marked as approx.
Every command is deterministic given its flags.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 verification failure, 3 I/O or input-file error or a result too long
to print.  ``verify`` fails when a checked variant is not a fixed point,
when multistart beats the closed form, and when no multistart run
finished, since it then has no evidence; its last line names every
reason.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .engine import (
    DEFAULT_MAX_DEPTH,
    ResolutionError,
    RunStatus,
    exact_distortion,
    lloyd_step,
    multistart_search,
)
from .measure import format_rational, parse_rational
from .optimal import (
    Codebook,
    count_variants,
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


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def approx_str(value: Fraction, digits: int = 10) -> str:
    """Decimal rendering with the given number of significant digits."""
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits + 15
        d = Decimal(value.numerator) / Decimal(value.denominator)
        q = d.quantize(Decimal(1).scaleb(d.adjusted() - (digits - 1)))
    return str(q)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _parse_tolerance(text: str) -> Fraction:
    tol = parse_rational(text)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {text}")
    return tol


def _emit(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
    except OSError as err:
        print(f"cannot write {path}: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _text(value: int | Fraction) -> str | None:
    """value as exact text, or None when it has more digits than the
    interpreter turns into text (sys.get_int_max_str_digits())."""
    try:
        return format_rational(value)
    except ValueError:
        return None


def _count_too_long(n: int) -> str:
    return (
        f"n={n} has a variant count of more than "
        f"{sys.get_int_max_str_digits()} digits"
    )


def _error_too_long(n: int) -> str:
    return (
        f"n={n} has an error denominator of more than "
        f"{sys.get_int_max_str_digits()} digits"
    )


def _points_csv(book: Codebook, variant: int) -> list[str]:
    return [
        f"{variant},{format_rational(p.x)},{format_rational(p.y)}"
        for p in book
    ]


def _json_object(fields: list[tuple[str, str]], pad: str) -> str:
    """A JSON object laid out as json.dumps(..., indent=2) lays it out
    when nested at indent pad; keys are plain names, values JSON text."""
    inner = pad + "  "
    body = ",\n".join(f'{inner}"{key}": {value}' for key, value in fields)
    return f"{{\n{body}\n{pad}}}"


def _json_list(items: list[str], pad: str) -> str:
    """A non-empty JSON list of JSON texts, laid out like _json_object."""
    inner = pad + "  "
    return "[\n" + ",\n".join(inner + item for item in items) + f"\n{pad}]"


def _json_points(book: Codebook, pad: str) -> str:
    """The points as a list of {"x": ..., "y": ...}, laid out like _json_object."""
    inner, key = pad + "  ", pad + "    "
    return _json_list(
        [
            f'{{\n{key}"x": {json.dumps(format_rational(p.x))},\n'
            f'{key}"y": {json.dumps(format_rational(p.y))}\n{inner}}}'
            for p in book
        ],
        pad,
    )


def cmd_optimal(args: argparse.Namespace) -> int:
    n = args.n
    total = count_variants(n)
    shown = _text(total)
    error = quantization_error(n)
    if args.all:
        if total > ENUM_ALL_LIMIT:
            print(
                f"refusing to enumerate {shown} variants for n={n}; "
                f"use --variant with an index below {shown}"
                if shown is not None
                else f"refusing to enumerate the variants: {_count_too_long(n)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        indices = range(total)
    else:
        index = args.variant if args.variant is not None else 0
        if not 0 <= index < total:
            print(
                f"variant {index} out of range: n={n} has {shown} "
                f"variant{'s' if total != 1 else ''} (0..{total - 1})"
                if shown is not None
                else f"variant {index} out of range: indices start at 0, and "
                f"{_count_too_long(n)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        indices = range(index, index + 1)
    if args.format == "csv" and shown is None:
        print(f"cannot print the CSV header: {_count_too_long(n)}", file=sys.stderr)
        return EXIT_IO
    books = [(i, optimal_codebook(n, i)) for i in indices]
    if args.format == "csv":
        lines = [
            f"# n={n} count={shown} error={format_rational(error)} "
            f"approx={approx_str(error)}",
            "variant,x,y",
        ]
        for i, book in books:
            lines.extend(_points_csv(book, i))
        return _emit("\n".join(lines) + "\n", args.out)
    if args.all:
        head = ("count", json.dumps(total))
        codebooks = [
            _json_object([("variant", json.dumps(i)), ("points", _json_points(book, "      "))], "    ")
            for i, book in books
        ]
        body = ("codebooks", _json_list(codebooks, "  "))
    else:
        i, book = books[0]
        head = ("variant", json.dumps(i))
        body = ("points", _json_points(book, "  "))
    fields = [
        ("n", json.dumps(n)),
        head,
        ("error", json.dumps(format_rational(error))),
        ("error_approx", json.dumps(approx_str(error))),
        body,
    ]
    return _emit(_json_object(fields, "") + "\n", args.out)


def cmd_error(args: argparse.Namespace) -> int:
    value = quantization_error(args.n)
    shown = _text(value)
    if shown is None:
        print(f"cannot print the error: {_error_too_long(args.n)}", file=sys.stderr)
        return EXIT_IO
    print(f"{shown} = {approx_str(value)} (approx)")
    return EXIT_OK


def cmd_distortion(args: argparse.Namespace) -> int:
    path = args.codebook
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        print(
            f"parse error in {path} at line {err.lineno}, column {err.colno}: "
            f"{err.msg}",
            file=sys.stderr,
        )
        return EXIT_IO
    try:
        book = Codebook.from_json_obj(obj)
    except (TypeError, ValueError) as err:
        print(f"invalid codebook in {path}: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        tol = _parse_tolerance(args.tol)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    interval = exact_distortion(book, tol, args.depth)
    try:
        text = json.dumps(interval.to_json_obj())
    except ValueError as err:
        print(f"cannot print the distortion of {path}: {err}", file=sys.stderr)
        return EXIT_IO
    print(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    try:
        tol = _parse_tolerance(args.tol)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    total = count_variants(n)
    shown = _text(total)
    if shown is None:
        print(f"cannot print the count: {_count_too_long(n)}", file=sys.stderr)
        return EXIT_IO
    target = quantization_error(n)
    target_text = _text(target)
    if target_text is None:
        print(f"cannot print the error: {_error_too_long(n)}", file=sys.stderr)
        return EXIT_IO
    print(f"n = {n}")
    print(f"closed-form error = {target_text} = {approx_str(target)} (approx)")
    checked = spread_indices(total, args.max_variants)
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
        if upper < target - tol:
            print(f"multistart found a better codebook than the closed form by "
                  f"{format_rational(target - upper)}")
            reasons.append("multistart beat the closed form")
    if reasons:
        print(f"RESULT: FAIL ({'; '.join(reasons)})")
        return EXIT_VERIFY
    print("RESULT: PASS")
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    shown = _text(count_variants(args.n))
    if shown is None:
        print(f"cannot print the count: {_count_too_long(args.n)}", file=sys.stderr)
        return EXIT_IO
    print(shown)
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    svg = render_svg(args.n, args.depth)
    return _emit(svg, args.out)


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
    p.add_argument("--tol", default="1e-12")
    p.add_argument("--depth", type=_positive_int, default=DEFAULT_MAX_DEPTH)

    p = sub.add_parser("verify", help="cross-check variants and multistart evidence")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--seeds", type=_positive_int, default=200)
    p.add_argument("--rng-seed", type=int, default=1)
    p.add_argument("--depth", type=_positive_int, default=20)
    p.add_argument("--tol", default="1e-9")
    p.add_argument("--max-variants", type=_positive_int, default=100)

    p = sub.add_parser("count", help="number of optimal codebooks")
    p.add_argument("n", type=_positive_int)

    p = sub.add_parser("plot", help="render support cells and codebook as SVG")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--depth", type=_positive_int, default=3)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _HANDLERS[args.command](args)
