"""Command-line interface: output formats, exit codes, determinism."""

import errno
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cantorquant import cli
from cantorquant.cli import build_parser, main
from cantorquant.engine import CertifiedInterval, MultistartResult, RunRecord, RunStatus
from cantorquant.measure import cell_interval
from cantorquant.optimal import (
    count_variants,
    format_rational,
    optimal_codebook,
    quantization_error,
    spread_indices,
)
from cantorquant.plot import (
    BOARD,
    CANVAS,
    CELL_STYLE,
    DOT_RADIUS,
    DOT_STYLE,
    MARGIN,
    _fixed3,
    render_svg,
)
from cantorquant.words import BinaryWord


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestError:
    def test_prints_exact_and_approx(self, capsys):
        rc, out, _ = run(capsys, "error", "2")
        assert rc == 0
        assert out == "5/36 = 0.1388888889 (approx)\n"

    def test_power_of_four(self, capsys):
        rc, out, _ = run(capsys, "error", "16")
        assert rc == 0
        assert out.startswith("1/324 = ")

    def test_rejects_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["error", "0"])
        assert info.value.code == 1


class TestCount:
    @pytest.mark.parametrize(
        "n,expected", [(2, "2"), (4, "1"), (5, "8"), (6, "24"), (1, "1")]
    )
    def test_known_counts(self, capsys, n, expected):
        rc, out, _ = run(capsys, "count", str(n))
        assert rc == 0
        assert out.strip() == expected

    def test_rejects_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "0"])
        assert info.value.code == 1


class TestOptimal:
    def test_default_variant_json(self, capsys):
        rc, out, _ = run(capsys, "optimal", "5")
        assert rc == 0
        obj = json.loads(out)
        assert obj["n"] == 5
        assert obj["variant"] == 0
        assert obj["error"] == "2/81"
        assert len(obj["points"]) == 5

    def test_all_variants_json(self, capsys):
        rc, out, _ = run(capsys, "optimal", "3", "--all")
        assert rc == 0
        obj = json.loads(out)
        assert obj["count"] == 4
        assert len(obj["codebooks"]) == 4
        assert [b["variant"] for b in obj["codebooks"]] == [0, 1, 2, 3]

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "optimal", "2", "--all", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# n=2 count=2 error=5/36")
        assert lines[1] == "variant,x,y"
        assert len(lines) == 2 + 2 * 2

    def test_variant_out_of_range(self, capsys):
        rc, _, err = run(capsys, "optimal", "4", "--variant", "3")
        assert rc == 1
        assert "variant 3 out of range: n=4 has 1 variant (0..0)" in err

    def test_out_file_round_trips_through_distortion(self, capsys, tmp_path):
        path = tmp_path / "book.json"
        rc, _, _ = run(capsys, "optimal", "5", "--variant", "3", "--out", str(path))
        assert rc == 0
        rc, out, _ = run(capsys, "distortion", "--codebook", str(path))
        assert rc == 0
        obj = json.loads(out)
        assert obj == {"lower": "2/81", "upper": "2/81", "exact": True}


class TestDistortion:
    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "distortion", "--codebook", "/nonexistent/x.json")
        assert rc == 3
        assert "cannot read" in err

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [\n  {"x": "1/2",}\n]}\n')
        rc, _, err = run(capsys, "distortion", "--codebook", str(path))
        assert rc == 3
        assert "line 2" in err

    def test_bad_tolerance(self, capsys, tmp_path):
        path = tmp_path / "book.json"
        run(capsys, "optimal", "2", "--out", str(path))
        rc, _, err = run(capsys, "distortion", "--codebook", str(path), "--tol", "-1")
        assert rc == 1
        assert "tolerance" in err

    @pytest.mark.parametrize("points,extra,code,needle", [
        ([{"x": "1/0", "y": "1/2"}], [], 3, "zero denominator"),
        ([{"x": 0.5, "y": "1/2"}], [], 3, "as text"),
        ([{"x": "1/2"}], [], 3, "x and y"),
        ("none", [], 3, "list of points"),
        ([{"x": "1/2", "y": "1/2"}], ["--tol", "1/0"], 1, "zero denominator"),
        ([{"x": "1e-20000", "y": "1/2"}], [], 3, "exponent"),
        ([{"x": "1e999999999", "y": "1/2"}], [], 3, "exponent"),
        ([{"x": "1/2", "y": "1/2"}], ["--tol", "1e-20000"], 1, "exponent"),
    ], ids=["zero-denominator", "json-number", "missing-y", "points-not-a-list",
            "tol-zero-denominator", "tiny-exponent", "huge-exponent",
            "tol-tiny-exponent"])
    def test_malformed_input_exits_with_documented_code(
            self, capsys, tmp_path, points, extra, code, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": points}))
        rc, _, err = run(capsys, "distortion", "--codebook", str(path), *extra)
        assert rc == code
        assert needle in err

    def test_distortion_too_long_to_print(self, capsys, tmp_path):
        # Each coordinate is within the digit limit; the bounds' denominators
        # are about its square and are not.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"points": [{"x": "1e-3000", "y": "1/2"}]}))
        rc, out, err = run(capsys, "distortion", "--codebook", str(path))
        assert rc == 3
        assert out == ""
        assert err.startswith(f"cannot print the distortion of {path}: ")

    def test_declared_n_must_be_an_integer(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": "1", "points": [{"x": "1/2", "y": "1/2"}]}))
        rc, _, err = run(capsys, "distortion", "--codebook", str(path))
        assert rc == 3
        assert err.endswith(": codebook field n must be an integer, got '1'\n")

    def test_huge_depth_cap_prints_the_same_interval(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({
            "points": [{"x": "3/10", "y": "7/10"}, {"x": "7/10", "y": "3/10"}],
        }))
        outs = [
            run(capsys, "distortion", "--codebook", str(path), "--tol", "1e-9", "--depth", depth)
            for depth in ("1000000000", "40")
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0

    def test_interval_output_for_contested_book(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({
            "points": [{"x": "3/10", "y": "7/10"}, {"x": "7/10", "y": "3/10"}],
        }))
        rc, out, _ = run(capsys, "distortion", "--codebook", str(path),
                         "--tol", "1e-30", "--depth", "6")
        assert rc == 0
        obj = json.loads(out)
        assert obj["exact"] is False
        assert obj["lower"] != obj["upper"]


class TestVerify:
    # Run 9 of this stream converges to the optimum 5/36 at depth 12.
    FINISHING = ("verify", "2", "--seeds", "10", "--depth", "12")

    def test_small_run_passes(self, capsys):
        rc, out, _ = run(capsys, *self.FINISHING)
        assert rc == 0
        assert "variant 0: fixed point PASS" in out
        assert out.rstrip().endswith("RESULT: PASS")

    def test_reports_status_tally(self, capsys):
        rc, out, _ = run(capsys, *self.FINISHING)
        assert rc == 0
        assert "statuses: converged=1 " in out
        assert "best upper bound = 5/36 " in out

    def test_unresolved_variant_fails(self, capsys):
        rc, out, err = run(capsys, "verify", "5", "--depth", "1", "--seeds", "1")
        assert rc == 2
        assert err == ""
        assert "variant 0: fixed point FAIL (unresolved at depth 1)\n" in out
        assert out.rstrip().splitlines()[-1].startswith("RESULT: FAIL")

    def test_fails_when_no_run_finished(self, capsys):
        rc, out, _ = run(capsys, "verify", "4", "--seeds", "3", "--depth", "12")
        assert rc == 2
        assert "resolution-failure=3" in out
        assert out.rstrip().endswith("RESULT: FAIL (no multistart run finished)")

    def test_fail_line_names_every_reason(self, capsys):
        rc, out, _ = run(capsys, "verify", "5", "--depth", "1", "--seeds", "1")
        assert rc == 2
        assert out.count("fixed point FAIL") == 8
        assert out.rstrip().splitlines()[-1] == (
            "RESULT: FAIL (8 of 8 checked variants are not fixed points; "
            "no multistart run finished)")

    def test_fail_line_names_failed_variants_alone(self, capsys, monkeypatch):
        # Every variant moves under this step, while multistart, which
        # runs the engine's own step, still converges as in FINISHING.
        monkeypatch.setattr(cli, "lloyd_step", lambda book, depth: optimal_codebook(1))
        rc, out, _ = run(capsys, *self.FINISHING)
        assert rc == 2
        assert "best upper bound = 5/36 " in out
        assert out.rstrip().splitlines()[-1] == (
            "RESULT: FAIL (2 of 2 checked variants are not fixed points)")

    def test_fail_line_names_a_beaten_closed_form(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "quantization_error", lambda n: Fraction(1))
        rc, out, _ = run(capsys, *self.FINISHING)
        assert rc == 2
        assert "multistart found a better codebook than the closed form by 31/36" in out
        assert out.rstrip().splitlines()[-1] == (
            "RESULT: FAIL (multistart beat the closed form)")

    def test_any_bound_below_the_closed_form_fails(self, capsys, monkeypatch):
        # A certified upper bound is a real codebook's distortion, so one
        # below V_n by any amount disproves the closed form.
        upper = Fraction(5, 36) - Fraction(1, 10**12)
        record = RunRecord(0, RunStatus.CONVERGED, 1, optimal_codebook(2),
                           CertifiedInterval(upper, upper))
        monkeypatch.setattr(cli, "multistart_search",
                            lambda n, seeds, rng_seed, depth: MultistartResult((record,)))
        rc, out, _ = run(capsys, "verify", "2", "--seeds", "1", "--depth", "12")
        assert rc == 2
        assert "multistart found a better codebook than the closed form by 1/1000000000000" in out
        assert out.rstrip().splitlines()[-1] == (
            "RESULT: FAIL (multistart beat the closed form)")

    def test_has_no_tolerance(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "2", "--tol", "0"])
        assert info.value.code == 1
        assert capsys.readouterr().err.endswith(
            "cantorquant: error: unrecognized arguments: --tol 0\n")


@pytest.mark.parametrize("argv,code,message", [
    (["count", "20000"], 3, "cannot print the count: "),
    (["optimal", "20000", "--all"], 1, "refusing to enumerate the variants: "),
    (["optimal", "20000", "--variant", "-1"], 1,
     "variant -1 out of range: indices start at 0, and "),
    (["optimal", "20000", "--format", "csv"], 3, "cannot print the CSV header: "),
    (["verify", "20000", "--seeds", "1"], 3, "cannot print the count: "),
], ids=["count", "optimal-all", "optimal-negative-variant", "optimal-csv", "verify"])
def test_variant_count_too_long_to_print(capsys, argv, code, message):
    # count_variants(20000) has 4842 digits, past the default limit of 4300.
    rc, out, err = run(capsys, *argv)
    assert rc == code
    assert out == ""
    assert err == message + "n=20000 has a variant count of more than 4300 digits\n"


@pytest.mark.parametrize("command", ["error", "verify"])
def test_error_too_long_to_print(capsys, command):
    # The error of n = 4^3000 + 1 has a denominator of about 36^3000, which
    # has more than 4300 digits, while its variant count 2 * 4^3000 has 1807.
    n = 4**3000 + 1
    rc, out, err = run(capsys, command, str(n))
    assert rc == 3
    assert out == ""
    assert err == (
        f"cannot print the error: n={n} has an error denominator of more "
        f"than 4300 digits\n"
    )


def _os_error(code, path):
    return f"[Errno {code}] {os.strerror(code)}: {str(path)!r}"


# Each failure site's exact stderr line and exit code; argv and the line
# are built from the directory holding the fixture files.
FAILURES = {
    "read-missing": lambda d: (
        ["distortion", "--codebook", f"{d}/none.json"], 3,
        f"cannot read {d}/none.json: {_os_error(errno.ENOENT, f'{d}/none.json')}"),
    "read-directory": lambda d: (
        ["distortion", "--codebook", str(d)], 3,
        f"cannot read {d}: {_os_error(errno.EISDIR, d)}"),
    "parse-error": lambda d: (
        ["distortion", "--codebook", f"{d}/bad.json"], 3,
        f"parse error in {d}/bad.json at line 2, column 15: "
        "Expecting property name enclosed in double quotes"),
    "invalid-codebook": lambda d: (
        ["distortion", "--codebook", f"{d}/notbook.json"], 3,
        f"invalid codebook in {d}/notbook.json: "
        "a codebook must be an object with a list of points"),
    "distortion-tol": lambda d: (
        ["distortion", "--codebook", f"{d}/book.json", "--tol", "-1"], 1,
        "tolerance must be positive, got -1"),
    "distortion-tol-text": lambda d: (
        ["distortion", "--codebook", f"{d}/book.json", "--tol", "abc"], 1,
        "Invalid literal for Fraction: 'abc'"),
    # A bad tolerance is a usage error even when the file is unreadable too.
    "distortion-tol-before-read": lambda d: (
        ["distortion", "--codebook", f"{d}/none.json", "--tol", "abc"], 1,
        "Invalid literal for Fraction: 'abc'"),
    "optimal-out": lambda d: (
        ["optimal", "2", "--out", f"{d}/none/x.json"], 3,
        f"cannot write {d}/none/x.json: {_os_error(errno.ENOENT, f'{d}/none/x.json')}"),
    "plot-out": lambda d: (
        ["plot", "2", "--out", f"{d}/none/x.svg"], 3,
        f"cannot write {d}/none/x.svg: {_os_error(errno.ENOENT, f'{d}/none/x.svg')}"),
    "optimal-all-refusal": lambda d: (
        ["optimal", "200", "--all"], 1,
        "refusing to enumerate 22981964535622049271251251584245115364835328 "
        "variants for n=200; use --variant with an index below "
        "22981964535622049271251251584245115364835328"),
    "optimal-variant-range": lambda d: (
        ["optimal", "4", "--variant", "3"], 1,
        "variant 3 out of range: n=4 has 1 variant (0..0)"),
}


@pytest.mark.parametrize("site", sorted(FAILURES))
def test_failure_prints_one_line_and_its_exit_code(capsys, tmp_path, site):
    (tmp_path / "bad.json").write_text('{"points": [\n  {"x": "1/2",}\n]}\n')
    (tmp_path / "notbook.json").write_text('{"points": "none"}')
    (tmp_path / "book.json").write_text(
        json.dumps({"points": [{"x": "1/4", "y": "1/2"}, {"x": "3/4", "y": "1/2"}]}))
    argv, code, line = FAILURES[site](tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (code, "", line + "\n")


def test_non_utf8_codebook_is_a_read_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    rc, out, err = run(capsys, "distortion", "--codebook", str(path))
    assert (rc, out) == (3, "")
    assert err == (f"cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")


@pytest.mark.parametrize("argv,code,message", [
    (["count", "10000000"], 3, "cannot print the count: "),
    (["verify", "10000000", "--seeds", "1"], 3, "cannot print the count: "),
    (["optimal", "10000000", "--all"], 1, "refusing to enumerate the variants: "),
], ids=["count", "verify", "optimal-all"])
def test_unprintable_count_is_refused_before_it_is_computed(capsys, monkeypatch, argv, code, message):
    # The count of n = 10^7 has millions of digits; computing it takes minutes.
    def never(n):
        raise AssertionError(f"count_variants({n}) was computed")

    monkeypatch.setattr(cli, "count_variants", never)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (
        code, "", message + "n=10000000 has a variant count of more than 4300 digits\n")


@pytest.mark.parametrize("depth,drawn", [(10, True), (11, False), (40, False)])
def test_plot_depth_is_capped_before_rendering(capsys, monkeypatch, depth, drawn):
    # Depth 11 would be 4^11 rects, about 476 MB of text.
    def fake(n, depth):
        if not drawn:
            raise AssertionError(f"render_svg({n}, {depth}) was called")
        return "<svg/>\n"

    monkeypatch.setattr(cli, "render_svg", fake)
    rc, out, err = run(capsys, "plot", "2", "--depth", str(depth))
    if drawn:
        assert (rc, out, err) == (0, "<svg/>\n", "")
    else:
        assert (rc, out, err) == (1, "", f"refusing to draw the 4^{depth} cells of depth "
                                  f"{depth}; use --depth 10 or less\n")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["unset", "1"])
def test_closed_stdout_exits_three_without_a_traceback(unbuffered):
    # The output, 570 kB, is far larger than a pipe holds, and every write
    # is retried until it is taken whole, so writing fails once the reader
    # has gone however the two processes are scheduled.  Unbuffered, the
    # stdout file itself may take only part of a write.
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "cantorquant", "optimal", "65", "--all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": str(root / "src")},
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 3
        assert proc.stderr.read() == b"cannot write stdout: [Errno 32] Broken pipe\n"
    finally:
        proc.kill()
        proc.stderr.close()


class TestPlot:
    def test_cell_and_point_counts(self, capsys):
        rc, out, _ = run(capsys, "plot", "4", "--depth", "3")
        assert rc == 0
        assert out.count("<rect") == 4**3
        assert out.count("<circle") == 4

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "plot", "9", "--depth", "2")
        _, second, _ = run(capsys, "plot", "9", "--depth", "2")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "fig.svg"
        rc, out, _ = run(capsys, "plot", "2", "--out", str(path))
        assert rc == 0
        assert out == ""
        assert path.read_text().startswith("<svg")


# The Fraction renderer: canvas coordinates as exact rationals, each
# rounded by round(Fraction).  Kept as the reference for plot._fixed3.

def _fmt(value: Fraction) -> str:
    """Fixed three-decimal rendering, exact rational in, stable text out."""
    milli = round(value * 1000)
    sign = "-" if milli < 0 else ""
    whole, frac = divmod(abs(milli), 1000)
    return f"{sign}{whole}.{frac:03d}"


def _to_canvas_x(x: Fraction) -> Fraction:
    return MARGIN + x * BOARD


def _to_canvas_y(y: Fraction) -> Fraction:
    # SVG grows downward; the measure's y axis grows upward.
    return MARGIN + (1 - y) * BOARD


def grid_cells(ell):
    """Every depth-ell cell address (s, t), in lexicographic order."""
    words = [BinaryWord("".join(bits)) for bits in itertools.product("12", repeat=ell)]
    return [(s, t) for s in words for t in words]


def reference_svg(n, depth, variant=0):
    """The renderer before lattice edges: one cell_interval pair per rect."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS}" height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
    ]
    for sigma, tau in grid_cells(depth):
        x0, x1 = cell_interval(sigma)
        y0, y1 = cell_interval(tau)
        lines.append(
            f'  <rect x="{_fmt(_to_canvas_x(x0))}" y="{_fmt(_to_canvas_y(y1))}" '
            f'width="{_fmt((x1 - x0) * BOARD)}" height="{_fmt((y1 - y0) * BOARD)}" '
            f'{CELL_STYLE}/>'
        )
    for p in optimal_codebook(n, variant):
        lines.append(
            f'  <circle cx="{_fmt(_to_canvas_x(p.x))}" cy="{_fmt(_to_canvas_y(p.y))}" '
            f'r="{DOT_RADIUS}" {DOT_STYLE}/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


class TestRenderMatchesReference:
    @pytest.mark.parametrize("n,depth", [
        (1, 1), (2, 1), (5, 2), (9, 3), (37, 4), (100, 5), (3000, 5), (7, 6),
        # m = 2 and m = 3 at ell = 1 and ell = 4, and the ell = 5 boundary.
        (10, 3), (14, 2), (600, 4), (900, 4), (4095, 5), (4096, 5), (4097, 5),
    ])
    def test_byte_identical(self, n, depth):
        assert render_svg(n, depth) == reference_svg(n, depth)


class TestFixedPointRounding:
    @pytest.mark.parametrize("milli_halves", [1, 3, 5, -1, -3, -5, 2001, -2001])
    def test_exact_ties_round_to_even(self, milli_halves):
        value = Fraction(milli_halves, 2000)
        assert _fixed3(value.numerator, value.denominator) == _fmt(value)

    @pytest.mark.parametrize("num,den,text", [
        (1, 2000, "0.000"), (3, 2000, "0.002"), (-5, 2000, "-0.002"),
        (-1, 3, "-0.333"), (-2, 3, "-0.667"), (-1, 1, "-1.000"), (0, 7, "0.000"),
    ])
    def test_known_values(self, num, den, text):
        assert _fixed3(num, den) == text == _fmt(Fraction(num, den))

    def test_unreduced_fraction(self):
        assert _fixed3(6, 4000) == _fixed3(3, 2000) == "0.002"

    def test_matches_fraction_rounding_on_random_rationals(self):
        rng = random.Random(8)
        for _ in range(10**4):
            den = rng.randint(1, 10**rng.randint(1, 12))
            num = rng.randint(-(10**13), 10**13)
            assert _fixed3(num, den) == _fmt(Fraction(num, den)), (num, den)


# The optimal writers before they formatted numerators: every point from
# optimal_codebook's Fractions, JSON laid out by json.dumps(indent=2).

def reference_optimal(n, indices, fmt, enumerate_all):
    error, total = quantization_error(n), count_variants(n)
    if fmt == "csv":
        lines = [f"# n={n} count={total} error={format_rational(error)} "
                 f"approx={cli.approx_str(error)}", "variant,x,y"]
        for i in indices:
            lines += [f"{i},{format_rational(p.x)},{format_rational(p.y)}"
                      for p in optimal_codebook(n, i)]
        return "\n".join(lines) + "\n"
    obj = {"n": n}
    if enumerate_all:
        obj["count"] = total
    else:
        obj["variant"] = indices[0]
    obj["error"] = format_rational(error)
    obj["error_approx"] = cli.approx_str(error)
    books = [{"variant": i, "points": [p.to_json() for p in optimal_codebook(n, i)]}
             for i in indices]
    if enumerate_all:
        obj["codebooks"] = books
    else:
        obj["points"] = books[0]["points"]
    return json.dumps(obj, indent=2) + "\n"


class TestOptimalWritersMatchReference:
    # Every n <= 70 with at most 2,000 variants, and ell = 3 -> 4.
    ALL = [n for n in range(1, 71) if count_variants(n) <= 2000] + [255, 256, 257]

    def test_all_corpus_size(self):
        assert len(self.ALL) == 25

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n", ALL)
    def test_all(self, capsys, n, fmt):
        rc, out, err = run(capsys, "optimal", str(n), "--all", "--format", fmt)
        assert (rc, err) == (0, "")
        assert out == reference_optimal(n, range(count_variants(n)), fmt, True)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n", [1023, 1024, 1025, 4095, 4096, 4097])
    def test_spread_variants(self, capsys, n, fmt):
        for i in spread_indices(count_variants(n), 3):
            rc, out, err = run(capsys, "optimal", str(n), "--variant", str(i), "--format", fmt)
            assert (rc, err) == (0, "")
            assert out == reference_optimal(n, [i], fmt, False), i


# SHA-256 of the output of the renderer and enumeration before they moved
# to integer cell positions; any edit there must keep these bytes.
GOLDEN_SHA256 = {
    "optimal 5 --all":
        "05df8f9f8e46c8fea6ba33d72ee2a86db47b8f7eac8cbaa4c072ff3339b2cf8d",
    "optimal 2 --all --format csv":
        "773fbd4801a6a4eebb5a1f1af9d307c3149f5a982abb0e27b7334e7a0680bce9",
    "optimal 65 --all":
        "fc92c4cc85bd7f250c512dc555d264326fc25f455492faec250c1e091c64d8eb",
    "optimal 7 --variant 11":
        "fdbd368dee26dc1aba18fcf2cc9fd539ef2f53ab2bce9d5862be7f7ab14a7ffb",
    "plot 9 --depth 4":
        "a67f5890d658f15e79f69a7316380456296cc26ef5dcaf0e33af05c33b7d8a39",
    "plot 3000 --depth 5":
        "d0c9aefa79a7dd4fa7e2b31c39b0a14c2d0fd32b255baaf2d13c686711143873",
    # The engine's text, taken before its walks moved to bare integers:
    # Lloyd fixed points and a multistart run, and the enclosure of a
    # contested pair frozen at the depth cap and stopped by the tolerance.
    "verify 2 --seeds 10 --depth 12":
        "d5d3d45911b96eb20a5cd498f82bb7b74519ed45b078ed3b5dac177ff3781606",
    "distortion --codebook {diag} --tol 1e-9 --depth 6":
        "3c673ed0fc650eb38ec243f488e22f2341ad0967008c70fd25bd270d8aadb1b9",
    "distortion --codebook {diag} --tol 1e-9 --depth 40":
        "a1c885f46db484702c8bdd067278ab5d0437e854e9f991b8e96456fc036bf9de",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_output_matches_golden_digest(capsys, tmp_path, command):
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({
        "points": [{"x": "3/10", "y": "7/10"}, {"x": "7/10", "y": "3/10"}],
    }))
    rc, out, _ = run(capsys, *command.format(diag=diag).split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["optimal"]])
    def test_bad_invocations_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


ROOT = Path(__file__).resolve().parents[1]


def _readme() -> str:
    return (ROOT / "README.md").read_text()


def _fresh(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run argv after the interpreter in a new process on this tree's src."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_module_entry_point():
    proc = _fresh(["-m", "cantorquant", "error", "4"])
    assert proc.returncode == 0
    assert proc.stdout == "1/36 = 0.02777777778 (approx)\n"


def test_runtime_imports_leave_the_paper_model_unloaded():
    # The runtime builds, checks and draws on the product form alone; the
    # paper's map model is for the acceptance criteria and the oracles.
    proc = _fresh(["-c", "import sys, cantorquant, cantorquant.cli; print(*sys.modules)"])
    loaded = proc.stdout.split()
    assert "cantorquant.cli" in loaded, proc.stderr
    assert "cantorquant.measure" not in loaded
    assert "cantorquant.words" not in loaded


def test_package_import_leaves_the_cli_unloaded():
    # The command line is a leaf: the library needs neither it nor argparse.
    proc = _fresh(["-c", "import sys, cantorquant; print(*sys.modules); "
                         "from cantorquant import cli; print(cli.main.__module__)"])
    loaded, imported = proc.stdout.splitlines()
    assert "cantorquant" in loaded.split(), proc.stderr
    for name in ("cantorquant.cli", "argparse", "cantorquant.measure", "cantorquant.words"):
        assert name not in loaded.split()
    assert imported == "cantorquant.cli"


def test_readme_library_sketch_runs():
    sketch = re.search(r"## Library sketch\n+```python\n(.*?)```", _readme(), re.DOTALL)
    assert sketch is not None
    proc = _fresh(["-c", sketch[1]])
    assert proc.returncode == 0, proc.stderr


def test_readme_printed_lines_match():
    examples = re.findall(r"^cantorquant ((?:error|count) .*)\n# (.*)$", _readme(), re.M)
    assert len(examples) == 2, examples
    for args, expected in examples:
        proc = _fresh(["-m", "cantorquant", *args.split()])
        assert (proc.returncode, proc.stdout.strip()) == (0, expected), args


def test_readme_verify_examples_pass():
    examples = re.findall(r"^cantorquant (verify .*)$", _readme(), re.M)
    assert examples
    for args in examples:
        proc = _fresh(["-m", "cantorquant", *args.split()])
        assert proc.returncode == 0, args + "\n" + proc.stdout + proc.stderr


def test_readme_file_examples(tmp_path):
    readme = _readme()
    written = re.search(r"^cantorquant (optimal .* --out (\S+))$", readme, re.M)
    read = re.search(r"^cantorquant (distortion --codebook (\S+))\n# (.*)$", readme, re.M)
    assert written and read and written[2] == read[2]
    assert _fresh(["-m", "cantorquant", *written[1].split()], tmp_path).returncode == 0
    proc = _fresh(["-m", "cantorquant", *read[1].split()], tmp_path)
    assert (proc.returncode, proc.stdout.strip()) == (0, read[3])
    plotted = re.search(r"^cantorquant (plot (\d+) --depth (\d+) --out (\S+))$", readme, re.M)
    assert plotted
    assert _fresh(["-m", "cantorquant", *plotted[1].split()], tmp_path).returncode == 0
    svg = (tmp_path / plotted[4]).read_text()
    assert (svg.count("<rect "), svg.count("<circle ")) == (
        4 ** int(plotted[3]), int(plotted[2]))


def test_readme_commands_parse():
    blocks = re.findall(r"```[a-z]*\n(.*?)```", _readme(), re.DOTALL)
    commands = [line.split()[1:] for block in blocks for line in block.splitlines()
                if line.startswith("cantorquant ")]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
