"""Command-line interface: output formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from cantorquant.cli import main


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
    @pytest.mark.parametrize("n,expected", [(2, "2"), (4, "1"), (5, "8"), (6, "24")])
    def test_known_counts(self, capsys, n, expected):
        rc, out, _ = run(capsys, "count", str(n))
        assert rc == 0
        assert out.strip() == expected

    def test_rejects_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "1"])
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
    ], ids=["zero-denominator", "json-number", "missing-y", "points-not-a-list",
            "tol-zero-denominator"])
    def test_malformed_input_exits_with_documented_code(
            self, capsys, tmp_path, points, extra, code, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": points}))
        rc, _, err = run(capsys, "distortion", "--codebook", str(path), *extra)
        assert rc == code
        assert needle in err

    def test_declared_n_must_be_an_integer(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": "1", "points": [{"x": "1/2", "y": "1/2"}]}))
        rc, _, err = run(capsys, "distortion", "--codebook", str(path))
        assert rc == 3
        assert err.endswith(": codebook field n must be an integer, got '1'\n")

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
    def test_small_run_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "4", "--seeds", "3", "--depth", "12")
        assert rc == 0
        assert "variant 0: fixed point PASS" in out
        assert out.rstrip().endswith("RESULT: PASS")

    def test_reports_status_tally(self, capsys):
        rc, out, _ = run(capsys, "verify", "2", "--seeds", "5", "--depth", "14")
        assert rc == 0
        assert "statuses: converged=" in out
        assert "best upper bound" in out


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


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["optimal"]])
    def test_bad_invocations_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cantorquant", "error", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/36 = 0.02777777778 (approx)\n"
