"""tools/ab.py: two trees side by side in one process, on a few ops."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_each_side_gets_its_own_modules_and_sys_modules_is_restored():
    import cantorquant

    before = {name: module for name, module in sys.modules.items() if ab._ours(name)}
    one, two = ab.load_workloads(ROOT), ab.load_workloads(ROOT)
    after = {name: module for name, module in sys.modules.items() if ab._ours(name)}
    assert after == before and sys.modules["cantorquant"] is cantorquant
    walks = [w["certify"].op.__globals__["exact_distortion"] for w in (one, two)]
    assert walks[0] is not walks[1]
    assert cantorquant.exact_distortion not in walks
    assert sorted(one) == ["build", "certify", "dust"]


def test_replays_every_workload_against_itself(capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--rounds", "1",
            "--ops", "certify=4", "--ops", "dust=2", "--ops", "build=1"]
    assert ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["certify", "dust", "build"]
    assert all(line.endswith("failed checks: parent 0, change 0") for line in lines)
    assert "change faster in" in lines[0] and "over 1 rounds" in lines[0]


def test_rounds_zero_checks_without_timing(capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--rounds", "0", "--ops", "certify=3"]
    assert ab.main(argv) == 0
    assert capsys.readouterr().out == "certify: 3 ops, seed 1, failed checks: parent 0, change 0\n"


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    def workload(check):
        return SimpleNamespace(inputs=lambda rng: iter(range(10**6)),
                               op=lambda tracer, inp: sum(range(10**4)) and inp, check=check)

    sides = iter([{"dust": workload(lambda inp, out: True)},
                  {"dust": workload(lambda inp, out: out % 2 == 0)}])
    monkeypatch.setattr(ab, "load_workloads", lambda tree: next(sides))
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--rounds", "3", "--ops", "dust=5"]
    assert ab.main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("dust: 5 ops, seed 1, parent/change process time over 3 rounds: median ")
    assert out.endswith("failed checks: parent 0, change 6\n")


@pytest.mark.parametrize("argv,message", [
    (["--ops", "certfy=3"], "unknown workload 'certfy'"),
    (["--ops", "certify"], "--ops wants WORKLOAD=COUNT"),
    ([], "give at least one --ops"),
    (["--ops", "certify=3", "--rounds", "-1"], "--rounds must be >= 0"),
], ids=["unknown", "count", "none", "rounds"])
def test_bad_arguments_fail_before_any_run(monkeypatch, capsys, argv, message):
    def never(*args):
        raise AssertionError("loaded a tree")

    monkeypatch.setattr(ab, "load_workloads", never)
    with pytest.raises(SystemExit) as info:
        ab.main(["--parent", str(ROOT), "--change", str(ROOT), *argv])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
