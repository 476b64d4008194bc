"""The verdicts of tools/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def pairs_of(**runs):
    """One pair per position: runs maps a metric to (parent values, change values)."""
    count = len(next(iter(runs.values()))[0])
    return [
        {side: {"result": {"metrics": {name: {"value": values[k][i]}
                                       for name, values in runs.items()}}}
         for k, side in enumerate(("parent", "change"))}
        for i in range(count)
    ]


def verdicts(**runs):
    summary = bench_pairs.summarize(pairs_of(**runs), METRICS)
    return {name: s["verdict"] for name, s in summary.items()}


def test_medians_quartiles_and_wins():
    summary = bench_pairs.summarize(pairs_of(
        ops_per_s=([100, 102, 104, 106, 108], [110, 101, 115, 120, 99]),
        setup_s=([0.040, 0.041, 0.042, 0.043, 0.044], [0.039, 0.041, 0.041, 0.050, 0.045]),
    ), METRICS)
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"median": 104, "q1": 102, "q3": 106}
    assert ops["change"]["median"] == 110
    assert (ops["change_wins"], ops["pairs"]) == (3, 5)
    # Lower is better for setup_s: pairs 1 and 3 are wins, pair 2 a tie.
    assert summary["setup_s"]["change_wins"] == 2
    assert {s["verdict"] for s in summary.values()} == {"within"}


@pytest.mark.parametrize("parent,change,want", [
    # A narrow parent spread: the median decides.
    ([100, 101, 102, 103], [80, 79, 81, 80], "within"),
    ([100, 101, 102, 103], [70, 90, 72, 71], "worse"),
    ([100, 101, 102, 103], [140, 150, 160, 170], "within"),
    # The parent's own quartiles span more than 25% of its median.
    ([60, 90, 110, 140], [95, 96, 97, 98], "unresolved"),
    ([60, 90, 110, 140], [150, 151, 152, 153], "within"),
    # Past the bound counts as worse, however wide the spread.
    ([60, 90, 110, 140], [50, 55, 60, 65], "worse"),
])
def test_verdict_higher_is_better(parent, change, want):
    assert verdicts(ops_per_s=(parent, change))["ops_per_s"] == want


def test_verdict_lower_is_better():
    # 17% slower, inside the bound, but the parent's quartiles span 31% of
    # its median: unresolved, unless every change run is faster.
    parent = [0.0380, 0.0423, 0.0552, 0.0600]
    assert verdicts(setup_s=(parent, [0.0560, 0.0570, 0.0575, 0.0580]))["setup_s"] == "unresolved"
    assert verdicts(setup_s=(parent, [0.0300, 0.0310, 0.0320, 0.0330]))["setup_s"] == "within"
    assert verdicts(setup_s=(parent, [0.0640, 0.0650, 0.0660, 0.0700]))["setup_s"] == "worse"
    narrow = [0.0500, 0.0505, 0.0510, 0.0515]
    assert verdicts(setup_s=(narrow, [0.0600, 0.0610, 0.0620, 0.0630]))["setup_s"] == "within"
    assert verdicts(setup_s=(narrow, [0.0640, 0.0650, 0.0660, 0.0700]))["setup_s"] == "worse"


@pytest.mark.parametrize("argv", [
    ["--pairs", "certfy=1"],
    ["--pairs", "certify=1", "--trace", "dusty"],
], ids=["pairs", "trace"])
def test_unknown_workload_fails_before_any_run(monkeypatch, tmp_path, capsys, argv):
    def never(*args):
        raise AssertionError("ran a workload")

    monkeypatch.setattr(bench_pairs, "run_bench", never)
    monkeypatch.setattr(bench_pairs, "setup_probe", never)
    root = _PATH.parents[1]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--parent", str(root), "--change", str(root), "--out", str(out), *argv])
    assert info.value.code == 2
    assert "unknown workload" in capsys.readouterr().err
    assert not out.exists()
