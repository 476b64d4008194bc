"""Tests of the benchmark itself: inputs, span arithmetic, checks, output.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import run
import worker
import workloads
from tracing import Span, Tracer, root_seconds, self_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    stream = WORKLOADS[name].inputs
    first = list(islice(stream(random.Random(7)), 40))
    assert first == list(islice(stream(random.Random(7)), 40))
    assert first != list(islice(stream(random.Random(8)), 40))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_counts(name):
    workload = WORKLOADS[name]
    first, _ = worker.trace(workload, 3, 0.5)
    again, _ = worker.trace(workload, 3, 0.5)
    assert first["failed"] == 0
    assert first["counts"] == again["counts"]
    assert {k: v[0] for k, v in first["self_times"].items()} == {k: v[0] for k, v in again["self_times"].items()}


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        Span("bench.check", 0.0, 10.0, None, 0),
        Span("optimal.unrank", 1.0, 3.0, 0, 0),
        Span("engine.certify", 3.0, 9.0, 0, 0),
        Span("moments.inner", 4.0, 6.5, 2, 0),
        Span("bench.check", 10.0, 12.0, None, 1),
        Span("engine.certify", 10.5, 11.0, 4, 1),
    ]
    assert self_times(spans) == {
        "bench.check": (2, 2.0 + 1.5),
        "optimal.unrank": (1, 2.0),
        "engine.certify": (2, 3.5 + 0.5),
        "moments.inner": (1, 2.5),
    }
    assert root_seconds(spans) == 12.0


def test_tracer_links_children_to_their_parent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("root", None), ("a", 0), ("b", 0), ("c", 2)]
    assert self_times(tracer.spans)["root"] == (1, 7.0 - 4.0)


@pytest.mark.parametrize("name", ["certify", "dust"])
def test_a_wrong_expected_value_counts_as_failed(name, monkeypatch):
    monkeypatch.setattr(workloads, "quantization_error", lambda n: Fraction(10**6))
    result = worker.measure(WORKLOADS[name], 5, 0.05)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    metrics = run.end_to_end(dict(result, peak_rss_kb=1024), 0.1)
    assert metrics["passed_share"] == (0.0, "ratio")


def test_latency_percentiles():
    samples = [i / 1000 for i in range(1, 101)]
    metrics = run.latency_metrics(samples)
    assert metrics["op_p50_ms"] == pytest.approx(50.5)
    assert metrics["op_p90_ms"] == pytest.approx(90.9)


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_named_metric(name, trace):
    proc = _bench(["--workload", name, "--seed", "11", "--seconds", "0.5", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    assert meta["module"] == str((ROOT / "src" / "cantorquant").resolve())
    assert meta["seed"] == 11
    assert meta["why"] == WORKLOADS[name].why == next(w["why"] for w in SPEC["workloads"] if w["name"] == name)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
