"""Compare two source trees with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py --parent ../base --change . --out BENCH_N.json \\
        --pairs certify=6 --pairs dust=4 --pairs build=4 \\
        --first-seed 191 --claim certify --trace certify --trace dust

Each tree is a checkout of the repository with its own ``perfbench/``
and ``src/``; the benchmark of each tree runs against that tree.  The
run length and each metric's direction and bound are read from the
change's ``BENCHMARK.json``, and every ``--pairs`` and ``--trace``
workload must be one of its workloads.  One pair runs ``perfbench/run.py
--workload W --seed S --seconds T`` in both trees, one after the
other: the parent first on odd seeds, the change first on even ones.
Seeds count up from ``--first-seed``, and the workloads take turns, one
pair each per round, so that a slow phase of the machine falls on every
workload alike.

Then, for every workload, PROBES rounds of set-up probes (``worker.py
setup W``, one fresh process per side per round, the parent first in
odd rounds), and one traced run per side for each ``--trace`` workload
at TRACE_SEED, the parent first.

The output mirrors ``BENCH_17.json``: per workload and metric the
median and the quartiles of each side (``statistics.quantiles`` with
``method='inclusive'``), the number of pairs the change won, that is
where it was strictly better, and the no-regression verdict against the
metric's ``bound`` in ``BENCHMARK.json`` (see ``verdict``); the raw run
lines; the probe samples; and the traced layer metrics side by side.
The verdicts are also printed, one line per workload and metric.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PROBES = 30
TRACE_SEED = 1


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its meta and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    meta, result = proc.stdout.splitlines()[-2:]
    return {"meta": json.loads(meta)["meta"], "result": json.loads(result)}


def setup_probe(tree: Path, workload: str) -> float:
    """Seconds of one ``worker.py setup`` probe in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-s", "perfbench/worker.py", "setup", workload],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """The no-regression verdict on one metric; sign is 1 where higher is
    better and -1 where lower is.  With the allowance bound * |parent
    median|:
    - "worse": the change's median is past the allowance in the bad
      direction;
    - "unresolved": otherwise, when the parent's quartile spread is wider
      than the allowance, unless every change run beats every parent run;
    - "within": otherwise."""
    p, c = spread(parent), spread(change)
    allowance = bound * abs(p["median"])
    if sign * (c["median"] - p["median"]) < -allowance:
        return "worse"
    if p["q3"] - p["q1"] > allowance and not all(sign * (b - a) > 0 for a in parent for b in change):
        return "unresolved"
    return "within"


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and
    the verdict; metrics maps a name to its BENCHMARK.json entry."""
    names = pairs[0]["parent"]["result"]["metrics"]
    summary = {}
    for name in names:
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if metrics[name]["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": wins,
            "pairs": len(pairs),
            "verdict": verdict(values["parent"], values["change"], sign, metrics[name]["bound"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", required=True, type=Path, help="the change's source tree")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=COUNT")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--claim", help="the workload whose ops_per_s the change claims")
    args = parser.parse_args(argv)
    counts = {}
    for spec in args.pairs:
        workload, _, count = spec.partition("=")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"--pairs wants WORKLOAD=COUNT, got {spec!r}")
        counts[workload] = int(count)
    if not counts:
        parser.error("give at least one --pairs WORKLOAD=COUNT")
    if args.claim is not None and args.claim not in counts:
        parser.error(f"--claim {args.claim} has no --pairs")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for w in [*counts, *args.trace]:
        if w not in workloads:
            parser.error(f"unknown workload {w!r}; BENCHMARK.json has {', '.join(workloads)}")
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    pairs = {w: [] for w in counts}
    seed = args.first_seed
    while any(len(pairs[w]) < counts[w] for w in counts):
        for w in counts:
            if len(pairs[w]) == counts[w]:
                continue
            order = SIDES if seed % 2 else SIDES[::-1]
            runs = {side: run_bench(trees[side], w, seed, seconds, 0) for side in order}
            pairs[w].append({"seed": seed, "first": order[0], **{s: runs[s] for s in SIDES}})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{s} {runs[s]['result']['metrics']['ops_per_s']['value']:.1f} ops/s" for s in SIDES),
                file=sys.stderr)
            seed += 1

    out = {
        "machine": f"{len(os.sched_getaffinity(0))}-CPU {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "commands": {
            "pairs": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                     f"in each tree, seeds from {args.first_seed} in turn over "
                     f"{', '.join(counts)}, parent first on odd seeds, change first on even seeds",
            "setup_probes": f"PYTHONPATH=src PYTHONHASHSEED=0 python3 -s perfbench/worker.py setup W, "
                            f"{PROBES} rounds, one probe per side per round, parent first in odd rounds",
            "traced": f"python3 perfbench/run.py --workload W --seed {TRACE_SEED} "
                      f"--seconds {seconds:g} --trace 1; parent first",
            "quartiles": "statistics.quantiles(values, n=4, method='inclusive')",
        },
    }
    summaries = {w: summarize(pairs[w], metrics) for w in counts}
    if args.claim is not None:
        summary = summaries[args.claim]
        s = summary["ops_per_s"]
        out["claim"] = {
            "metric": "ops_per_s",
            "workload": args.claim,
            "parent_median": s["parent"]["median"],
            "change_median": s["change"]["median"],
            "parent_iqr": s["parent"]["q3"] - s["parent"]["q1"],
            "change_wins": s["change_wins"],
            "pairs": s["pairs"],
        }
        out[f"{args.claim}_summary"] = summary
        out[f"{args.claim}_pairs"] = pairs[args.claim]
    out["other_workloads"] = {
        w: {"summary": summaries[w], "pairs": pairs[w]} for w in counts if w != args.claim
    }
    for w, summary in summaries.items():
        for name, s in summary.items():
            print(f"{w} {name}: {s['verdict']}, parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> change "
                  f"{s['change']['median']:.6g}, {s['change_wins']} of {s['pairs']} won",
                  file=sys.stderr)

    for w in counts:
        samples = {side: [] for side in SIDES}
        for r in range(1, PROBES + 1):
            for side in (SIDES if r % 2 else SIDES[::-1]):
                samples[side].append(setup_probe(trees[side], w))
        out[f"setup_probes_{w}"] = {
            **{side: spread(samples[side]) for side in SIDES},
            "samples_s": samples,
            "rounds": PROBES,
        }

    for w in args.trace:
        runs = {side: run_bench(trees[side], w, TRACE_SEED, seconds, 1) for side in SIDES}
        metrics = {side: runs[side]["result"]["metrics"] for side in SIDES}
        out[f"traced_{w}_seed{TRACE_SEED}"] = {
            "layers": {
                name: {
                    "parent": metrics["parent"][name]["value"],
                    "change": metrics["change"][name]["value"],
                    "unit": metrics["parent"][name]["unit"],
                }
                for name in metrics["parent"]
            },
            **runs,
        }

    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
