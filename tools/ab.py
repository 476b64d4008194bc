"""Replay the benchmark's ops on two source trees in one process, in turns.

    python3 tools/ab.py --parent ../base --change . \\
        --ops certify=1000 --ops dust=500 --rounds 11 --seed 1

Each tree is a checkout of the repository.  Its ``perfbench/workloads.py``
and the ``cantorquant`` under its ``src/`` are imported as module
objects of their own, so both versions live side by side in this
process.  For every ``--ops WORKLOAD=COUNT`` each side builds the first
COUNT inputs of the workload's stream from ``random.Random(seed)``, its
own objects from the same draws.  A round runs every op and its check
once on each side, the parent first in odd rounds, and times each side
with ``time.process_time``, so the two versions meet the same phases of
the machine.  Every workload must be one of the change tree's
``BENCHMARK.json``.

Per workload it prints the ratio parent time / change time (above 1
when the change is faster): the median, the minimum and the maximum
over the rounds, the rounds the change was faster, and the ops whose
check failed, which make it exit 1.  ``--rounds 0`` runs every op and
check once per side and times nothing.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

SIDES = ("parent", "change")


class NullTracer:
    """The benchmark's untraced tracer: every span does nothing."""

    _NOTHING = contextlib.nullcontext()

    def span(self, name):
        return self._NOTHING


def _ours(name: str) -> bool:
    return name in ("workloads", "cantorquant") or name.startswith("cantorquant.")


def load_workloads(tree: Path) -> dict:
    """The WORKLOADS of tree's perfbench/workloads.py, bound to tree's
    cantorquant; sys.modules and sys.path are left as they were."""
    saved_path, saved = sys.path[:], {n: m for n, m in sys.modules.items() if _ours(n)}
    for name in saved:
        del sys.modules[name]
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    try:
        module = importlib.import_module("workloads")
        found = Path(sys.modules["cantorquant"].__file__).resolve().parent
        if found != (tree / "src" / "cantorquant").resolve():
            raise RuntimeError(f"imported cantorquant from {found}, not from {tree}")
        return module.WORKLOADS
    finally:
        sys.path[:] = saved_path
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def replay(workload, inputs: list) -> tuple[float, int]:
    """Process seconds to run every op and its check, and the checks failed."""
    tracer, failed = NullTracer(), 0
    start = time.process_time()
    for inp in inputs:
        failed += not workload.check(inp, workload.op(tracer, inp))
    return time.process_time() - start, failed


def compare(sides: dict, name: str, count: int, rounds: int, seed: int) -> dict:
    """Both sides' process seconds per round, their failed checks, and the
    ratio parent / change per round: its median, minimum and maximum, and
    the rounds the change won."""
    workloads = {side: sides[side][name] for side in SIDES}
    inputs = {side: list(islice(w.inputs(random.Random(seed)), count)) for side, w in workloads.items()}
    times = {side: [] for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    for r in range(1, max(rounds, 1) + 1):
        for side in (SIDES if r % 2 else SIDES[::-1]):
            seconds, bad = replay(workloads[side], inputs[side])
            times[side].append(seconds)
            failed[side] += bad
    ratios = [p / c for p, c in zip(times["parent"], times["change"])]
    return {
        "failed": failed, "seconds": times,
        "median": statistics.median(ratios), "min": min(ratios), "max": max(ratios),
        "change_wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", required=True, type=Path, help="the change's source tree")
    parser.add_argument("--ops", action="append", default=[], metavar="WORKLOAD=COUNT")
    parser.add_argument("--rounds", type=int, default=11, help="timed rounds; 0 checks only")
    parser.add_argument("--seed", type=int, default=1, help="seed of every input stream")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    counts = {}
    for item in args.ops:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"--ops wants WORKLOAD=COUNT, got {item!r}")
        if name not in known:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json has {', '.join(known)}")
        counts[name] = int(count)
    if not counts:
        parser.error("give at least one --ops WORKLOAD=COUNT")
    if args.rounds < 0:
        parser.error(f"--rounds must be >= 0, got {args.rounds}")

    sides = {side: load_workloads(tree) for side, tree in trees.items()}
    failures = 0
    for name, count in counts.items():
        res = compare(sides, name, count, args.rounds, args.seed)
        failures += sum(res["failed"].values())
        checks = f"failed checks: parent {res['failed']['parent']}, change {res['failed']['change']}"
        if args.rounds == 0:
            print(f"{name}: {count} ops, seed {args.seed}, {checks}")
            continue
        print(f"{name}: {count} ops, seed {args.seed}, parent/change process time over "
              f"{args.rounds} rounds: median {res['median']:.3f} [min {res['min']:.3f}, "
              f"max {res['max']:.3f}], change faster in {res['change_wins']} of {args.rounds}; "
              f"{checks}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
