"""Benchmark of cantorquant: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 32 --trace 0

Run it from the root of a source tree; it benchmarks that tree's
``src/``.  Every workload runs in fresh Python processes started one at
a time: a few set-up probes, then one process that runs the workload
(see ``worker.py``).  With ``--trace 0`` the last line of output holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  The line before it records the conditions of the run.
Results and spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("certify", "dust", "build")
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole run, set-up probes included, ends within this


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from the files of ``.git``; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    """SHA-256 over the paths and bytes of every Python file under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _child(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; its stdout's last line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def latency_metrics(latencies: list[float]) -> dict:
    """Median and 90th percentile of op latencies, in milliseconds."""
    ordered = sorted(latencies)
    p90 = statistics.quantiles(ordered, n=10)[-1] if len(ordered) > 1 else ordered[0]
    return {"op_p50_ms": statistics.median(ordered) * 1000, "op_p90_ms": p90 * 1000}


def end_to_end(result: dict, setup_s: float) -> dict:
    attempted = result["attempted"]
    return {
        "ops_per_s": (attempted / result["elapsed_s"], "1/s"),
        **{name: (value, "ms") for name, value in latency_metrics(result["latencies_s"]).items()},
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "passed_share": ((attempted - result["failed"]) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cantorquant benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cantorquant" / "__init__.py").is_file():
        print(f"no cantorquant package under {SRC}: run from the root of a source tree", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{tag}.json"
    try:
        probes = [_child(["setup", args.workload], deadline) for _ in range(SETUP_PROBES)]
        result = _child(
            ["run", args.workload, str(args.seed), str(args.seconds), str(args.trace), str(spans_path)],
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    setup_samples = [probe["setup_s"] for probe in probes]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, statistics.median(setup_samples))
    meta = {
        "workload": args.workload,
        "why": result["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": result["attempted"],
        "failed_share": result["failed"] / result["attempted"],
        "python": result["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(SRC),
        "module": result["module"],
        "setup_samples_s": setup_samples,
    }
    if args.trace:
        meta["layer_shares"] = result["layer_shares"]
        meta["spans"] = str(spans_path.relative_to(ROOT))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({"meta": meta, "result": line}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
