"""One workload process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE SPANS_PATH

``setup`` times the import of the package and the first call of every
op kind on a tiny input.  ``run`` with TRACE 0 runs the workload's ops
in a closed loop for SECONDS and reports latencies and throughput.
With TRACE 1 it runs a fixed, seed-determined list of ops twice, once
untraced and once traced, in alternating order; the traced pass gives
the per-layer metrics, the pair gives the tracing overhead, and the
spans go to SPANS_PATH.  Both modes print one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path

from tracing import NULL_TRACER, Tracer, root_seconds, self_times, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC_PACKAGE = ROOT / "src" / "cantorquant"

# Layer spans the traced run reports, whether or not a workload calls them.
SPAN_NAMES = (
    "engine.certify",
    "engine.fixedpoint",
    "engine.enclose",
    "optimal.unrank",
    "optimal.assemble",
    "optimal.rank",
    "plot.render",
    "cli.optimal",
)
ROOT_SPAN = "bench.check"  # an op's root: its self time is the benchmark's own cost
COUNTERS = (
    "engine.partition_cells",
    "engine.enclose.exact",
    "plot.render.bytes",
    "cli.optimal.bytes",
)


def _import_package():
    import cantorquant
    import cantorquant.cli  # noqa: F401  # the build workload calls it

    found = Path(cantorquant.__file__).resolve().parent
    if found != SRC_PACKAGE.resolve():
        sys.exit(f"imported cantorquant from {found}, not from the tree under test {SRC_PACKAGE}")
    return found


def _attempt(workload, tracer, inp):
    """Run one op, then its check: (output, op seconds, passed).

    An exception in the op or the check fails the op; the loop goes on.
    """
    t0 = time.perf_counter()
    try:
        out = workload.op(tracer, inp)
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - t0, False
    seconds = time.perf_counter() - t0
    try:
        return out, seconds, bool(workload.check(inp, out))
    except Exception:
        traceback.print_exc()
        return out, seconds, False


def setup(name: str) -> dict:
    start = time.perf_counter()
    module = _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    for inp in workload.warm:
        workload.op(NULL_TRACER, inp)
    return {"setup_s": time.perf_counter() - start, "module": str(module)}


def measure(workload, seed: int, seconds: float) -> dict:
    """Closed loop for ``seconds``: op latencies, throughput, failures."""
    stream = workload.inputs(random.Random(seed))
    latencies = []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while not latencies or time.perf_counter() < deadline:
        _, op_s, ok = _attempt(workload, NULL_TRACER, next(stream))
        latencies.append(op_s)
        failed += not ok
    elapsed = time.perf_counter() - start
    return {"latencies_s": latencies, "elapsed_s": elapsed, "attempted": len(latencies), "failed": failed}


def trace(workload, seed: int, seconds: float) -> tuple[dict, list]:
    """Fixed op list, run untraced and traced; per-layer metrics and spans."""
    count = max(1, round(seconds * workload.traced_ops_per_s))
    inputs = list(islice(workload.inputs(random.Random(seed)), count))
    tracer = Tracer()
    counts = Counter()
    untraced_s = 0.0
    failed = 0

    def untraced(inp) -> float:
        t0 = time.perf_counter()
        _attempt(workload, NULL_TRACER, inp)  # op and check, as in the traced pass
        return time.perf_counter() - t0

    for op_id, inp in enumerate(inputs):
        # Alternate which pass goes first, so that neither gains from the other.
        if op_id % 2 == 0:
            untraced_s += untraced(inp)
        tracer.op = op_id
        with tracer.span(ROOT_SPAN):
            out, _, ok = _attempt(workload, tracer, inp)
        if op_id % 2 == 1:
            untraced_s += untraced(inp)
        failed += not ok
        if ok:
            workload.count(counts, inp, out)
    spans = tracer.spans
    return {
        "attempted": len(inputs),
        "failed": failed,
        "counts": dict(counts),
        "self_times": self_times(spans),
        "traced_s": root_seconds(spans),
        "untraced_s": untraced_s,
    }, spans


def layer_metrics(result: dict) -> dict:
    """The per-layer metrics of a traced run, every name always present."""
    times = result["self_times"]
    counts = result["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        calls, seconds = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (seconds, "s")
    metrics["bench.check.self_s"] = (times.get(ROOT_SPAN, (0, 0.0))[1], "s")
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    metrics["trace.overhead_share"] = (result["traced_s"] / result["untraced_s"] - 1.0, "ratio")
    return metrics


def layer_shares(result: dict) -> dict:
    """Each layer's share of traced op time, from the spans' self times."""
    shares = Counter()
    for name, (_, seconds) in result["self_times"].items():
        shares[name.split(".")[0]] += seconds / result["traced_s"]
    return dict(shares)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p = sub.add_parser("run")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int, choices=(0, 1))
    p.add_argument("spans_path")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        print(json.dumps(setup(args.workload)))
        return 0
    module = _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        result, spans = trace(workload, args.seed, args.seconds)
        write_spans(args.spans_path, spans)
        out = {k: result[k] for k in ("attempted", "failed")}
        out["layers"] = layer_metrics(result)
        out["layer_shares"] = layer_shares(result)
    else:
        out = measure(workload, args.seed, args.seconds)
    out["why"] = workload.why
    out["module"] = str(module)
    out["python"] = sys.version.split()[0]
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
