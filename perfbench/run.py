#!/usr/bin/env python3
"""Benchmark of the enumorder package, run from the root of a checkout.

    python3 perfbench/run.py --workload listings --seed 1 --seconds 30 --trace 0

One client sends the workload's fixed request list, built from --seed, pass
after pass in a closed loop, for --seconds (and for at least 200 requests
untraced), and checks every answer against one the benchmark worked out
itself.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
traced and untraced passes and reports the per-layer metrics, including the
tracing overhead.  --tiny shrinks every size, for the smoke test.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The lines above it restate the metrics with units, failed_ratio,
the sample count and the run's seed, Python version, cores and commit; the
full record, spans included when traced, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("listings", "dovetail", "oracle")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args()

    if not (SRC / "enumorder" / "__init__.py").is_file():
        print(f"error: no enumorder package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import enumorder

    if Path(enumorder.__file__).resolve().parent != (SRC / "enumorder").resolve():
        print(f"error: imported enumorder from {enumorder.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    requests = workload.requests
    gc.collect()
    gc.freeze()  # the inputs and expected answers stay out of every collection
    setup_failures = []
    if not args.trace:
        setup_times, setup_probes, setup_failures = harness.measure_setup(
            ROOT, workload.setup_argv, workload.setup_check, 3 if args.tiny else SETUP_REPEATS
        )
    passes = harness.run_passes(requests, args.seconds, bool(args.trace), workload.cross_check)
    failures = [(p, rid, reason) for p, run in enumerate(passes) for rid, reason in run.failures]

    failed_requests = {(p, rid) for p, rid, _ in failures}
    unexpected = [f for f in failures if not requests[f[1]].known_offender]
    attempted = len(passes) * len(requests)
    if args.trace:
        values = metrics.per_layer(requests, passes, harness.PROBE_REF_S)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = metrics.end_to_end(passes, setup_times, setup_probes, rss_mb, harness.PROBE_REF_S)
        raw = metrics.end_to_end(passes, setup_times, setup_probes, rss_mb)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "latency_samples": attempted,
    }
    failure_summary = Counter(f"{requests[rid].label}: {reason}" for _, rid, reason in failures)
    record = {
        "meta": meta,
        "metrics": {name: {"value": v, "unit": metrics.UNITS[name]} for name, v in values.items()},
        "failed_ratio": len(failed_requests) / attempted,
        "failures": dict(failure_summary),
        "setup_failures": setup_failures,
        "counters_per_pass": [run.counters for run in passes],
        "pass_walls_s": [p.wall for p in passes],
        "pass_traced": [p.spans is not None for p in passes],
        "request_labels": [r.label for r in requests],
        "pass_latencies_s": [p.latencies for p in passes],
    }
    if not args.trace:
        record["raw"] = raw
        record["pass_probes_s"] = [p.probes for p in passes]
        record["setup_times_s"] = setup_times
        record["setup_probes_s"] = setup_probes
    else:
        record["spans"] = [p.spans for p in passes if p.spans is not None]
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print("run: " + json.dumps(meta))
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {metrics.UNITS[key]}")
    if not args.trace:
        print("  raw host seconds, not metrics: " + ", ".join(
            f"{key} = {value:.6g} {metrics.UNITS[key]}" for key, value in raw.items()))
    print(f"  failed_ratio = {record['failed_ratio']:.6g} ratio ({len(failed_requests)} of {attempted})")
    for line, times in failure_summary.items():
        print(f"  failed x{times}: {line}")
    for line in setup_failures:
        print(f"  failed: {line}")
    result = {
        "correct": not unexpected and not setup_failures,
        "attempted": attempted,
        "failed": len(failed_requests),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
