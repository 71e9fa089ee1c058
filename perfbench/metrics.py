"""Metric names, units and what each should move; computed from passes.

BENCHMARK.json lists the same names.  `moves` records, before any change is
measured, which end-to-end metric on which workload a per-layer metric should
move.  Busy times and counts are per pass (one run of the fixed request
list), medians over the run's traced passes; counts repeat exactly.  A layer
the workload leaves idle reads 0, and so does an exponent with fewer than two
sizes to fit.  Times are in reference seconds (see `end_to_end`).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, List, Optional

from reference import ORACLE_N

END_TO_END = [
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    # name, unit, better, moves
    ("prefixes.leq_eo.busy_s", "s", "lower", "wall_s, latency_p95_ms on listings"),
    ("prefixes.leq_eo.calls", "count", "lower", "wall_s, latency_p95_ms on listings"),
    ("prefixes.leq_eo.scaling_exp", "exponent", "lower", "wall_s, latency_p95_ms on listings"),
    ("prefixes.equiv_eo.busy_s", "s", "lower", "latency_p95_ms on listings"),
    ("prefixes.equiv_eo.scaling_exp", "exponent", "lower", "latency_p95_ms on listings"),
    ("prefixes.standardize.busy_s", "s", "lower", "latency_p50_ms on listings"),
    ("prefixes.make_prefix.busy_s", "s", "lower", "latency_p50_ms on listings"),
    ("algebra.transport.busy_s", "s", "lower", "latency_p95_ms on listings"),
    ("algebra.transport.scaling_exp", "exponent", "lower", "latency_p95_ms on listings"),
    ("algebra.chain_stabilize.busy_s", "s", "lower", "wall_s on listings"),
    ("algebra.make_strict_chain.busy_s", "s", "lower", "wall_s on listings"),
    ("extraction.make_paired.busy_s", "s", "lower", "latency_p95_ms on listings"),
    ("extraction.make_paired.scaling_exp", "exponent", "lower", "latency_p95_ms on listings"),
    ("extraction.decide_membership.busy_s", "s", "lower", "latency_p50_ms on listings"),
    ("extraction.predecessor.busy_s", "s", "lower", "latency_p50_ms on listings"),
    ("extraction.check_inverse_positions.busy_s", "s", "lower", "latency_p50_ms on listings"),
    ("extraction.decided_ratio", "ratio", "higher", "nothing: fixed by the inputs"),
    ("enumerators.collatz.busy_s", "s", "lower", "wall_s on dovetail"),
    ("enumerators.rm.busy_s", "s", "lower", "wall_s on dovetail"),
    ("enumerators.short.busy_s", "s", "lower", "latency_p50_ms on dovetail"),
    ("enumerators.drain.busy_s", "s", "lower", "wall_s, latency_p95_ms on dovetail"),
    ("enumerators.emitted", "count", "higher", "nothing: fixed by the inputs"),
    ("enumerators.emitted_per_s", "1/s", "higher", "wall_s on dovetail"),
    ("enumerators.budget_scaling_exp", "exponent", "lower", "latency_p50_ms on dovetail"),
    *[(f"oracle.{pid}.busy_s", "s", "lower", "wall_s on oracle") for pid in ORACLE_N],
    ("oracle.instances", "count", "higher", "nothing: fixed by the pinned sizes"),
    ("oracle.instances_per_s", "1/s", "higher", "wall_s on oracle"),
    ("cli.main.busy_s", "s", "lower", "latency_p50_ms on listings"),
    ("cli.main.calls", "count", "lower", "latency_p50_ms on listings"),
    ("cli.unexpected_exit", "count", "lower", "failed_ratio on listings"),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# call-level exponents: span name -> metric, fitted against the request size
SCALING = {
    "prefixes.leq_eo": "prefixes.leq_eo.scaling_exp",
    "prefixes.equiv_eo": "prefixes.equiv_eo.scaling_exp",
    "algebra.transport": "algebra.transport.scaling_exp",
    "extraction.make_paired": "extraction.make_paired.scaling_exp",
}


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


PROBE_WINDOW = 3  # probes read on each side of a request


def slowdowns(passes, probe_ref_s: float) -> List[List[float]]:
    """How many times slower than the reference host each request ran.

    The probe runs before every request, so the host's speed while request
    g ran is read from the probes g-2 .. g+3 around it, across passes: the
    mean of their times over the probe's time on the reference host.
    """
    flat = [x for p in passes for x in p.probes]
    out, g = [], 0
    for p in passes:
        row = []
        for _ in p.latencies:
            window = flat[max(g - PROBE_WINDOW + 1, 0): g + PROBE_WINDOW + 1]
            row.append(statistics.fmean(window) / probe_ref_s)
            g += 1
        out.append(row)
    return out


def end_to_end(passes, setup_times, setup_probes, peak_rss_mb: float,
               probe_ref_s: Optional[float] = None) -> Dict[str, float]:
    """The end-to-end metrics, in reference seconds when `probe_ref_s` is given.

    On a shared host the CPU's speed drifts by up to 2x over seconds to
    minutes, from load the benchmark cannot see.  Each latency is divided by
    the host's slowdown around it, and each cold set-up run by the slowdown
    the probes around it read, so a figure says how long the work would take
    on the reference host.  Without `probe_ref_s`, the raw host seconds.
    """
    if probe_ref_s:
        slow = slowdowns(passes, probe_ref_s)
        setup_slow = [pr / probe_ref_s for pr in setup_probes]
    else:
        slow = [[1.0] * len(p.latencies) for p in passes]
        setup_slow = [1.0] * len(setup_times)
    runs = [[x / k for x, k in zip(p.latencies, ks)] for p, ks in zip(passes, slow)]
    latencies = [x for run in runs for x in run]
    return {
        "wall_s": statistics.median(sum(run) for run in runs),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "setup_s": statistics.median(t / k for t, k in zip(setup_times, setup_slow)),
        "peak_rss_mb": peak_rss_mb,
    }


def loglog_slope(samples) -> float:
    """Pooled slope of log(median time) on log(x), one intercept per group.

    `samples` maps (group, x) to durations; 0 when no group has two sizes.
    """
    groups = defaultdict(list)
    for (group, x), durations in samples.items():
        groups[group].append((math.log(x), math.log(max(statistics.median(durations), 1e-9))))
    sxx = sxy = 0.0
    for points in groups.values():
        if len(points) < 2:
            continue
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx if sxx else 0.0


def _keys(name: str, req) -> List[str]:
    """Metric keys a span's duration counts towards."""
    if name == "enumerators.take_prefix":
        return [name, f"enumerators.{req.meta['model']}", f"enumerators.{req.kind}"]
    if name == "oracle.run_property":
        return [name, f"oracle.{req.meta['property']}"]
    return [name]


def per_layer(requests, passes, probe_ref_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced passes; times in reference seconds,
    each span divided by the slowdown of the request it belongs to."""
    slow = slowdowns(passes, probe_ref_s)
    traced = [(p, ks) for p, ks in zip(passes, slow) if p.spans is not None]
    untraced = [(p, ks) for p, ks in zip(passes, slow) if p.spans is None]
    busy = []
    calls = defaultdict(int)
    scaling = defaultdict(lambda: defaultdict(list))
    budget = defaultdict(list)
    for index, (run, ks) in enumerate(traced):
        totals = defaultdict(float)
        ordinal = defaultdict(int)
        for name, start, end, parent, rid in run.spans:
            if parent is None:
                continue
            req = requests[rid]
            duration = (end - start) / ks[rid]
            for key in _keys(name, req):
                totals[key] += duration
            if index == 0:
                calls[name] += 1
            ordinal[rid, name] += 1
            if name in SCALING and req.n > 0:
                scaling[name][(req.kind, ordinal[rid, name]), req.n].append(duration)
            if name == "enumerators.take_prefix" and req.kind == "short":
                budget[(req.meta["model"], req.meta["length"]), req.meta["budget"]].append(duration)
        busy.append(totals)

    def wall(group) -> float:
        return statistics.median(sum(x / k for x, k in zip(p.latencies, ks)) for p, ks in group)

    def med(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in busy)

    count = passes[0].counters
    out = {name: med(name[: -len(".busy_s")]) for name, *_ in PER_LAYER if name.endswith(".busy_s")}
    out["prefixes.leq_eo.calls"] = calls["prefixes.leq_eo"]
    out["cli.main.calls"] = calls["cli.main"]
    for span, metric in SCALING.items():
        out[metric] = loglog_slope(scaling[span])
    out["enumerators.budget_scaling_exp"] = loglog_slope(budget)
    decide_calls = count.get("extraction.decide_calls", 0)
    out["extraction.decided_ratio"] = count.get("extraction.decided", 0) / decide_calls if decide_calls else 0.0
    out["enumerators.emitted"] = count.get("enumerators.emitted", 0)
    take = med("enumerators.take_prefix")
    out["enumerators.emitted_per_s"] = out["enumerators.emitted"] / take if take else 0.0
    out["oracle.instances"] = count.get("oracle.instances", 0)
    checked = med("oracle.run_property")
    out["oracle.instances_per_s"] = out["oracle.instances"] / checked if checked else 0.0
    out["cli.unexpected_exit"] = count.get("cli.unexpected_exit", 0)
    out["trace.overhead_s"] = wall(traced) - wall(untraced)
    return {name: out[name] for name, *_ in PER_LAYER}
