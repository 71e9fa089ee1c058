"""Closed-loop driver: one client runs a fixed request list pass after pass.

Every call the benchmark makes into the package goes through a tracer.  The
untraced tracer just calls; the traced one also keeps a span (name, start,
end, parent, request id) in memory per call, around the public function of
each module, so a layer's busy time is inclusive of what that function calls.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

MIN_REQUESTS = 200  # so that ten samples lie beyond the 95th percentile
MAX_RUN_S = 120.0  # start no pass after this, whatever --seconds says
PROBE_VALUES = [random.Random(0).random() for _ in range(6000)]
PROBE_REF_S = 1e-3  # the reference host is one on which the probe takes 1 ms


def probe() -> float:
    """Seconds a fixed piece of plain-Python work takes: the host's speed now."""
    gc.disable()
    start = time.perf_counter()
    rank = {v: i for i, v in enumerate(sorted(PROBE_VALUES))}
    sum(rank[v] for v in PROBE_VALUES)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


@dataclass
class Request:
    """One client request: package calls, the answer it must give, its counters."""

    kind: str
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    n: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    count: Optional[Callable[[Any], Dict[str, int]]] = None
    known_offender: bool = False


@dataclass
class Raised:
    """Output of a request whose package call raised."""

    error: str


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class NullTracer:
    def __call__(self, fn, *args):
        return fn(*args)

    def open(self, rid: int, kind: str, start: float) -> None:
        pass

    def close(self, end: float) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: List[list] = []
        self._parent: Optional[int] = None
        self._request: Optional[int] = None

    def __call__(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append([span_name(fn), start, end, self._parent, self._request])

    def open(self, rid: int, kind: str, start: float) -> None:
        self._parent, self._request = len(self.spans), rid
        self.spans.append([f"request.{kind}", start, None, None, rid])

    def close(self, end: float) -> None:
        self.spans[self._parent][2] = end
        self._parent = self._request = None


@dataclass
class Pass:
    wall: float
    latencies: List[float]
    failures: List[tuple]  # (request index, reason)
    counters: Dict[str, int]
    probes: List[float]
    spans: Optional[List[list]] = None


def run_pass(requests: List[Request], traced: bool, cross_check=None) -> Pass:
    """Send every request once, then check the answers outside the timing."""
    tracer = Tracer() if traced else NullTracer()
    latencies, outputs, probes = [], [], []
    for rid, req in enumerate(requests):
        probes.append(probe())
        start = time.perf_counter()
        tracer.open(rid, req.kind, start)
        try:
            out = req.run(tracer)
        except Exception as exc:  # a failed request is counted, the run goes on
            out = Raised(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        tracer.close(end)
        latencies.append(end - start)
        outputs.append(out)
    wall = sum(latencies)

    failures = []
    counters: Dict[str, int] = {}
    for rid, (req, out) in enumerate(zip(requests, outputs)):
        try:
            reason = out.error if isinstance(out, Raised) else req.check(out)
        except Exception as exc:  # an output of the wrong shape is a wrong answer
            reason = f"unexpected output ({type(exc).__name__}: {exc})"
        if reason:
            failures.append((rid, reason))
        if req.count and not isinstance(out, Raised):
            for key, value in req.count(out).items():
                counters[key] = counters.get(key, 0) + value
    if cross_check:
        failures += list(cross_check(requests, outputs))
    return Pass(wall, latencies, failures, counters, probes, tracer.spans if traced else None)


def run_passes(requests: List[Request], seconds: float, traced: bool, cross_check=None) -> List[Pass]:
    """Untraced: passes until `seconds` and MIN_REQUESTS are both reached.

    Traced: alternate traced and untraced passes until `seconds`, so the
    run can report its own overhead.
    """
    passes: List[Pass] = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if traced:
            done = elapsed >= seconds and len(passes) >= 2
        else:
            done = elapsed >= seconds and len(passes) * len(requests) >= MIN_REQUESTS
        if done or (passes and elapsed + passes[-1].wall > MAX_RUN_S):
            return passes
        passes.append(run_pass(requests, traced and len(passes) % 2 == 0, cross_check))


def measure_setup(root, argv: List[str], check, repeats: int):
    """Wall times of `repeats` cold `python -m enumorder.cli` runs answering `argv`.

    One unmeasured run first leaves compiled bytecode behind, as any
    installed package has.  Returns (seconds of each run, the probe's mean
    time around each run, failure reasons).
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "enumorder.cli", *argv]
    times, probes, failures = [], [], []
    for i in range(repeats + 1):
        around = [probe() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if i:
            times.append(elapsed)
            probes.append(statistics.fmean(around + [probe() for _ in range(3)]))
        reason = check(proc.returncode, proc.stdout)
        if reason:
            failures.append(f"setup {' '.join(argv)}: {reason}")
    return times, probes, failures
