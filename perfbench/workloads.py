"""The three workloads, each a fixed request list built from a seed.

Every request carries the answer it must give, worked out by `reference`
before any timing starts.  The seed draws the listings and the order of the
requests; sizes, budgets and the request mix are fixed, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from enumorder import algebra, cli, enumerators, extraction, oracle, prefixes

import reference as ref
from harness import Request


@dataclass
class Workload:
    requests: List[Request]
    setup_argv: List[str]
    setup_check: Callable[[int, str], Optional[str]]
    cross_check: Optional[Callable] = None


def _expect(got, want) -> Optional[str]:
    return None if got == want else f"got {_short(got)}, expected {_short(want)}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


# --- the CLI, in-process --------------------------------------------------

@dataclass
class CliOutcome:
    code: int
    stdout: str
    raised: Optional[str]


def run_cli(tracer, argv: List[str]) -> CliOutcome:
    out = io.StringIO()
    raised = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = tracer(cli.main, argv)
        except Exception as exc:  # escapes main: a traceback and exit 1 for a user
            code, raised = 1, f"{type(exc).__name__}: {exc}"
    return CliOutcome(code, out.getvalue(), raised)


def cli_request(label: str, argv: List[str], code: int, check_json=None, n=0,
                known_offender=False) -> Request:
    """A cli.main request expecting exit `code` and, on exit 0, JSON lines
    that `check_json` accepts."""

    def check(outcome: CliOutcome) -> Optional[str]:
        if outcome.raised:
            return f"raised {outcome.raised} (exit 1), expected exit {code}"
        if outcome.code != code:
            return f"exit {outcome.code}, expected {code}"
        if check_json:
            try:
                lines = [json.loads(line) for line in outcome.stdout.splitlines()]
            except json.JSONDecodeError as exc:
                return f"stdout is not JSON lines: {exc}"
            return check_json(lines)
        return None

    def count(outcome: CliOutcome) -> Dict[str, int]:
        return {"cli.unexpected_exit": int(bool(outcome.raised) or outcome.code != code)}

    return Request("cli", label, lambda tr: run_cli(tr, argv), check, n=n,
                   count=count, known_offender=known_offender)


def _one_line(want: dict):
    return lambda lines: _expect(lines, [want])


# --- listings -------------------------------------------------------------

LISTING_SIZES = [256, 512, 1024, 2048, 4096]
CHAIN_SIZES = [8, 16, 24]
TINY_LISTING_SIZES = [8, 16, 32, 48, 64]
TINY_CHAIN_SIZES = [4, 5, 6]

# inputs known to escape cli.main as ValueError (exit 1) instead of exiting 2;
# they count as failed requests, but not against `correct`
KNOWN_OFFENDERS = [
    ["enumerate", "nminus:²"],
    ["enumerate", "even", "--prefix-len", "-1"],
    ["chain-make", "--n", "0"],
]


def _prefix(tr, values):
    return tr(prefixes.make_prefix, values)


def _compare_inputs(rng, n):
    """f <=eo g holds; g <=eo f fails first at the planted pair, near n/8."""
    v = ref.random_values(rng, n)
    fr, gr, least = ref.planted_pair(rng, n, at=n // 8)
    return ref.realize(fr, v), ref.realize(gr, v), least


def _compare(rng, n) -> Request:
    f, g, least = _compare_inputs(rng, n)

    def run(tr):
        pf, pg = _prefix(tr, f), _prefix(tr, g)
        return tr(prefixes.leq_eo, pf, pg).fail_at, tr(prefixes.leq_eo, pg, pf).fail_at

    return Request("compare", f"compare n={n}", run, lambda out: _expect(out, (None, least)), n=n)


def _equiv(rng, n) -> Request:
    ranks = ref.random_ranks(rng, n)
    f = ref.realize(ranks, ref.random_values(rng, n))
    g = ref.realize(ranks, ref.random_values(rng, n))

    def run(tr):
        return tr(prefixes.equiv_eo, _prefix(tr, f), _prefix(tr, g))

    return Request("equiv", f"equiv n={n}", run, lambda out: _expect(out, True), n=n)


def _pattern(rng, n) -> Request:
    ranks = tuple(ref.random_ranks(rng, n))
    f = ref.realize(ranks, ref.random_values(rng, n))

    def run(tr):
        return tr(prefixes.standardize, _prefix(tr, f)).ranks

    return Request("pattern", f"pattern n={n}", run, lambda out: _expect(out, ranks), n=n)


def _transport_inputs(rng, n):
    """h and h' over V; g' is h' relabelled onto W, so the result is h relabelled."""
    v, w = ref.random_values(rng, n), ref.random_values(rng, n)
    hr, hpr = ref.random_ranks(rng, n), ref.random_ranks(rng, n)
    return ref.realize(hr, v), ref.realize(hpr, v), ref.realize(hpr, w), ref.realize(hr, w)


def _transport(rng, n) -> Request:
    h, hp, gp, want = _transport_inputs(rng, n)

    def run(tr):
        return tr(algebra.transport, _prefix(tr, h), _prefix(tr, hp), _prefix(tr, gp)).values

    return Request("transport", f"transport n={n}", run, lambda out: _expect(out, want), n=n)


def _extract(rng, n) -> Request:
    a = ref.random_values(rng, n, low=2)
    m = rng.randint(1, a[0] - 1)
    ranks = ref.random_ranks(rng, n)
    top = ranks.index(1)
    ranks[0], ranks[top] = 1, ranks[0]
    # a non-member just above a[k - 1], so its descent lists a[k - 1] .. a[0]
    k = next((k for k in range(max(n // 8, 1), n) if a[k] - a[k - 1] >= 2), None)
    x_out, descent = (a[k - 1] + 1, tuple(reversed(a[:k]))) if k else (m, ())
    probes = [a[n // 2], x_out, a[-1] + 1]
    above = a[(3 * n) // 4]
    want = (
        ref.realize(ranks, sorted(a + [m])),
        ref.realize(ranks, a),
        [("in", ()), ("out", descent), ("insufficient", ())],
        a[(3 * n) // 4 - 1],
    )

    def run(tr):
        sample = prefixes.SetSample(frozenset(a), a[-1])
        pair = tr(extraction.make_paired, sample, m, prefixes.Pattern(tuple(ranks)))
        reports = [tr(extraction.decide_membership, pair, x) for x in probes]
        return (
            pair.f.values,
            pair.g.values,
            [(r.result.value, r.descent) for r in reports],
            tr(extraction.predecessor, pair, above),
        )

    def count(out):
        decided = sum(result in ("in", "out") for result, _ in out[2])
        return {"extraction.decided": decided, "extraction.decide_calls": len(out[2])}

    return Request("extract", f"extract n={n}", run, lambda out: _expect(out, want), n=n,
                   count=count)


def _lemma8_inputs(rng, n):
    v = ref.random_values(rng, n)
    fr, gr = ref.rank_planted_pair(rng, n, at=n // 4)
    f, g = ref.realize(fr, v), ref.realize(gr, v)
    return f, g, ref.inverse_position_summary(f, g)


def _lemma8(rng, n) -> Request:
    f, g, want = _lemma8_inputs(rng, n)

    def run(tr):
        report = tr(extraction.check_inverse_positions, _prefix(tr, f), _prefix(tr, g))
        held = sum(e.premise_held for e in report.clause2)
        return report.all_hold, report.clause1.fpos, report.clause1.gpos, held

    return Request("lemma8", f"lemma8 n={n}", run, lambda out: _expect(out, (True, *want)), n=n)


def _stabilize(rng, n) -> Request:
    """A strict chain with one listing repeated at a drawn index k near the middle."""
    length = n * (n - 1) // 2 + 1
    k = rng.randint(max(length // 2 - length // 8, 1), length // 2 + length // 8)
    want = (length, tuple(range(n, 0, -1)), tuple(range(1, n + 1)), (k, k + 1))

    def run(tr):
        listings = tr(algebra.make_strict_chain, n).listings
        probe = algebra.Chain(listings[:k] + (listings[k - 1],) + listings[k:])
        return (len(listings), listings[0].values, listings[-1].values,
                tr(algebra.chain_stabilize, probe))

    return Request("stabilize", f"stabilize n={n}", run, lambda out: _expect(out, want), n=n)


def _cli_listings(rng, sizes) -> List[Request]:
    inline = lambda values: ["inline", json.dumps(list(values))]
    out = []
    for n in sizes[:3]:
        f, g, least = _compare_inputs(rng, n)
        want = {"f_le_g": True, "g_le_f": False, "equiv": False, "fail_at": list(least)}
        out.append(cli_request(f"cli compare n={n}", ["compare", *inline(f), *inline(g)], 0,
                               _one_line(want), n=n))
    for n in (sizes[0], sizes[2]):
        ranks = ref.random_ranks(rng, n)
        f = ref.realize(ranks, ref.random_values(rng, n))
        want = {"values": list(f), "pattern": ranks}
        out.append(cli_request(f"cli pattern n={n}", ["pattern", *inline(f)], 0,
                               _one_line(want), n=n))
    n = sizes[1]
    h, hp, gp, result = _transport_inputs(rng, n)
    out.append(cli_request(f"cli transport n={n}",
                           ["transport", *inline(h), *inline(hp), *inline(gp)], 0,
                           _one_line({"result": list(result)}), n=n))
    n = sizes[0]
    f, g, (fpos, gpos, held) = _lemma8_inputs(rng, n)

    def lemma8_json(lines):
        got = lines[0] if len(lines) == 1 else None
        got = got and (got["all_hold"], got["clause1"],
                       sum(e["premise"] for e in got["clause2"]))
        return _expect(got, (True, {"fpos": fpos, "gpos": gpos, "holds": True}, held))

    out.append(cli_request(f"cli lemma8 n={n}", ["lemma8", *inline(f), *inline(g)], 0,
                           lemma8_json, n=n))

    # invalid input: each must exit 2
    v = ref.random_values(rng, 16)
    dup = list(v)
    dup[rng.randrange(1, 16)] = dup[0]
    zero = list(v)
    zero[rng.randrange(16)] = 0
    bad = [
        ["compare", *inline(dup), *inline(v)],
        ["pattern", *inline(zero)],
        ["compare", *inline(v), *inline(v[:-1])],
        ["pattern", "inline", json.dumps(v)[:-1]],
        ["verify", "--property", "no-such-property", "--n", "3"],
        ["transport", *inline(v), *inline(ref.random_values(rng, 16, low=100)), *inline(v)],
        ["enumerate", "nminus:0"],
        ["lemma8", *inline(sorted(v, reverse=True)), *inline(v)],
    ]
    out += [cli_request(f"cli invalid {' '.join(argv)[:40]}", argv, 2) for argv in bad]
    out += [cli_request(f"cli offender {' '.join(argv)}", argv, 2, known_offender=True)
            for argv in KNOWN_OFFENDERS]
    return out


def listings(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"listings:{seed}")
    sizes = TINY_LISTING_SIZES if tiny else LISTING_SIZES
    requests = []
    for n in sizes:
        requests += [_compare(rng, n), _equiv(rng, n), _pattern(rng, n),
                     _transport(rng, n), _extract(rng, n)]
    requests += [_lemma8(rng, n) for n in sizes[:3]]
    requests += [_stabilize(rng, n) for n in (TINY_CHAIN_SIZES if tiny else CHAIN_SIZES)]
    requests += _cli_listings(rng, sizes)
    rng.shuffle(requests)
    want = {"values": [6, 2, 4], "pattern": [3, 1, 2]}
    return Workload(requests, ["pattern", "inline", "6 2 4"],
                    _setup_check(lambda obj: _expect(obj, want)))


def _setup_check(problem: Callable[[dict], Optional[str]]):
    """Check of a cold CLI run: exit 0 and one JSON object `problem` accepts."""

    def check(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        try:
            return problem(json.loads(stdout))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"unexpected stdout ({type(exc).__name__}: {exc})"

    return check


# --- dovetail -------------------------------------------------------------

# 23 (model, budget) pairs, each asked at prefix lengths 5 and 64 and drained
DOVETAIL_BUDGETS = {
    "collatz": [50, 100, 200, 300, 500, 1000, 2000, 3000, 5000, 10000, 20000, 30000],
    "rm": [100, 150, 200, 300, 500, 700, 1000, 1500, 2000, 3000, 10000],
}
TINY_DOVETAIL_BUDGETS = {"collatz": [20, 50, 100], "rm": [20, 50, 100]}
SHORT_LENGTHS = (5, 64)


def _short_request(model: str, budget: int, length: int, order) -> Request:
    spec = f"halt:{model}"
    head = order[:length]
    ranks = ref.ranks_of(head)
    want = (head, ranks, list(head) == sorted(head))

    def run(tr):
        got = tr(enumerators.take_prefix, tr(enumerators.parse_spec, spec), length, budget)
        ascending = tr(prefixes.make_prefix, sorted(got.values))
        return (got.values, tr(prefixes.standardize, got).ranks,
                tr(prefixes.equiv_eo, got, ascending))

    return Request("short", f"{spec} len={length} budget={budget}", run,
                   lambda out: _expect(out, want), n=len(head),
                   meta={"model": model, "budget": budget, "length": length},
                   count=lambda out: {"enumerators.emitted": len(out[0])})


def _drain_request(model: str, budget: int, order) -> Request:
    spec = f"halt:{model}"

    def run(tr):
        return tr(enumerators.take_prefix, tr(enumerators.parse_spec, spec), budget, budget).values

    return Request("drain", f"{spec} drain budget={budget}", run,
                   lambda out: _expect(out, order), n=len(order),
                   meta={"model": model, "budget": budget, "length": budget},
                   count=lambda out: {"enumerators.emitted": len(out)})


def _heads_of_drains(requests, outputs):
    """Every short prefix must be the head of the drain at its budget."""
    drains = {
        (r.meta["model"], r.meta["budget"]): out
        for r, out in zip(requests, outputs)
        if r.kind == "drain" and isinstance(out, tuple)
    }
    for rid, (r, out) in enumerate(zip(requests, outputs)):
        if r.kind != "short" or not isinstance(out, tuple):
            continue
        drain = drains.get((r.meta["model"], r.meta["budget"]))
        if drain is not None and out[0] != drain[: len(out[0])]:
            yield rid, "short prefix is not the head of the drain at the same budget"


def dovetail(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"dovetail:{seed}")
    requests = []
    for model, budgets in (TINY_DOVETAIL_BUDGETS if tiny else DOVETAIL_BUDGETS).items():
        orders = ref.dovetail_orders(model, budgets)
        for budget in budgets:
            requests += [_short_request(model, budget, length, orders[budget])
                         for length in SHORT_LENGTHS]
            requests.append(_drain_request(model, budget, orders[budget]))
    rng.shuffle(requests)
    want = {"spec": "halt:collatz", "values": list(ref.dovetail_orders("collatz", [12])[12][:5])}
    return Workload(
        requests,
        ["enumerate", "halt:collatz", "--prefix-len", "5", "--budget", "12"],
        _setup_check(lambda obj: _expect(obj, want)),
        cross_check=_heads_of_drains,
    )


# --- oracle ---------------------------------------------------------------

def _report_problem(line: dict, pinned: int, top: int) -> Optional[str]:
    """A verify report must pass at some n in [pinned, top] with the closed-form count."""
    pid, n = line.get("property"), line.get("n")
    if pid not in ref.ORACLE_N or not isinstance(n, int) or not pinned <= n <= top:
        return f"unexpected report {_short(line)}"
    if line.get("pass") is not True or line.get("violations") != []:
        return f"{pid} did not pass: {_short(line)}"
    if line.get("instances") != ref.oracle_instances(pid, n):
        return f"{pid} at n={n}: {line.get('instances')} instances, expected {ref.oracle_instances(pid, n)}"
    witness = line.get("witness")
    if pid == "non-antisymmetric" and not (
        witness and witness["f"] != witness["g"] and len(witness["f"]) == n
        and ref.ranks_of(witness["f"]) == ref.ranks_of(witness["g"])
    ):
        return f"non-antisymmetric witness is not a distinct equivalent pair: {_short(witness)}"
    return None


def _property(pid: str, n: int) -> Request:
    want = (True, ref.oracle_instances(pid, n), n)

    def run(tr):
        report = tr(oracle.run_property, pid, n)
        return report.passed, report.instances, report.n

    return Request("property", f"run_property {pid} n={n}", run,
                   lambda out: _expect(out, want), n=n, meta={"property": pid},
                   count=lambda out: {"oracle.instances": out[1]})


def oracle_workload(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"oracle:{seed}")
    pinned = {pid: min(n, 3) if tiny else n for pid, n in ref.ORACLE_N.items()}
    top = 3 if tiny else 8
    requests = [_property(pid, n) for pid, n in pinned.items()]

    def all_reports(lines):
        if sorted(line.get("property") for line in lines) != sorted(ref.ORACLE_N):
            return f"expected one report per property, got {_short(lines)}"
        return next((p for p in (_report_problem(line, pinned[line["property"]], top)
                                 for line in lines) if p), None)

    def single_report(lines):
        if len(lines) != 1:
            return f"expected one report, got {_short(lines)}"
        return _report_problem(lines[0], top, top)

    argv_all = ["verify", "--property", "all", "--n", str(top)]
    argv_one = ["verify", "--property", "non-antisymmetric", "--n", str(top)]
    requests.append(cli_request(" ".join(argv_all), argv_all, 0, all_reports))
    requests.append(cli_request(" ".join(argv_one), argv_one, 0, single_report))
    rng.shuffle(requests)
    return Workload(requests, ["verify", "--property", "non-antisymmetric", "--n", "8"],
                    _setup_check(lambda obj: _report_problem(obj, 8, 8)))


WORKLOADS = {"listings": listings, "dovetail": dovetail, "oracle": oracle_workload}
