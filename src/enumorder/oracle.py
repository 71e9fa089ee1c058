"""Brute-force verification of the finitely checkable claims, exhaustively
over all permutations at small n.

Each property is checked by machinery kept independent of the code under
test.  The oracle keeps one inversion table, `_inversion_masks`, from its
own double loop: bit k of a prefix's int is set when the k-th position pair
in lexicographic order is out of order, so f's inversion set lies in g's
exactly when `fm & ~gm == 0`.  It shares no code with the target's
`inversion_mask`, and the oracle reads no inversion set, mask or rank that
the package computes.  Each checker builds its per-prefix tables once per
call and then only reads them:

- `transitive`: one int up-set bitmask per prefix from n!^2 `leq_eo`
  verdicts; a violation is a bit of up(g) missing from up(f) for some g in
  up(f).
- `subset-characterization`, `lemma-2-8` and `stabilization`: the inversion
  table, to judge each `leq_eo` verdict, to pick the contained pairs whose
  clauses are checked, and to draw random descending chains from down-sets.
  A walk draws each step as `seq[int(rng.random() * len(seq))]` from a
  seeded `random.Random`: `random()` is the one method whose stream the
  `random` docs promise across Python versions, and the draw skips
  `choice()`'s Python-level frames.
- `transport`: the target g' is h' + n on the values n+1..2n.  Each listing
  of 1..n is its own pattern, so a result keeps h's pattern when it places
  its own sorted values in h's order.
- `_check_length_identity`, under no property id: the bit count of each
  inversion-table entry, to judge sampled `leq_eo` verdicts by lengths.

Each checker reads a `leq_eo` verdict as `fail_at is None`, not through
`holds`, a Python-level property that costs a frame on each of the ~10^4
verdicts a checker reads.  The CLI still reads `holds`.

Nothing is kept between calls, so each call sees the current targets.
The `lemma-2-8`, `transport` and `stabilization` checkers import
`extraction` or `algebra` as they run; no other check loads them.

`run_properties` runs a list of jobs in three phases: run them, on a second
CPU too in a forked child when there is one; collect the child's reports and
reap it; yield in job order.  The child is a copy of the calling process, so
it runs the same checkers on the same targets, patched ones included.
"""

from __future__ import annotations

import itertools
import marshal
import os
import random
import signal
import time
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .errors import EnumOrderError, TooLarge
from .prefixes import PrefixListing, SetSample, ascending_listing, equiv_eo, leq_eo


class PropertyReport(NamedTuple):
    property_id: str
    n: int
    instances: int
    violations: Tuple[str, ...]
    elapsed: float
    witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        out = {
            "property": self.property_id,
            "n": self.n,
            "instances": self.instances,
            "violations": list(self.violations),
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _prefixes(n: int) -> List[PrefixListing]:
    """All n! listings of {1..n}, lexicographic."""
    return [PrefixListing(p) for p in itertools.permutations(range(1, n + 1))]


def _check_reflexive(n: int):
    violations = []
    prefixes = _prefixes(n)
    for f in prefixes:
        if leq_eo(f, f).fail_at is not None:
            violations.append(f"leq_eo fails on ({list(f.values)}, itself)")
    return len(prefixes), violations, None


def _bits(mask: int) -> List[int]:
    """Indexes of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_transitive(n: int):
    # up[k] has bit m set when prefixes[k] <= prefixes[m]; a violation is an
    # h in up(g) but not in up(f) for some g in up(f)
    violations = []
    prefixes = _prefixes(n)
    up = []
    for f in prefixes:
        mask = 0
        for m, g in enumerate(prefixes):
            if leq_eo(f, g).fail_at is None:
                mask |= 1 << m
        up.append(mask)
    for f, f_up in zip(prefixes, up):
        for b in _bits(f_up):
            missed = up[b] & ~f_up
            for c in _bits(missed):
                violations.append(
                    f"transitivity fails: {list(f.values)} <= {list(prefixes[b].values)} "
                    f"<= {list(prefixes[c].values)}"
                )
    return len(prefixes) ** 3, violations, None


def _check_non_antisymmetric(n: int):
    # two distinct ascending prefixes over disjoint value ranges
    f = PrefixListing(tuple(range(1, n + 1)))
    g = PrefixListing(tuple(range(n + 1, 2 * n + 1)))
    violations = []
    if n == 0 or f == g or not equiv_eo(f, g):
        violations.append("no witness pair found")
        return 1, violations, None
    witness = {"f": list(f.values), "g": list(g.values)}
    return 1, violations, witness


def _inversion_masks(prefixes: List[PrefixListing], n: int) -> List[int]:
    """Each prefix's inversion set: bit k for the k-th pair (i, j), i < j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    masks = []
    for p in prefixes:
        pv, mask = p.values, 0
        for k, (i, j) in enumerate(pairs):
            if pv[i] > pv[j]:
                mask |= 1 << k
        masks.append(mask)
    return masks


def _check_subset_characterization(n: int):
    violations = []
    prefixes = _prefixes(n)
    masks = _inversion_masks(prefixes, n)
    for f, fm in zip(prefixes, masks):
        for g, gm in zip(prefixes, masks):
            # on distinct values, f(i) > f(j) and g(i) <= g(j) for some pair
            # exactly when some bit of fm is missing from gm
            if (leq_eo(f, g).fail_at is None) != (fm & ~gm == 0):
                violations.append(f"disagreement on ({list(f.values)}, {list(g.values)})")
    return len(prefixes) ** 2, violations, None


def _check_ascending_minimal(n: int):
    violations = []
    prefixes = _prefixes(n)
    asc = ascending_listing(SetSample(frozenset(range(1, n + 1)), n))
    for g in prefixes:
        if leq_eo(asc, g).fail_at is not None:
            violations.append(f"ascending not reducible to {list(g.values)}")
    return len(prefixes), violations, None


def _check_inverse_position_clauses(n: int):
    from .extraction import check_inverse_positions

    violations = []
    prefixes = _prefixes(n)
    masks = _inversion_masks(prefixes, n)
    for f, fm in zip(prefixes, masks):
        for g, gm in zip(prefixes, masks):
            if fm & ~gm:
                continue
            report = check_inverse_positions(f, g)
            if not report.all_hold:
                violations.append(f"clause fails on ({list(f.values)}, {list(g.values)})")
    return len(prefixes) ** 2, violations, None


def _check_transport(n: int):
    from .algebra import transport

    # g' = h' + n: the one target an exhaustive search would keep per (h, h')
    violations = []
    prefixes = _prefixes(n)
    other_values = list(range(n + 1, 2 * n + 1))
    targets = [PrefixListing(tuple(v + n for v in p.values)) for p in prefixes]
    for h in prefixes:
        at = [v - 1 for v in h.values]
        for h_prime, g_prime in zip(prefixes, targets):
            result = transport(h, h_prime, g_prime)
            placed = sorted(result.values)
            # h is its own pattern: the result's k-th smallest value goes where h has k
            if len(placed) != n or tuple(map(placed.__getitem__, at)) != result.values:
                violations.append(
                    f"transport breaks pattern: h={list(h.values)} h'={list(h_prime.values)} "
                    f"g'={list(g_prime.values)} -> {list(result.values)}"
                )
            if placed != other_values:
                violations.append(f"transport leaves target values: {list(result.values)}")
    return len(prefixes) ** 2, violations, None


def _random_descending_chain(rng, prefixes, down, length: int) -> Tuple[PrefixListing, ...]:
    """A walk of `length` listings: a random prefix, then at each step a
    random member of the last one's down-set of indexes.  Each draw is
    `seq[int(rng.random() * len(seq))]`: the `random` docs keep that stream
    across Python versions, and `rng.choice` adds two Python frames a draw."""
    draw = rng.random
    k = int(draw() * len(prefixes))
    chain = [prefixes[k]]
    while len(chain) < length:
        below = down[k]
        k = below[int(draw() * len(below))]
        chain.append(prefixes[k])
    return tuple(chain)


def _check_stabilization(n: int):
    from .algebra import Chain, chain_stabilize

    # pigeonhole: any descending chain longer than the inversion count must repeat
    violations = []
    length = n * (n - 1) // 2 + 2
    rng = random.Random(f"stabilization:{n}")
    prefixes = _prefixes(n)
    masks = _inversion_masks(prefixes, n)
    # each prefix's down-set as indexes, in prefixes order, for the seeded walks
    down = [[k for k, pm in enumerate(masks) if not pm & ~qm] for qm in masks]
    walks = 200
    for _ in range(walks):
        chain = Chain(_random_descending_chain(rng, prefixes, down, length))
        found = chain_stabilize(chain)
        # independent pairwise scan, minimizing (j, i)
        expected = None
        for j in range(2, length + 1):
            for i in range(1, j):
                if chain.listings[i - 1].values == chain.listings[j - 1].values:
                    expected = (i, j)
                    break
            if expected:
                break
        if expected is None:
            violations.append(f"chain of length {length} without repeat: {chain.listings}")
        elif found != expected:
            violations.append(f"stabilize returned {found}, oracle says {expected}")
    return walks, violations, None


def _check_class_count(n: int):
    # partition all prefixes over {1..n} by pairwise equivalence
    violations = []
    prefixes = _prefixes(n)
    representatives: List[PrefixListing] = []
    for p in prefixes:
        if not any(equiv_eo(p, r) for r in representatives):
            representatives.append(p)
    # each permutation of 1..n is its own pattern: this reads no ranks, as equiv_eo does
    distinct_patterns = len({p.values for p in prefixes})
    if len(representatives) != distinct_patterns:
        violations.append(
            f"{len(representatives)} classes vs {distinct_patterns} distinct patterns"
        )
    return len(prefixes), violations, None


def _check_length_identity(n: int):
    """Not registered: a `slow` test runs it at n = 7, past every cap.  On
    listings of one value set, f <=eo g exactly when inv(f) + inv(h) =
    inv(g), with h(k) = g(pos_f(k)): the right weak order (Björner and
    Brenti, Combinatorics of Coxeter Groups, 2005, ch. 3).  Compares that
    with `leq_eo` on 10^5 seeded ordered pairs of permutations of 1..n; inv
    counts the bits of the oracle's inversion table."""
    violations = []
    prefixes = _prefixes(n)
    counts = [mask.bit_count() for mask in _inversion_masks(prefixes, n)]
    index = {p.values: k for k, p in enumerate(prefixes)}
    draw = random.Random(f"length-identity:{n}").random
    pairs = 100_000
    for _ in range(pairs):
        a, b = int(draw() * len(prefixes)), int(draw() * len(prefixes))
        f, g = prefixes[a], prefixes[b]
        h = [0] * n
        for y, v in zip(g.values, f.values):  # h(f(i)) = g(i)
            h[v - 1] = y
        by_lengths = counts[a] + counts[index[tuple(h)]] == counts[b]
        if (leq_eo(f, g).fail_at is None) != by_lengths:
            violations.append(f"length identity disagrees on ({list(f.values)}, {list(g.values)})")
    return pairs, violations, None


# property id -> (max n, checker); ids are part of the CLI contract
REGISTRY: Dict[str, Tuple[int, Callable]] = {
    "reflexive": (6, _check_reflexive),
    "transitive": (4, _check_transitive),
    "non-antisymmetric": (8, _check_non_antisymmetric),
    "subset-characterization": (5, _check_subset_characterization),
    "lemma-2-3": (6, _check_ascending_minimal),
    "lemma-2-8": (5, _check_inverse_position_clauses),
    "transport": (4, _check_transport),
    "stabilization": (5, _check_stabilization),
    "class-count": (5, _check_class_count),
}


def run_property(property_id: str, n: int) -> PropertyReport:
    """Exhaustively check one registered property at size n."""
    if property_id not in REGISTRY:
        raise EnumOrderError(f"unknown property: {property_id}")
    max_n, checker = REGISTRY[property_id]
    if not 0 <= n <= max_n:
        raise TooLarge("permutation size", n, max_n)
    start = time.perf_counter()
    instances, violations, witness = checker(n)
    elapsed = time.perf_counter() - start
    return PropertyReport(
        property_id, n, instances, tuple(sorted(violations)), elapsed, witness
    )


def run_properties(jobs: Iterable[Tuple[str, int]]) -> Iterator[PropertyReport]:
    """`run_property` over each (property_id, n) job, yielded in job order.

    Run: this process runs each job it claims through `_claimed`; with 2 to
    256 jobs, `os.fork` and a second CPU, a forked child runs the same loop
    on the same pipe of claims (one index byte each) and sends back its
    reports.  Collect: read them until the child exits, then kill and reap
    it, all before the first yield.  Yield: a job with no report runs again
    here at its turn, and a stored exception raises at its turn, as in a
    serial run.  Since it may fork, call it while no other thread runs.
    """
    jobs = list(jobs)
    claims: Iterator[int] = iter(range(len(jobs)))
    child = results = None
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if 2 <= len(jobs) <= 256 and len(cpus) >= 2 and hasattr(os, "fork"):
        claims_r, claims_w = os.pipe()
        os.write(claims_w, bytes(range(len(jobs))))
        os.close(claims_w)
        claims = (b[0] for b in iter(lambda: os.read(claims_r, 1), b""))
        results_r, results_w = os.pipe()
        # a forked child can share its parent's CPU for its whole run (Linux
        # 6.18 on 2 vCPUs), so the parent moves it off that CPU as soon as it
        # exists; if it may not (or, with a CPU count patched off Linux, has
        # no such call), the child runs unpinned
        others = cpus - {_current_cpu()}
        try:
            child = os.fork()
        except OSError:  # no process to spare: this one claims every job
            pass
        if child:
            try:
                os.sched_setaffinity(child, others)
            except (OSError, AttributeError):
                pass
        elif child == 0:
            try:
                os.close(results_r)
                with os.fdopen(results_w, "wb") as out:
                    for k, report in _claimed(jobs, claims):
                        if isinstance(report, PropertyReport):
                            marshal.dump((k, *report), out)
                            out.flush()
            finally:
                os._exit(0)
        os.close(results_w)
        results = os.fdopen(results_r, "rb")
    try:
        reports: Dict[int, object] = dict(_claimed(jobs, claims))
        if results is not None:
            reports.update(_receive(results))
    finally:
        if results is not None:
            os.close(claims_r)
            results.close()
        if child:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    for i, job in enumerate(jobs):
        report = reports[i] if i in reports else run_property(*job)
        if isinstance(report, Exception):
            raise report
        yield report


def _claimed(jobs: List[Tuple[str, int]], claims: Iterator[int]) -> Iterator[Tuple[int, object]]:
    """(k, report) for each job index k claimed, or (k, exc) if it raised."""
    for k in claims:
        try:
            report = run_property(*jobs[k])
        except Exception as exc:
            report = exc
        yield k, report


def _current_cpu() -> int:
    """The CPU this process last ran on, or -1 without /proc."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


def _receive(results) -> Iterator[Tuple[int, PropertyReport]]:
    """The child's (job index, report) pairs, until it exits or dies."""
    while True:
        try:
            k, *fields = marshal.load(results)
        except (EOFError, ValueError, TypeError):  # a report cut short reads as garbled
            return
        yield k, PropertyReport(*fields)
