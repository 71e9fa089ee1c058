"""The table-driven oracle checkers against their direct references.

Each reference below is the straightforward form of a checker in
`enumorder.oracle`: it recomputes its per-prefix facts inside the n!^2 or
n!^3 loop.  The table-driven checkers must give the same instance count,
sorted violations and witness at every n up to the cap, and under every
fault planted in `tests/test_oracle.py`, plus three probes that make
every instance report: then the violations list every triple, pair or
random chain a checker examined, so equal violations mean the tables select
the same instances and the random walks are unchanged.
"""

import itertools
import random
import sys

import pytest

from enumorder.algebra import Chain, chain_stabilize, transport
from enumorder.extraction import check_inverse_positions
from enumorder.oracle import REGISTRY, _prefixes
from enumorder.prefixes import Pattern, ReducibilityVerdict, inversions, leq_eo, standardize

from test_oracle import PLANTED_FAULTS, owner


def _check_transitive(n: int):
    violations = []
    prefixes = _prefixes(n)
    count = 0
    for f, g, h in itertools.product(prefixes, repeat=3):
        count += 1
        if leq_eo(f, g).holds and leq_eo(g, h).holds and not leq_eo(f, h).holds:
            violations.append(
                f"transitivity fails: {list(f.values)} <= {list(g.values)} <= {list(h.values)}"
            )
    return count, violations, None


def _check_subset_characterization(n: int):
    violations = []
    prefixes = _prefixes(n)
    count = 0
    for f, g in itertools.product(prefixes, repeat=2):
        count += 1
        # independent oracle: evaluate the defining implication directly
        fv, gv = f.values, g.values
        direct = all(
            not (fv[i] > fv[j] and gv[i] <= gv[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        if leq_eo(f, g).holds != direct:
            violations.append(f"disagreement on ({list(fv)}, {list(gv)})")
    return count, violations, None


def _check_inverse_position_clauses(n: int):
    violations = []
    prefixes = _prefixes(n)
    count = 0
    for f, g in itertools.product(prefixes, repeat=2):
        count += 1
        if not inversions(f) <= inversions(g):
            continue
        report = check_inverse_positions(f, g)
        if not report.all_hold:
            violations.append(f"clause fails on ({list(f.values)}, {list(g.values)})")
    return count, violations, None


def _check_transport(n: int):
    violations = []
    prefixes = _prefixes(n)
    other_values = tuple(range(n + 1, 2 * n + 1))
    count = 0
    g_patterns = [Pattern(p) for p in itertools.permutations(range(1, n + 1))]
    for h, h_prime, g_pat in itertools.product(prefixes, prefixes, g_patterns):
        g_prime = g_pat.apply(other_values)
        if standardize(g_prime) != standardize(h_prime):
            continue
        count += 1
        result = transport(h, h_prime, g_prime)
        if standardize(result) != standardize(h):
            violations.append(
                f"transport breaks pattern: h={list(h.values)} h'={list(h_prime.values)} "
                f"g'={list(g_prime.values)} -> {list(result.values)}"
            )
        if sorted(result.values) != sorted(g_prime.values):
            violations.append(f"transport leaves target values: {list(result.values)}")
    return count, violations, None


def _random_descending_chain(rng, prefixes, inv, length: int) -> Chain:
    current = rng.choice(prefixes)
    chain = [current]
    while len(chain) < length:
        below = [p for p in prefixes if inv[p] <= inv[current]]
        current = rng.choice(below)
        chain.append(current)
    return Chain(tuple(chain))


def _check_stabilization(n: int):
    # pigeonhole: any descending chain longer than the inversion count must repeat
    violations = []
    length = n * (n - 1) // 2 + 2
    rng = random.Random(f"stabilization:{n}")
    prefixes = _prefixes(n)
    inv = {p: inversions(p) for p in prefixes}
    walks = 200
    for _ in range(walks):
        chain = _random_descending_chain(rng, prefixes, inv, length)
        found = chain_stabilize(chain)
        # independent pairwise scan, minimizing (j, i)
        expected = None
        for j in range(2, length + 1):
            for i in range(1, j):
                if chain.listings[i - 1] == chain.listings[j - 1]:
                    expected = (i, j)
                    break
            if expected:
                break
        if expected is None:
            violations.append(f"chain of length {length} without repeat: {chain.listings}")
        elif found != expected:
            violations.append(f"stabilize returned {found}, oracle says {expected}")
    return walks, violations, None


REFERENCES = {
    "transitive": _check_transitive,
    "subset-characterization": _check_subset_characterization,
    "lemma-2-8": _check_inverse_position_clauses,
    "transport": _check_transport,
    "stabilization": _check_stabilization,
}


def _outcome(checker, n):
    instances, violations, witness = checker(n)
    return instances, sorted(violations), witness


def _assert_same(pid, n):
    assert _outcome(REGISTRY[pid][1], n) == _outcome(REFERENCES[pid], n), (pid, n)


@pytest.mark.parametrize("pid", sorted(REFERENCES))
def test_matches_reference_up_to_cap(pid):
    for n in range(REGISTRY[pid][0] + 1):
        _assert_same(pid, n)


def _leq_eo_within_one_inversion(f, g):
    # not transitive: 0 inversions <= 1 <= 2, but not 0 <= 2
    holds = abs(len(inversions(f)) - len(inversions(g))) <= 1
    return ReducibilityVerdict() if holds else ReducibilityVerdict(fail_at=(1, 2))


def _clauses_fail_everywhere(f, g, real=check_inverse_positions):
    # bound before any patch: the names it is planted on are this module's
    # and extraction's own
    report = real(f, g)
    return report._replace(clause1=report.clause1._replace(holds=False))


def _stabilize_echoes_chain(c):
    # the "repeat" it returns is the chain itself, so each walk is reported
    return c.listings


PROBES = [
    ("probe", 0, "leq_eo", _leq_eo_within_one_inversion),
    ("probe", 0, "check_inverse_positions", _clauses_fail_everywhere),
    ("probe", 0, "chain_stabilize", _stabilize_echoes_chain),
]

# each distinct fault, against every rewritten checker whose reference
# calls the faulty target
FAULT_CASES = sorted(
    {
        (pid, target, fault)
        for _, _, target, fault in PLANTED_FAULTS + PROBES
        for pid, ref in REFERENCES.items()
        if target in ref.__code__.co_names
    },
    key=lambda case: (case[0], case[1], case[2].__name__),
)


@pytest.mark.parametrize(
    "pid, target, fault",
    FAULT_CASES,
    ids=[f"{pid}-{fault.__name__}" for pid, _, fault in FAULT_CASES],
)
def test_matches_reference_under_fault(monkeypatch, pid, target, fault):
    monkeypatch.setattr(owner(target), target, fault)
    monkeypatch.setattr(sys.modules[__name__], target, fault)
    for n in range(min(REGISTRY[pid][0], 4) + 1):
        _assert_same(pid, n)
