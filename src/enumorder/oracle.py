"""Brute-force verification of the finitely checkable claims, exhaustively
over all permutations at small n.

Each property is checked by machinery kept independent of the code under
test wherever the claim pairs an implementation with an oracle.  The
checkers that loop over pairs or triples of prefixes first build their
per-prefix tables, once per call, and then only read them:

- `transitive`: one int up-set bitmask per prefix from n!^2 `leq_eo`
  verdicts; a violation is a bit of up(g) missing from up(f) for some g in
  up(f).  It reads nothing of its target but those verdicts.
- `subset-characterization`: one int mask per prefix of its out-of-order
  position pairs, from its own double loop.  It shares nothing with its
  target: no `inversions`, `leq_eo` verdict or table derived from them.
- `lemma-2-8`: the inversion set of each prefix.
- `transport`: the pattern of each prefix, and the target g' that realizes
  it on the values n+1..2n.
- `stabilization`: the down-set of each prefix under inversion-set
  containment, from which the random descending chains are drawn.

Nothing is kept between calls, so each call sees the current targets.
The `lemma-2-8`, `transport` and `stabilization` checkers import
`extraction` or `algebra` as they run; no other check loads them.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .errors import TooLarge, UnknownProperty
from .prefixes import (
    PrefixListing,
    SetSample,
    ascending_listing,
    equiv_eo,
    inversions,
    leq_eo,
    standardize,
)


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
        if not leq_eo(f, f).holds:
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
            if leq_eo(f, g).holds:
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


def _check_subset_characterization(n: int):
    # independent oracle: one mask per prefix with bit k set when the k-th
    # position pair (i, j), i < j, is out of order, from this double loop
    violations = []
    prefixes = _prefixes(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    masks = []
    for p in prefixes:
        pv, mask = p.values, 0
        for k, (i, j) in enumerate(pairs):
            if pv[i] > pv[j]:
                mask |= 1 << k
        masks.append(mask)
    for f, fm in zip(prefixes, masks):
        for g, gm in zip(prefixes, masks):
            # on distinct values, f(i) > f(j) and g(i) <= g(j) for some pair
            # exactly when some bit of fm is missing from gm
            if leq_eo(f, g).holds != (fm & ~gm == 0):
                violations.append(f"disagreement on ({list(f.values)}, {list(g.values)})")
    return len(prefixes) ** 2, violations, None


def _check_ascending_minimal(n: int):
    violations = []
    prefixes = _prefixes(n)
    asc = ascending_listing(SetSample(frozenset(range(1, n + 1)), n))
    for g in prefixes:
        if not leq_eo(asc, g).holds:
            violations.append(f"ascending not reducible to {list(g.values)}")
    return len(prefixes), violations, None


def _check_inverse_position_clauses(n: int):
    from .extraction import check_inverse_positions

    violations = []
    prefixes = _prefixes(n)
    inv = [inversions(p) for p in prefixes]
    for f, f_inv in zip(prefixes, inv):
        for g, g_inv in zip(prefixes, inv):
            if not f_inv <= g_inv:
                continue
            report = check_inverse_positions(f, g)
            if not report.all_hold:
                violations.append(f"clause fails on ({list(f.values)}, {list(g.values)})")
    return len(prefixes) ** 2, violations, None


def _check_transport(n: int):
    from .algebra import transport

    # the target g' runs through other_values in h''s pattern: the one
    # pattern an exhaustive search over g' would keep for each (h, h')
    violations = []
    prefixes = _prefixes(n)
    other_values = tuple(range(n + 1, 2 * n + 1))
    patterns = [standardize(p) for p in prefixes]
    targets = [pattern.apply(other_values) for pattern in patterns]
    for h, h_pattern in zip(prefixes, patterns):
        for h_prime, g_prime in zip(prefixes, targets):
            result = transport(h, h_prime, g_prime)
            if standardize(result) != h_pattern:
                violations.append(
                    f"transport breaks pattern: h={list(h.values)} h'={list(h_prime.values)} "
                    f"g'={list(g_prime.values)} -> {list(result.values)}"
                )
            if sorted(result.values) != sorted(g_prime.values):
                violations.append(f"transport leaves target values: {list(result.values)}")
    return len(prefixes) ** 2, violations, None


def _random_descending_chain(rng, prefixes, down, length: int) -> Tuple[PrefixListing, ...]:
    current = rng.choice(prefixes)
    chain = [current]
    while len(chain) < length:
        current = rng.choice(down[current])
        chain.append(current)
    return tuple(chain)


def _check_stabilization(n: int):
    from .algebra import Chain, chain_stabilize

    # pigeonhole: any descending chain longer than the inversion count must repeat
    violations = []
    length = n * (n - 1) // 2 + 2
    rng = random.Random(f"stabilization:{n}")
    prefixes = _prefixes(n)
    inv = [inversions(p) for p in prefixes]
    # each prefix's down-set, in prefixes order: the seeded walks pick by index
    down = {
        q: [p for p, p_inv in zip(prefixes, inv) if p_inv <= q_inv]
        for q, q_inv in zip(prefixes, inv)
    }
    walks = 200
    for _ in range(walks):
        chain = Chain(_random_descending_chain(rng, prefixes, down, length))
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
        raise UnknownProperty(property_id)
    max_n, checker = REGISTRY[property_id]
    if not 0 <= n <= max_n:
        raise TooLarge(n, max_n)
    start = time.perf_counter()
    instances, violations, witness = checker(n)
    elapsed = time.perf_counter() - start
    return PropertyReport(
        property_id, n, instances, tuple(sorted(violations)), elapsed, witness
    )
