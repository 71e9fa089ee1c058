"""Information extraction from reducible and equivalent listing pairs.

The centerpiece is the paired-listing construction: a prefix f over
A ∪ {m} starting at the extra minimum m, rank-aligned with a prefix g over
A.  From such a pair the predecessor map on A falls out positionally, which
yields descent chains and a three-valued membership decider.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import List, NamedTuple, Tuple

from .algebra import inverse_lookup
from .errors import EnumOrderError, TooLarge
from .prefixes import FrozenSlots, Pattern, PrefixListing, SetSample, leq_eo

# family_below's output has n + 1 sets of up to n plus |A above n| elements
# each, so its time, memory and printed size grow as their product.  The
# largest accepted is what n = MAX_FAMILY_N gives with a tail as long (0.66 s
# and 94 MB through the CLI, 2-core host, Python 3.11).
MAX_FAMILY_N = 1024
MAX_FAMILY_SIZE = (MAX_FAMILY_N + 1) * 2 * MAX_FAMILY_N

# check_inverse_positions reports one clause per position, which the CLI
# prints as one JSON object each.  At this many positions, with f = g
# shuffled, a CLI run takes 0.7-0.9 s and 72 MB; at 1.15M, 21 s and 935 MB
# (2-core host, Python 3.11).
MAX_INVERSE_POSITIONS = 65_536


class Clause1(NamedTuple):
    fpos: int
    gpos: int
    holds: bool


class Clause2Entry(NamedTuple):
    index: int
    premise_held: bool
    fpos: int
    gpos: int
    holds: bool  # vacuously true when the premise fails


class InversePositionReport(NamedTuple):
    clause1: Clause1
    clause2: Tuple[Clause2Entry, ...]

    @property
    def all_hold(self) -> bool:
        # an entry's field 4 is its holds
        return self.clause1.holds and all(map(itemgetter(4), self.clause2))


def check_inverse_positions(f: PrefixListing, g: PrefixListing) -> InversePositionReport:
    """Inverse-position inequalities along the ascending views of f and g.

    Requires f reducible to g.  With a = ascending view of f's values and
    b = of g's: clause 1 asserts f^-1(a_1) <= g^-1(b_1); clause 2 asserts,
    for each i > 1 whose premise (all earlier inverse positions agree)
    holds, f^-1(a_i) <= g^-1(b_i).  Every evaluated clause must come back
    true; a false one means a bug upstream.  Refuses an f of more than
    MAX_INVERSE_POSITIONS positions with TooLarge, before any other work;
    leq_eo refuses a g of another length at once.
    """
    if len(f.values) > MAX_INVERSE_POSITIONS:
        raise TooLarge("prefix length", len(f.values), MAX_INVERSE_POSITIONS)
    verdict = leq_eo(f, g)
    if verdict.fail_at is not None:
        raise EnumOrderError(f"f is not reducible to g (fails at {verdict.fail_at})")
    a, b = sorted(f.values), sorted(g.values)
    fpos = list(map(f.positions.__getitem__, a))
    gpos = list(map(g.positions.__getitem__, b))
    # tuple.__new__(cls, fields) is all a NamedTuple's generated __new__
    # does; calling it here skips that Python frame, ~0.3 us a record, and
    # the records keep their exact classes
    new = tuple.__new__
    clause1 = new(Clause1, (fpos[0], gpos[0], fpos[0] <= gpos[0]) if a else (0, 0, True))
    entries = []
    premise = True  # fpos and gpos agree at every index below i
    for i in range(2, len(a) + 1):
        premise = premise and fpos[i - 2] == gpos[i - 2]
        fp, gp = fpos[i - 1], gpos[i - 1]
        entries.append(new(Clause2Entry, (i, premise, fp, gp, fp <= gp if premise else True)))
    return new(InversePositionReport, (clause1, tuple(entries)))


class PairedListings(FrozenSlots):
    """An aligned pair: f over A ∪ {m} with f(1) = m, g over A.

    Rank alignment is the load-bearing invariant: the rank of f(i) within
    the ascending view of A ∪ {m} equals the rank of g(i) within the
    ascending view of A.  It makes f(g^-1(a)) the element one rank below a,
    and construction tests it as one comparison: f's values equal, position
    by position, the element of [m, *sorted(A)] one rank below g's.  A pair
    that fails it raises EnumOrderError naming the first position where f
    differs from that image, with both ranks there read from g's ranks and
    positions.  Equal ranks at every position give f and g one pattern, so
    every accepted pair is order-equivalent.
    """

    __slots__ = _fields = ("f", "g", "m")
    f: PrefixListing
    g: PrefixListing
    m: int

    def __init__(self, f: PrefixListing, g: PrefixListing, m: int):
        if len(f) != len(g):
            raise EnumOrderError(f"lengths differ: {len(f)} != {len(g)}")
        if len(f) == 0:
            raise EnumOrderError("empty pairing")
        if m in g.positions:
            raise EnumOrderError(f"extra element {m} occurs in g")
        if m >= min(g.values):
            raise EnumOrderError(f"extra element {m} is not below min of g's values")
        if f.values[0] != m:
            raise EnumOrderError(f"f(1) = {f.values[0]}, expected the extra element {m}")
        a_asc = sorted(g.values)
        below = dict(zip(a_asc, [m, *a_asc]))
        image = tuple(map(below.__getitem__, g.values))
        if image != f.values:
            i = next(i for i, (x, b) in enumerate(zip(f.values, image), 1) if x != b)
            x, y = f(i), g(i)
            at = g.positions.get(x)
            if at is None and x != m:
                raise EnumOrderError(f"f enumerates {x}, outside g's values plus {m}")
            # m ranks first in A ∪ {m}, so each value of A ranks one higher there than in A
            rank = g.ranks[at - 1] + 1 if at else 1
            raise EnumOrderError(
                f"rank misalignment at position {i}: "
                f"rank of f({i})={x} is {rank}, rank of g({i})={y} is {g.ranks[i - 1]}"
            )
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "m", m)


def make_paired(a_sample: SetSample, m: int, pattern: Pattern) -> PairedListings:
    """Build the canonical rank-aligned pair from a pattern.

    f indexes the ascending view of A ∪ {m} by the pattern's ranks; g
    indexes the ascending view of A by the same ranks.  It refuses only a
    length other than |A|, as a short pattern builds a valid pair over part
    of A.  PrefixListing refuses an m below 1 or repeated in f, and
    PairedListings an empty A, an m not below min(A), or f(1) != m.
    """
    a_asc = sorted(a_sample.elements)
    ranks = pattern.ranks
    if len(ranks) != len(a_asc):
        raise EnumOrderError(f"pattern length {len(ranks)} != sample size {len(a_asc)}")
    b_asc = [m, *a_asc]
    f = tuple([b_asc[r - 1] for r in ranks])
    g = tuple([a_asc[r - 1] for r in ranks])
    return PairedListings(PrefixListing(f), PrefixListing(g), m)


def predecessor(p: PairedListings, a: int) -> int:
    """Largest element of A strictly below a, or m when a = min(A).

    Computed positionally as f(g^-1(a)); rank alignment makes that the
    element one rank down.
    """
    return p.f(inverse_lookup(p.g, a))


def descent_chain(p: PairedListings, a: int) -> List[int]:
    """All elements of A below a, produced by iterated predecessor, descending.

    Stops when m appears (m itself is excluded).  An a not enumerated by g
    raises EnumOrderError.  Past that check no lookup can fail: on a
    validated pair every predecessor of a value of g is in g or is m (see
    decide_membership).
    """
    if a not in p.g.positions:
        raise EnumOrderError(f"prefix too short to resolve value {a}")
    out: List[int] = []
    current = predecessor(p, a)
    while current != p.m:
        out.append(current)
        current = predecessor(p, current)
    return out


class Membership(enum.Enum):
    IN_A = "in"
    NOT_IN_A = "out"
    INSUFFICIENT = "insufficient"


class MembershipReport(NamedTuple):
    x: int
    result: Membership
    descent: Tuple[int, ...]


def decide_membership(p: PairedListings, x: int) -> MembershipReport:
    """Decide x ∈ A from the pair, or report the prefix as too short.

    A direct occurrence in g settles membership.  Otherwise the least
    enumerated witness a > x has a descent chain listing everything in A
    below a, and x is not in it.  A valid pairing gives f the values of g
    less its maximum, plus m, so every predecessor of a value of g is in g
    or is m: the chain never runs out of prefix, and it holds only values
    of g, which x is not.
    """
    if x < 1:
        raise EnumOrderError("x must be >= 1")
    if x in p.g.positions:
        return MembershipReport(x, Membership.IN_A, ())
    a = min(filter(x.__lt__, p.g.values), default=None)
    if a is None:
        return MembershipReport(x, Membership.INSUFFICIENT, ())
    return MembershipReport(x, Membership.NOT_IN_A, tuple(descent_chain(p, a)))


def family_below(a_sample: SetSample, n: int) -> List[SetSample]:
    """The n+1 finite modifications of A that trade low elements in and out.

    The k-th member (k = 1..n+1) is (A - {k..n}) ∪ {1..k-1}, which is
    {1..k-1} ∪ (A's tail above n): all share the tail and differ only below
    n+1.  Refuses, with TooLarge and before building any member, n >
    MAX_FAMILY_N and an answer of (n+1)·(n + |tail|) > MAX_FAMILY_SIZE.
    """
    if n > MAX_FAMILY_N:
        raise TooLarge("family n", n, MAX_FAMILY_N)
    if a_sample.bound < n:
        raise EnumOrderError(f"sample bound {a_sample.bound} is below n={n}")
    tail = frozenset(e for e in a_sample.elements if e > n)
    size = (n + 1) * (n + len(tail))
    if size > MAX_FAMILY_SIZE:
        raise TooLarge("answer size", size, MAX_FAMILY_SIZE)
    low = list(range(1, n + 1))  # one int object per low value, shared by the members
    return [SetSample(tail.union(low[:k - 1]), a_sample.bound) for k in range(1, n + 2)]
