"""Finite listing prefixes and their enumeration-order comparison.

A prefix is an initial segment of some listing of a set of naturals: a finite
sequence of distinct values >= 1, indexed by 1-based positions.  Two
equal-length prefixes are compared by their order inversions: f is reducible
to g when every inversion of f is also an inversion of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .errors import DuplicateValue, LengthMismatch, TooLarge, ValueSetMismatch, ZeroValue

PositionPair = Tuple[int, int]
T = TypeVar("T")

# leq_eo keeps the early-exit double loop up to this length, where it beats
# the Fenwick scan's set-up (see CHANGES.md for the measured crossover)
LEQ_EO_SMALL_N = 32

# inversions on a reversed listing of this many positions takes ~2 s and
# ~150 MB for its 523,776 pairs, four times both per doubling
MAX_INVERSIONS_N = 1024


def _computed_once(build: Callable[..., T]) -> property:
    """A read-only property built on first use and kept on the instance.

    The value is stored with object.__setattr__ under a private name, which
    works on a frozen dataclass and leaves its equality and hashing alone.
    Unlike functools.cached_property, this never reads the instance
    __dict__, which would slow every later attribute load on the instance
    (`values` 3x on CPython 3.11), and the oracle's hashing loops with it.
    """
    name = "_" + build.__name__

    def get(self) -> T:
        try:
            return getattr(self, name)
        except AttributeError:
            value = build(self)
            object.__setattr__(self, name, value)
            return value

    return property(get, doc=build.__doc__)


@dataclass(frozen=True)
class PrefixListing:
    """An initial segment of a listing: distinct naturals at positions 1..n.

    Construction rejects a value below 1 with ZeroValue and a repeated
    value with DuplicateValue (naming its first repeat).
    """

    values: Tuple[int, ...]

    def __post_init__(self):
        # one C-level test for the common valid case; the loop only runs to
        # name the offending value
        v = self.values
        if len(set(v)) != len(v) or (v and min(v) < 1):
            seen = set()
            for x in v:
                if x < 1:
                    raise ZeroValue()
                if x in seen:
                    raise DuplicateValue(x)
                seen.add(x)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, position: int) -> int:
        """Value at a 1-based position."""
        if not 1 <= position <= len(self.values):
            raise IndexError(f"position {position} outside 1..{len(self.values)}")
        return self.values[position - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    # derived indexes, each O(n) in size

    @_computed_once
    def value_set(self) -> frozenset:
        return frozenset(self.values)

    @_computed_once
    def ranks(self) -> Tuple[int, ...]:
        """Rank of each position's value, from 1, read off the argsort: the
        listing's pattern."""
        values = self.values
        ranks = [0] * len(values)
        for rank, k in enumerate(sorted(range(len(values)), key=values.__getitem__), 1):
            ranks[k] = rank
        return tuple(ranks)

    @_computed_once
    def positions(self) -> Mapping[int, int]:
        """Each value's 1-based position.  Shared by every caller: read it,
        never change it."""
        return dict(zip(self.values, range(1, len(self.values) + 1)))

    def take(self, k: int) -> "PrefixListing":
        """First k positions, as an explicit truncation (never implicit)."""
        return PrefixListing(self.values[: max(k, 0)])


@dataclass(frozen=True)
class Pattern:
    """The rank sequence of a prefix: a permutation of {1..n}."""

    ranks: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.ranks)
        if sorted(self.ranks) != list(range(1, n + 1)):
            raise ValueError(f"ranks {self.ranks} are not a permutation of 1..{n}")

    def __len__(self) -> int:
        return len(self.ranks)

    def apply(self, ascending: Sequence[int]) -> PrefixListing:
        """Reorder an ascending value sequence by these ranks."""
        if len(ascending) < len(self.ranks):
            raise ValueError("not enough values to realize pattern")
        return PrefixListing(tuple(ascending[r - 1] for r in self.ranks))


@dataclass(frozen=True)
class ReducibilityVerdict:
    """Holds, or the lexicographically least position pair where it fails.

    A failure witness (i, j) has i < j, f(i) > f(j) and g(i) < g(j).
    """

    fail_at: Optional[PositionPair] = None

    @property
    def holds(self) -> bool:
        return self.fail_at is None


# the one holding verdict: frozen, and equal to any other by value
_HOLDS = ReducibilityVerdict()


@dataclass(frozen=True)
class SetSample:
    """A finite stand-in for a set: its elements up to a declared bound.

    The sample is complete below `bound`: it equals the true set intersected
    with [1..bound].
    """

    elements: frozenset
    bound: int

    def __post_init__(self):
        if any(e > self.bound for e in self.elements):
            raise ValueSetMismatch(f"element above declared bound {self.bound}")
        if any(e < 1 for e in self.elements):
            raise ZeroValue()


def make_prefix(values: Iterable[int]) -> PrefixListing:
    """Build a prefix from any iterable: distinct values, all >= 1."""
    return PrefixListing(tuple(values))


def inversions(p: PrefixListing) -> frozenset:
    """All position pairs (i, j), i < j, with p(i) > p(j).

    Refuses more than MAX_INVERSIONS_N positions with TooLarge: the scan
    visits all n(n-1)/2 pairs, and the answer can hold as many.
    """
    vals = p.values
    n = len(vals)
    if n > MAX_INVERSIONS_N:
        raise TooLarge(n, MAX_INVERSIONS_N)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if vals[i - 1] > vals[j - 1]
    )


def standardize(p: PrefixListing) -> Pattern:
    """Rank each value within the prefix: ranks[i] = |{j : p(j) <= p(i)}|."""
    order = sorted(p.values)
    rank = {v: k for k, v in enumerate(order, start=1)}
    return Pattern(tuple(rank[v] for v in p.values))


def leq_eo(f: PrefixListing, g: PrefixListing) -> ReducibilityVerdict:
    """Is every inversion of f also an inversion of g?

    Returns the lexicographically least violating (i, j) on failure.  Up to
    LEQ_EO_SMALL_N positions this is an early-exit double loop, O(n^2) in
    the worst case; above it, a Fenwick scan in O(n log n) time and O(n)
    space that finds the same witness.
    """
    fv, gv = f.values, g.values
    n = len(fv)
    if n != len(gv):
        raise LengthMismatch(n, len(gv))
    if n > LEQ_EO_SMALL_N:
        fail_at = _fenwick_fail_at(f, g)
        return _HOLDS if fail_at is None else ReducibilityVerdict(fail_at=fail_at)
    for i in range(n):
        a, b = fv[i], gv[i]
        for j in range(i + 1, n):
            if a > fv[j] and b < gv[j]:
                return ReducibilityVerdict(fail_at=(i + 1, j + 1))
    return _HOLDS


def _fenwick_fail_at(f: PrefixListing, g: PrefixListing) -> Optional[PositionPair]:
    """leq_eo's least witness by a right-to-left Fenwick prefix-max scan.

    Position i fails when some j > i has f(j) < f(i) and g(j) > g(i).  The
    tree is indexed by f-rank and holds the largest g-rank inserted at or
    below each f-rank (0 when none); positions are inserted right to left,
    so a query before inserting i sees exactly the j > i.  The least failing
    i is the last one flagged, and a linear scan from it finds the least j.
    """
    fr, gr = f.ranks, g.ranks
    n = len(fr)
    tree = [0] * (n + 1)
    least = None
    for i in range(n - 1, -1, -1):
        b = gr[i]
        r, best = fr[i] - 1, 0
        while r:
            if tree[r] > best:
                best = tree[r]
            r &= r - 1
        if best > b:
            least = i
        # each node on the update path covers its predecessor's range, so
        # once one already holds b or more, all later ones do
        r = fr[i]
        while r <= n and tree[r] < b:
            tree[r] = b
            r += r & -r
    if least is None:
        return None
    fv, gv = f.values, g.values
    a, b = fv[least], gv[least]
    j = next(j for j in range(least + 1, n) if fv[j] < a and gv[j] > b)
    return (least + 1, j + 1)


def equiv_eo(f: PrefixListing, g: PrefixListing) -> bool:
    """Reducible in both directions, decided as equal patterns.

    On distinct values, mutual reducibility is pattern equality; it is
    decided by comparing the two cached rank sequences: O(n log n) on a listing's first call, O(n) after, with no
    small-n path.
    """
    if len(f) != len(g):
        raise LengthMismatch(len(f), len(g))
    return f.ranks == g.ranks


def ascending_listing(s: SetSample) -> PrefixListing:
    """The minimal listing of a sample: its elements in increasing order."""
    return PrefixListing(tuple(sorted(s.elements)))
