"""Finite listing prefixes and their enumeration-order comparison.

A prefix is an initial segment of some listing of a set of naturals: a finite
sequence of distinct values >= 1, indexed by 1-based positions.  Two
equal-length prefixes are compared by their order inversions: f is reducible
to g when every inversion of f is also an inversion of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import DuplicateValue, LengthMismatch, ValueSetMismatch, ZeroValue

PositionPair = Tuple[int, int]


@dataclass(frozen=True)
class PrefixListing:
    """An initial segment of a listing: distinct naturals at positions 1..n."""

    values: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, position: int) -> int:
        """Value at a 1-based position."""
        if not 1 <= position <= len(self.values):
            raise IndexError(f"position {position} outside 1..{len(self.values)}")
        return self.values[position - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    @property
    def value_set(self) -> frozenset:
        return frozenset(self.values)

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
    """Validate and build a prefix: distinct values, all >= 1."""
    vals = tuple(values)
    seen = set()
    for v in vals:
        if v < 1:
            raise ZeroValue()
        if v in seen:
            raise DuplicateValue(v)
        seen.add(v)
    return PrefixListing(vals)


def inversions(p: PrefixListing) -> frozenset:
    """All position pairs (i, j), i < j, with p(i) > p(j)."""
    vals = p.values
    n = len(vals)
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

    Returns the lexicographically least violating (i, j) on failure.
    """
    if len(f) != len(g):
        raise LengthMismatch(len(f), len(g))
    fv, gv = f.values, g.values
    n = len(fv)
    for i in range(n):
        for j in range(i + 1, n):
            if fv[i] > fv[j] and gv[i] < gv[j]:
                return ReducibilityVerdict(fail_at=(i + 1, j + 1))
    return ReducibilityVerdict()


def equiv_eo(f: PrefixListing, g: PrefixListing) -> bool:
    """Reducible in both directions; equivalently, equal patterns."""
    if len(f) != len(g):
        raise LengthMismatch(len(f), len(g))
    return leq_eo(f, g).holds and leq_eo(g, f).holds


def ascending_listing(s: SetSample) -> PrefixListing:
    """The minimal listing of a sample: its elements in increasing order."""
    return PrefixListing(tuple(sorted(s.elements)))
