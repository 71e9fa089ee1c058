"""Finite listing prefixes and their enumeration-order comparison.

A prefix is an initial segment of some listing of a set of naturals: a finite
sequence of distinct values >= 1, indexed by 1-based positions.  Two
equal-length prefixes are compared by their order inversions: f is reducible
to g when every inversion of f is also an inversion of g.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import DuplicateValue, EnumOrderError, LengthMismatch, TooLarge, ZeroValue

PositionPair = Tuple[int, int]

# up to this length leq_eo ANDs cached inversion masks; on fresh listings the
# Fenwick scan ties with it at 32-64 positions and wins above (CHANGES.md)
LEQ_EO_SMALL_N = 32

# inversions on a reversed listing of this many positions takes ~2 s and
# ~150 MB for its 523,776 pairs, four times both per doubling
MAX_INVERSIONS_N = 1024


class FrozenSlots:
    """Base of the validated value classes: an immutable record in __slots__.

    A subclass lists its fields in `_fields` and stores them in __init__
    with object.__setattr__, after its checks.  Instances compare, hash and
    print by those fields, as a frozen dataclass does; assigning or
    deleting any attribute raises AttributeError.  A subclass that also
    declares a `__dict__` slot may keep derived indexes there, as
    functools.cached_property does: they stay outside `_fields`, so
    equality, hashing, repr, copy and pickle ignore them.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._key()


class PrefixListing(FrozenSlots):
    """An initial segment of a listing: distinct naturals at positions 1..n.

    Construction rejects a value below 1 with ZeroValue and a repeated
    value with DuplicateValue (naming its first repeat).  The derived
    indexes `ranks`, `positions` and `inversion_mask` are built on first
    read and cached in the instance `__dict__`, outside `_fields`.
    """

    __slots__ = ("values", "__dict__")
    _fields = ("values",)
    values: Tuple[int, ...]

    def __init__(self, values: Tuple[int, ...]):
        # one C-level test for the common valid case; the loop only runs to
        # name the offending value
        if len(set(values)) != len(values) or (values and min(values) < 1):
            seen = set()
            for x in values:
                if x < 1:
                    raise ZeroValue()
                if x in seen:
                    raise DuplicateValue(x)
                seen.add(x)
        object.__setattr__(self, "values", values)

    # the oracle hashes and compares listings by the thousand, so these skip
    # FrozenSlots' generic field loop
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.values,))

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

    @functools.cached_property
    def ranks(self) -> Tuple[int, ...]:
        """Rank of each position's value, from 1, read off the argsort: the
        listing's pattern."""
        values = self.values
        ranks = [0] * len(values)
        for rank, k in enumerate(sorted(range(len(values)), key=values.__getitem__), 1):
            ranks[k] = rank
        return tuple(ranks)

    @functools.cached_property
    def positions(self) -> Mapping[int, int]:
        """Each value's 1-based position.  Shared by every caller: read it,
        never change it."""
        return dict(zip(self.values, range(1, len(self.values) + 1)))

    @functools.cached_property
    def inversion_mask(self) -> int:
        """Bit i*n + j set for each 0-based inversion i < j: taken in
        ascending value order, i inverts with each position seen right of it."""
        values = self.values
        n = len(values)
        mask = seen = 0
        for i in sorted(range(n), key=values.__getitem__):
            mask |= (seen >> i) << (i * (n + 1))
            seen |= 1 << i
        return mask


class Pattern(FrozenSlots):
    """The rank sequence of a prefix: a permutation of {1..n}."""

    __slots__ = _fields = ("ranks",)
    ranks: Tuple[int, ...]

    def __init__(self, ranks: Tuple[int, ...]):
        n = len(ranks)
        # n values that include each of 1..n are a permutation of it: O(n),
        # where a sort was O(n log n)
        if not set(ranks).issuperset(range(1, n + 1)):
            raise EnumOrderError(f"ranks {ranks} are not a permutation of 1..{n}")
        object.__setattr__(self, "ranks", ranks)


class ReducibilityVerdict(NamedTuple):
    """Holds, or the lexicographically least position pair where it fails.

    A failure witness (i, j) has i < j, f(i) > f(j) and g(i) < g(j).
    """

    fail_at: Optional[PositionPair] = None

    @property
    def holds(self) -> bool:
        return self.fail_at is None


# the one holding verdict: frozen, and equal to any other by value
_HOLDS = ReducibilityVerdict()


@functools.cache
def _failure_at(i: int, j: int) -> ReducibilityVerdict:
    """The shared failing verdict at the 0-based pair i < j; leq_eo's small
    path asks only for i < j < LEQ_EO_SMALL_N, so at most 496 are kept."""
    return ReducibilityVerdict(fail_at=(i + 1, j + 1))


class SetSample(FrozenSlots):
    """A finite stand-in for a set: its elements up to a declared bound.

    The sample is complete below `bound`: it equals the true set intersected
    with [1..bound].
    """

    __slots__ = _fields = ("elements", "bound")
    elements: frozenset
    bound: int

    def __init__(self, elements: frozenset, bound: int):
        if any(e > bound for e in elements):
            raise EnumOrderError(f"element above declared bound {bound}")
        if any(e < 1 for e in elements):
            raise ZeroValue()
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "bound", bound)


def parse_naturals(
    tokens: Sequence[str], error: Optional[Exception] = None, low: int = 0
) -> List[int]:
    """The one parser of naturals from outside text: ASCII digits only, so
    no sign, underscore, space or other script's digits, and no more digits
    than int() reads.  The first bad token, or one below `low`, raises `error`,
    or else an EnumOrderError naming its 1-based index and first 40 characters."""
    values = []
    for index, token in enumerate(tokens, 1):
        value = -1  # stays below any `low` unless the token reads as a natural
        if token.isascii() and token.isdigit():
            try:
                value = int(token)
            except ValueError:  # more digits than int() reads
                pass
        if value < low:
            raise error or EnumOrderError(f"token {index} is not a natural: {token[:40]!r}")
        values.append(value)
    return values


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
        raise TooLarge("prefix length", n, MAX_INVERSIONS_N)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if vals[i - 1] > vals[j - 1]
    )


def standardize(p: PrefixListing) -> Pattern:
    """Rank each value within the prefix: ranks[i] = |{j : p(j) <= p(i)}|,
    read from its cached `ranks`, whose tuple the pattern shares."""
    return Pattern(p.ranks)


def leq_eo(f: PrefixListing, g: PrefixListing) -> ReducibilityVerdict:
    """Is every inversion of f also an inversion of g?

    Returns the lexicographically least violating (i, j) on failure.  Up to
    LEQ_EO_SMALL_N positions the inversions missing from g are one AND-NOT
    of the cached `inversion_mask`s, and the lowest missing bit is the least
    witness; above it, a Fenwick scan in O(n log n) time and O(n) space
    finds the same witness.
    """
    n, m = len(f.values), len(g.values)
    if n != m:
        raise LengthMismatch(n, m)
    if n > LEQ_EO_SMALL_N:
        fail_at = _fenwick_fail_at(f, g)
        return _HOLDS if fail_at is None else ReducibilityVerdict(fail_at=fail_at)
    missing = f.inversion_mask & ~g.inversion_mask
    if not missing:
        return _HOLDS
    return _failure_at(*divmod((missing & -missing).bit_length() - 1, n))


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
    decided by comparing the two cached rank sequences: O(n log n) on a
    listing's first call, O(n) after, with no small-n path.
    """
    n, m = len(f.values), len(g.values)
    if n != m:
        raise LengthMismatch(n, m)
    return f.ranks == g.ranks


def ascending_listing(s: SetSample) -> PrefixListing:
    """The minimal listing of a sample: its elements in increasing order."""
    return PrefixListing(tuple(sorted(s.elements)))
