"""Finite listing prefixes and their enumeration-order comparison.

A prefix is an initial segment of some listing of a set of naturals: a finite
sequence of distinct values >= 1, indexed by 1-based positions.  Two
equal-length prefixes are compared by their order inversions: f is reducible
to g when every inversion of f is also an inversion of g.
"""

from __future__ import annotations

import functools
from itertools import compress, count, islice
from operator import and_, gt, itemgetter, lt, ne
from typing import Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import DuplicateValue, EnumOrderError, LengthMismatch, TooLarge, ZeroValue

PositionPair = Tuple[int, int]

# up to this length leq_eo ANDs cached inversion masks.  On 400 fresh random
# pairs the mask path beats the rank path through 64 positions (32.6 against
# 49.7 ms at 64) and loses at 96 (61.0 against 27.2 ms; 2 cores, Python
# 3.11), so this is below the crossover; re-tuning it is ROADMAP item 5
LEQ_EO_SMALL_N = 32

# above the small path, leq_eo decides a pair whose values, or else ranks,
# differ at up to this many positions on the rows that can fail.  At 64,
# planted by value swaps on one value set, the whole call reads values only
# and takes 0.06 ms at n = 256 and 0.19-0.20 ms at n = 4096, against 0.09-0.10
# and 2.3-2.4 ms for the Fenwick scan alone on warm ranks.  The search gives
# up within ~3 us on a pair that differs nearly everywhere, and takes
# ~0.15 ms at n = 4096 on one that differs only at its end (2 cores,
# Python 3.11)
LEQ_EO_MAX_DIFFERING = 64

# inversions on a reversed listing of this many positions builds its 523,776
# pairs in 0.14-0.29 s at 77 MB peak RSS; the `inversions` command, which
# also sorts and prints them, takes 0.75-0.82 s and 125 MB as a subprocess
# (2 cores, Python 3.11).  The pairs grow four times per doubling
MAX_INVERSIONS_N = 1024


class FrozenSlots:
    """Base of the validated value classes: an immutable record in __slots__.

    A subclass lists its fields in `_fields` and stores them in __init__
    with object.__setattr__, after its checks.  Instances compare, hash and
    print by those fields, as a frozen dataclass does; assigning or
    deleting any attribute raises AttributeError.  A subclass that also
    declares a `__dict__` slot may keep derived indexes there, as
    `_cached` does: they stay outside `_fields`, so equality, hashing,
    repr, copy and pickle ignore them.
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


class _cached:
    """A derived index built on its first read on an instance, then stored
    in the instance `__dict__` under its own name, where every later read
    finds it first.  This is functools.cached_property without the lock
    that it takes on each first read on Python 3.10 and 3.11 (3.12 dropped
    the lock).  On the class it returns itself, with the function as
    `.func`."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class PrefixListing(FrozenSlots):
    """An initial segment of a listing: distinct naturals at positions 1..n.

    Construction rejects a value below 1 with ZeroValue and a repeated
    value with DuplicateValue (naming its first repeat).  Only `_unchecked`
    builds an instance without the checks, for values distinct and >= 1 by
    construction: `head`'s slice of a checked listing, and a Dovetail
    epoch's join of its kept codes and its own.
    The three derived indexes `ranks`, `positions` and `inversion_mask` are
    `_cached`: built on first read and kept in the instance `__dict__`,
    outside `_fields`.  Two threads that race on one first read each build
    the index and store equal values, so the race is harmless.
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

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, position: int) -> int:
        """Value at a 1-based position."""
        if not 1 <= position <= len(self.values):
            raise IndexError(f"position {position} outside 1..{len(self.values)}")
        return self.values[position - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def head(self, k: int) -> PrefixListing:
        """The first k >= 0 values (all of them when k >= n), without checks
        again: a prefix of distinct values >= 1 holds distinct values >= 1.
        The derived indexes start empty, built on first read as usual."""
        return _unchecked(self.values[:k])

    # derived indexes, each O(n) in size

    @_cached
    def ranks(self) -> Tuple[int, ...]:
        """Rank of each position's value, from 1, read off the argsort: the
        listing's pattern."""
        return _ranks(self.values)

    @_cached
    def positions(self) -> Mapping[int, int]:
        """Each value's 1-based position.  Shared by every caller: read it,
        never change it."""
        return dict(zip(self.values, range(1, len(self.values) + 1)))

    @_cached
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


def _unchecked(values: Tuple[int, ...]) -> PrefixListing:
    """A PrefixListing of values its caller knows are distinct and >= 1,
    built without the constructor's checks."""
    listing = PrefixListing.__new__(PrefixListing)
    object.__setattr__(listing, "values", values)
    return listing


def inverse_lookup(p: PrefixListing, v: int) -> int:
    """The position at which p enumerates v.

    O(1) per call through p's cached position map, after an O(n) build on
    the first lookup into p.
    """
    try:
        return p.positions[v]
    except KeyError:
        raise EnumOrderError(f"value not enumerated in prefix: {v}") from None


def _ranks(seq: Tuple[int, ...]) -> Tuple[int, ...]:
    """Rank of each item of a tuple of distinct ints, from 1: the argsort,
    scattered."""
    ranks = [0] * len(seq)
    for rank, k in enumerate(sorted(range(len(seq)), key=seq.__getitem__), 1):
        ranks[k] = rank
    return tuple(ranks)


class Pattern(FrozenSlots):
    """The rank sequence of a prefix: a permutation of {1..n}."""

    __slots__ = _fields = ("ranks",)
    ranks: Tuple[int, ...]

    def __init__(self, ranks: Tuple[int, ...]):
        n = len(ranks)
        # n values that include each of 1..n are a permutation of it
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
def _failure_at(low: int, n: int) -> ReducibilityVerdict:
    """The shared failing verdict for `low`, the lowest bit of f's
    n-position inversion mask that g's lacks: bit i*n + j stands for the
    0-based pair i < j, decoded only on a cache miss.  It is keyed by (low, n), and
    leq_eo's small path asks only for i < j < n <= LEQ_EO_SMALL_N, so at
    most C(33, 3) = 5,456 verdicts are kept."""
    i, j = divmod(low.bit_length() - 1, n)
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
        if elements and max(elements) > bound:
            raise EnumOrderError(f"element above declared bound {bound}")
        if elements and min(elements) < 1:
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
    witness.  Above it, the rows that can fail (`_rows_that_can_fail`) are
    read off the values, in O(n) C-level passes and with no rank sort, and
    only when the values give none, off the cached ranks; equal values, or
    equal patterns, hold at once.  One Fenwick scan (`_fenwick_fail_at`),
    in O(n log n) time and O(n) space, then finds the witness: on f's ranks
    and g's entries when there are no rows or every position is one, else
    on f and g restricted to the rows, f's restriction ranked.  A pair of
    rows fails in the restrictions exactly when it fails in f and g, and
    the map from a row's index to its position is increasing, so the least
    witness maps back to the least witness.
    """
    n, m = len(f.values), len(g.values)
    if n != m:
        raise LengthMismatch(n, m)
    if n <= LEQ_EO_SMALL_N:
        missing = f.inversion_mask & ~g.inversion_mask
        if not missing:
            return _HOLDS
        return _failure_at(missing & -missing, n)
    for kind in ("values", "ranks"):
        fx, gx = getattr(f, kind), getattr(g, kind)
        # at n = 4096 this costs ~16 us, a tenth of the ~170 us D search it spares an equal pair
        if fx == gx:
            return _HOLDS
        rows = _rows_that_can_fail(fx, gx)
        if rows is not None:
            break
    if rows is None or len(rows) == n:
        fail_at = _fenwick_fail_at(f.ranks, gx)
    else:
        fail_at = _fenwick_fail_at(_ranks(tuple(map(fx.__getitem__, rows))),
                                   tuple(map(gx.__getitem__, rows)))
        if fail_at is not None:
            i, j = fail_at
            fail_at = (rows[i - 1] + 1, rows[j - 1] + 1)
    return _HOLDS if fail_at is None else ReducibilityVerdict(fail_at=fail_at)


def _rows_that_can_fail(fx: Tuple[int, ...], gx: Tuple[int, ...]) -> Optional[List[int]]:
    """0-based positions, ascending, that hold both ends of every failing
    pair of leq_eo(f, g), where fx and gx are f's and g's values or their
    ranks: any two equal-length tuples of distinct ints >= 1.  D, the
    positions where they differ, is found by a lazy C-level scan that stops
    past LEQ_EO_MAX_DIFFERING.  None when D is past it, or is every
    position, where the rows would save nothing; or when the flags below
    would take a byte per value up to max(fx) > 8n, more than the 8 bytes
    per position of a ranks tuple.

    A failing pair i < j has f-entries a > b and g-entries a' < b', so an
    end d lies in D: else a = a' < b' = b < a.  The other end lies in D
    too, or has one entry v in both; then v lies strictly between fx[d] and
    gx[d].  So the rows are D and the positions whose f-entry lies inside
    those intervals.  An interval of two adjacent integers holds no v, so a
    pair whose entries differ by 1 at each position of D keeps D alone.
    """
    differ = list(islice(compress(count(), map(ne, fx, gx)), LEQ_EO_MAX_DIFFERING + 1))
    if len(differ) > LEQ_EO_MAX_DIFFERING or len(differ) == len(fx):
        return None
    if all(abs(fx[d] - gx[d]) == 1 for d in differ):
        return differ
    top = max(fx)
    if top > 8 * len(fx):
        return None
    # flag each closed interval: an end is an entry of D, which no position
    # outside D holds in f or in g, so one C-level gather of the flags at fx
    # keeps D and the positions inside.  Clipping at top, above which no
    # f-entry lies, changes no gathered flag and keeps a huge g-entry from
    # sizing the flags.  D holds a position and misses one, so fx holds
    # two, and itemgetter returns a tuple
    flags = bytearray(top + 1)
    for d in differ:
        lo, hi = sorted((fx[d], min(gx[d], top)))
        flags[lo : hi + 1] = b"\1" * (hi - lo + 1)
    return list(compress(count(), itemgetter(*fx)(flags)))


def _fenwick_fail_at(fr: Tuple[int, ...], gr: Tuple[int, ...]) -> Optional[PositionPair]:
    """leq_eo's least witness by a right-to-left Fenwick prefix-max scan, on
    f's and g's ranks or on their restrictions to the rows.

    Position i fails when some j > i has fr[j] < fr[i] and gr[j] > gr[i].
    The tree is indexed by f-rank, so fr holds the ranks 1..n; gr is only
    compared, so any distinct ints >= 1 serve.  It holds the largest gr
    inserted at or below each f-rank (0 when none); positions are inserted
    right to left, so a query before inserting i sees exactly the j > i.
    The first adjacent failure, where fr descends and gr ascends, fails and
    bounds the answer; a lazy C-level scan stops at it.  The rows from it
    on are loaded at once, the max-tree is built over them bottom-up in
    O(n), and only the rows left of it are queried.  The least failing i is
    the last one flagged, and a linear scan from it finds the least j.
    """
    n = len(fr)
    tree = [0] * (n + 1)
    least = None
    bound = next(compress(count(), map(and_, map(gt, fr, islice(fr, 1, None)),
                                       map(lt, gr, islice(gr, 1, None)))), n)
    if bound < n:
        least = bound
        for k in range(bound, n):
            tree[fr[k]] = gr[k]
        for r in range(1, n + 1):
            up = r + (r & -r)
            if up <= n and tree[up] < tree[r]:
                tree[up] = tree[r]
    for i in range(bound - 1, -1, -1):
        b = gr[i]
        # stop at the first node above b; the tree holds other positions'
        # g-ranks, never b itself
        r = fr[i] - 1
        while r and tree[r] < b:
            r &= r - 1
        if r:
            least = i
        # each node on the update path covers its predecessor's range, so
        # once one already holds b or more, all later ones do
        r = fr[i]
        while r <= n and tree[r] < b:
            tree[r] = b
            r += r & -r
    if least is None:
        return None
    a, b = fr[least], gr[least]
    j = next(j for j in range(least + 1, n) if fr[j] < a and gr[j] > b)
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
