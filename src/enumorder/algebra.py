"""Constructive listing manipulations: inverse lookup, transport through an
equivalent pair, and repeat detection in descending reducibility chains.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import EnumOrderError, LengthMismatch, TooLarge
from .prefixes import FrozenSlots, PrefixListing, leq_eo

# make_strict_chain's output has n(n-1)/2 + 1 listings of n values, which
# is about 8.4M values at n = 256
MAX_CHAIN_N = 256


class Chain(FrozenSlots):
    """A descending reducibility chain: each listing reducible to the previous.

    All listings share one length and one value set; the descending invariant
    is checked by `validate`, not at construction, so callers can build
    candidate chains and ask.
    """

    __slots__ = _fields = ("listings",)
    listings: Tuple[PrefixListing, ...]

    def __init__(self, listings: Tuple[PrefixListing, ...]):
        object.__setattr__(self, "listings", listings)

    def __len__(self) -> int:
        return len(self.listings)

    def validate(self) -> None:
        # equal lengths and distinct values make one superset test per
        # listing against the first listing's values decide set equality
        first = set(self.listings[0].values) if self.listings else set()
        for k in range(len(self.listings) - 1):
            a, b = self.listings[k], self.listings[k + 1]
            if len(a.values) != len(b.values):
                raise LengthMismatch(len(a), len(b))
            if not first.issuperset(b.values):
                raise EnumOrderError(f"value set changes at step {k + 1}")
            if leq_eo(b, a).fail_at is not None:
                raise EnumOrderError(
                    f"chain not descending at step {k + 1}: "
                    f"listing {k + 2} is not reducible to listing {k + 1}"
                )


def inverse_lookup(p: PrefixListing, v: int) -> int:
    """The position at which p enumerates v.

    O(1) per call through p's cached position map, after an O(n) build on
    the first lookup into p.
    """
    try:
        return p.positions[v]
    except KeyError:
        raise EnumOrderError(f"value not enumerated in prefix: {v}") from None


def transport(h: PrefixListing, h_prime: PrefixListing, g_prime: PrefixListing) -> PrefixListing:
    """Carry the order of h over to g_prime's value set.

    Position i receives g_prime at the position where h_prime enumerates
    h(i).  When g_prime and h_prime are order-equivalent, the result is
    order-equivalent to h.  O(n) through h_prime's cached position map.
    """
    n = len(h.values)
    if n != len(h_prime.values):
        raise LengthMismatch(n, len(h_prime.values))
    if n != len(g_prime.values):
        raise LengthMismatch(n, len(g_prime.values))
    gv, pos = g_prime.values, h_prime.positions
    # equal lengths and distinct values: every h value has a position in
    # h_prime exactly when the two value sets are equal
    try:
        return PrefixListing(tuple([gv[pos[v] - 1] for v in h.values]))
    except KeyError:
        raise EnumOrderError("h and h_prime enumerate different values") from None


def chain_stabilize(c: Chain) -> Optional[Tuple[int, int]]:
    """Least (i, j), i < j, with identical listings at both indices.

    "Least" is lexicographic on (j, i); None when the chain never repeats.
    A validated chain has one value set, where <=eo is antisymmetric: equal
    inversion sets mean equal listings (the paper's non-antisymmetry needs
    two value sets).  So a listing at i and j sits at every index between,
    and the least repeat is the first pair of equal neighbours, (k, k + 1).
    """
    c.validate()
    ls = c.listings
    return next(((k, k + 1) for k in range(1, len(ls)) if ls[k - 1].values == ls[k].values), None)


def make_strict_chain(n: int) -> Chain:
    """A maximal strictly descending chain over {1..n}.

    Starts at the full reversal and removes exactly one inversion per step,
    ending at the ascending listing after n(n-1)/2 steps: the reduced word
    s1·s2s1·…·s(n-1)…s1 of the longest permutation, acting on values.  In
    round j = 1..n-1 the value at 0-based position p = n-j-1 trades places
    with positions p+j, p+j-1, .., p+1 in turn; each swap exchanges values
    k+1 and k, for k = j down to 1.  Refuses n > MAX_CHAIN_N with TooLarge,
    since the output grows as n cubed.
    """
    if n < 1:
        raise EnumOrderError("n must be >= 1")
    if n > MAX_CHAIN_N:
        raise TooLarge("listing length", n, MAX_CHAIN_N)
    current = list(range(n, 0, -1))
    out = [PrefixListing(tuple(current))]
    for p in range(n - 2, -1, -1):
        for q in range(n - 1, p, -1):
            current[p], current[q] = current[q], current[p]
            out.append(PrefixListing(tuple(current)))
    return Chain(tuple(out))
