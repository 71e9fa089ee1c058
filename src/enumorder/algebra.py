"""Constructive listing manipulations: inverse lookup, transport through an
equivalent pair, and repeat detection in descending reducibility chains.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import EnumOrderError, LengthMismatch, TooLarge, ValueAbsent
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
            if len(a) != len(b):
                raise LengthMismatch(len(a), len(b))
            if not first.issuperset(b.values):
                raise EnumOrderError(f"value set changes at step {k + 1}")
            if not leq_eo(b, a).holds:
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
        raise ValueAbsent(v) from None


def transport(h: PrefixListing, h_prime: PrefixListing, g_prime: PrefixListing) -> PrefixListing:
    """Carry the order of h over to g_prime's value set.

    Position i receives g_prime at the position where h_prime enumerates
    h(i).  When g_prime and h_prime are order-equivalent, the result is
    order-equivalent to h.  O(n) through h_prime's cached position map.
    """
    if len(h) != len(h_prime):
        raise LengthMismatch(len(h), len(h_prime))
    if len(h) != len(g_prime):
        raise LengthMismatch(len(h), len(g_prime))
    gv, pos = g_prime.values, h_prime.positions
    # equal lengths and distinct values: every h value has a position in
    # h_prime exactly when the two value sets are equal
    try:
        return PrefixListing(tuple([gv[pos[v] - 1] for v in h.values]))
    except KeyError:
        raise EnumOrderError("h and h_prime enumerate different values") from None


def chain_stabilize(c: Chain) -> Optional[Tuple[int, int]]:
    """Least (i, j), i < j, with identical listings at both indices.

    "Least" is lexicographic on (j, i): the earliest step at which the chain
    revisits a listing, paired with the first earlier occurrence.  Returns
    None when the finite chain never repeats.  After validation, one pass
    over the L listings with a map from each listing to its first index:
    O(L) hashes.
    """
    c.validate()
    first = {}
    for j, listing in enumerate(c.listings, start=1):
        i = first.setdefault(listing, j)
        if i != j:
            return (i, j)
    return None


def make_strict_chain(n: int) -> Chain:
    """A maximal strictly descending chain over {1..n}.

    Starts at the full reversal and removes exactly one inversion per step by
    swapping an adjacent value pair that occurs out of order, ending at the
    ascending listing after n(n-1)/2 steps.  Refuses n > MAX_CHAIN_N with
    TooLarge, since the output grows as n cubed.
    """
    if n < 1:
        raise EnumOrderError("n must be >= 1")
    if n > MAX_CHAIN_N:
        raise TooLarge("listing length", n, MAX_CHAIN_N)
    current = list(range(n, 0, -1))
    out = [PrefixListing(tuple(current))]
    pos = {v: i for i, v in enumerate(current)}
    while True:
        # smallest adjacent value pair (k, k+1) enumerated in the wrong order
        k = next((k for k in range(1, n) if pos[k + 1] < pos[k]), None)
        if k is None:
            break
        i, j = pos[k + 1], pos[k]
        current[i], current[j] = current[j], current[i]
        pos[k], pos[k + 1] = i, j
        out.append(PrefixListing(tuple(current)))
    return Chain(tuple(out))
