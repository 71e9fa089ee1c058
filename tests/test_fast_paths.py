"""The near-linear paths against the quadratic loops they replaced.

Each reference below is the straightforward loop: the double loop for the
least reducibility witness, tuple.index for positions, the pairwise scan for
chain repeats.  The Fenwick kernel is checked exhaustively at small n, and
the public entries with hypothesis at sizes well above leq_eo's small-n
threshold, where the fast paths run.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumorder.algebra import (
    Chain,
    chain_stabilize,
    inverse_lookup,
    make_strict_chain,
    transport,
)
from enumorder.errors import DuplicateValue, EnumOrderError, ValueAbsent, ZeroValue
from enumorder.prefixes import (
    LEQ_EO_SMALL_N,
    PrefixListing,
    _fenwick_fail_at,
    equiv_eo,
    leq_eo,
    make_prefix,
)

MAX_N = 400


def least_witness(fv, gv):
    # the lexicographically least (i, j), 1-based, with fv[i] > fv[j] and gv[i] < gv[j]
    n = len(fv)
    for i in range(n):
        for j in range(i + 1, n):
            if fv[i] > fv[j] and gv[i] < gv[j]:
                return (i + 1, j + 1)
    return None


def first_invalid(values):
    """The loop make_prefix validated with before construction did:
    (error type, offending value) for the first value below 1 or the first
    repeat, or None."""
    seen = set()
    for v in values:
        if v < 1:
            return ZeroValue, None
        if v in seen:
            return DuplicateValue, v
        seen.add(v)
    return None


def pairwise_repeat(listings):
    # least (i, j) with equal listings, minimizing j first
    for j in range(2, len(listings) + 1):
        for i in range(1, j):
            if listings[i - 1] == listings[j - 1]:
                return (i, j)
    return None


def plant_value_swap(values, k):
    """Swap the values k and k + 1 wherever they stand.

    On a permutation of 1..n this adds or removes exactly one inversion, the
    one between the two positions, so a listing compared with its own
    swapped copy fails reducibility at that pair alone, in one direction.
    """
    out = list(values)
    i, j = out.index(k), out.index(k + 1)
    out[i], out[j] = k + 1, k
    return tuple(out)


# permutations of up to MAX_N values come from a drawn seed: drawing each
# value through hypothesis took most of these tests' time
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def listing_pairs(draw, max_n=MAX_N):
    """Two permutations of 1..n, the second relabelled to other values.

    Either independent, or a copy of the first with one planted value swap
    (so the only possible witness can sit anywhere, deep in the listing
    included), or an exact copy.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = random.Random(draw(seeds))
    f = tuple(rng.sample(range(1, n + 1), n))
    kind = draw(st.sampled_from(["independent", "planted", "copy"]))
    if kind == "independent":
        g = tuple(rng.sample(range(1, n + 1), n))
    elif kind == "planted" and n >= 2:
        g = plant_value_swap(f, draw(st.integers(min_value=1, max_value=n - 1)))
    else:
        g = f
    scale = draw(st.integers(min_value=1, max_value=3))
    return f, tuple(scale * v + 7 for v in g)


class TestFenwickKernel:
    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_on_permutations(self, n):
        perms = [PrefixListing(p) for p in itertools.permutations(range(1, n + 1))]
        for f, g in itertools.product(perms, repeat=2):
            assert _fenwick_fail_at(f, g) == least_witness(f.values, g.values)

    @pytest.mark.parametrize("n", range(5))
    def test_exhaustive_with_repeated_values(self, n):
        # the scan is never handed a repeat: construction refuses every
        # sequence over {0..3}^n the validating loop refuses, with the same
        # error and value, and builds every other one
        for seq in itertools.product(range(4), repeat=n):
            expected = first_invalid(seq)
            for build in (PrefixListing, make_prefix):
                if expected is None:
                    assert build(seq).values == seq
                    continue
                with pytest.raises(EnumOrderError) as exc:
                    build(seq)
                assert (type(exc.value), getattr(exc.value, "value", None)) == expected
        for perm in itertools.permutations(range(1, n + 1)):
            assert PrefixListing(perm).values == perm


class TestLeqEoFastPath:
    @settings(deadline=None)
    @given(listing_pairs())
    def test_least_witness_both_directions(self, pair):
        fv, gv = pair
        f, g = PrefixListing(fv), PrefixListing(gv)
        assert leq_eo(f, g).fail_at == least_witness(fv, gv)
        assert leq_eo(g, f).fail_at == least_witness(gv, fv)

    @pytest.mark.parametrize("n", [LEQ_EO_SMALL_N + 1, 100, 400])
    def test_planted_failure_at_the_last_pair(self, n):
        # the only violation sits at the very end of the scan order
        asc = tuple(range(1, n + 1))
        swapped = asc[:-2] + (n, n - 1)
        assert leq_eo(PrefixListing(swapped), PrefixListing(asc)).fail_at == (n - 1, n)
        assert leq_eo(PrefixListing(asc), PrefixListing(swapped)).holds


class TestEquivEoFastPath:
    @settings(deadline=None)
    @given(listing_pairs())
    def test_matches_two_way_double_loop(self, pair):
        fv, gv = pair
        expected = least_witness(fv, gv) is None and least_witness(gv, fv) is None
        assert equiv_eo(PrefixListing(fv), PrefixListing(gv)) == expected


class TestPositionIndex:
    @given(
        st.lists(st.integers(min_value=1, max_value=60), unique=True, max_size=MAX_N),
        st.integers(min_value=1, max_value=70),
    )
    def test_inverse_lookup_matches_tuple_index(self, values, v):
        p = PrefixListing(tuple(values))
        if v in values:
            assert inverse_lookup(p, v) == values.index(v) + 1
        else:
            with pytest.raises(ValueAbsent) as exc:
                inverse_lookup(p, v)
            assert exc.value.value == v

    @settings(deadline=None)
    @given(listing_pairs(), seeds)
    def test_transport_matches_tuple_index(self, pair, seed):
        hv, gv = pair
        hpv = tuple(random.Random(seed).sample(hv, len(hv)))
        h, h_prime, g_prime = PrefixListing(hv), PrefixListing(hpv), PrefixListing(gv)
        expected = tuple(gv[hpv.index(v)] for v in hv)
        assert transport(h, h_prime, g_prime).values == expected


@st.composite
def chains(draw):
    """A descending chain: a subsequence of a maximal strict chain, with some
    listings repeated in place (repeats in a descending chain over one value
    set always stand next to each other)."""
    n = draw(st.integers(min_value=1, max_value=6))
    strict = make_strict_chain(n).listings
    keep = sorted(draw(st.sets(st.integers(0, len(strict) - 1), min_size=1)))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(keep), max_size=len(keep)))
    return tuple(strict[k] for k, c in zip(keep, counts) for _ in range(c))


class TestChainStabilizeFastPath:
    @given(chains())
    def test_matches_pairwise_scan(self, listings):
        assert chain_stabilize(Chain(listings)) == pairwise_repeat(listings)
