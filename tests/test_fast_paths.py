"""The near-linear paths against the quadratic loops they replaced.

Each reference below is the straightforward loop: the double loop for the
least reducibility witness, tuple.index for positions, the pairwise scan for
chain repeats, and sorting the values for ranks.  The Fenwick kernel, on
two rank tuples, leq_eo's inversion-mask path and its path through the rows
that can fail, whose restrictions are rank tuples too, are checked
exhaustively at small n, the last with the mask path switched off, and the
public entries with hypothesis both up to leq_eo's small-n threshold and
well above it, where one row search and one Fenwick scan run.  Inflating
each value of a small permutation to a block carries the oracle's own least
witness to 64 and 80 positions.  Up to 10^4 positions, past the double
loop's reach, leq_eo's verdicts are checked against an identity of
inversion counts that shares no code with the package.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumorder import prefixes
from enumorder.algebra import Chain, chain_stabilize, make_strict_chain, transport
from enumorder.errors import DuplicateValue, EnumOrderError, ZeroValue
from enumorder.oracle import _inversion_masks, _prefixes
from enumorder.prefixes import (
    LEQ_EO_MAX_DIFFERING,
    LEQ_EO_SMALL_N,
    PrefixListing,
    _fenwick_fail_at,
    _ranks,
    _rows_that_can_fail,
    equiv_eo,
    inverse_lookup,
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


def failing_pairs(fv, gv):
    # every 0-based (i, j), i < j, with fv[i] > fv[j] and gv[i] < gv[j]
    n = len(fv)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if fv[i] > fv[j] and gv[i] < gv[j]]


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


def plant_value_swap(values, k, w=1):
    """Swap the values k and k + w wherever they stand.

    On a permutation of 1..n with w = 1 this adds or removes exactly one
    inversion, the one between the two positions, so a listing compared
    with its own swapped copy fails reducibility at that pair alone, in one
    direction.  A larger w leaves the values k + 1 .. k + w - 1 at their
    positions and ranks, yet each can be the other end of a failing pair,
    so the rows leq_eo keeps include positions whose ranks are equal.
    """
    out = list(values)
    i, j = out.index(k), out.index(k + w)
    out[i], out[j] = k + w, k
    return tuple(out)


def plant_many_swaps(values, rng):
    # more value-adjacent swaps than leq_eo restricts to its rows, so the
    # Fenwick scan decides a pair that still differs by swaps alone
    for _ in range(LEQ_EO_MAX_DIFFERING + 1 + rng.randrange(LEQ_EO_MAX_DIFFERING)):
        values = plant_value_swap(values, rng.randrange(1, len(values)))
    return values


# permutations of up to MAX_N values come from a drawn seed: drawing each
# value through hypothesis took most of these tests' time
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def listing_pairs(draw, max_n=MAX_N):
    """Two permutations of 1..n, the second relabelled to other values.

    Either independent, or a copy of the first with one planted value swap
    (so the only possible witness can sit anywhere, deep in the listing
    included), or an exact copy.  A "bounded" copy swaps two adjacent
    positions, an adjacent failure that bounds the Fenwick scan, and also
    swaps the value at a position left of them with its neighbour value, so
    the least witness can lie left of the bound with a distant j.  A
    "moved" copy swaps two values w ranks apart, and a "many
    swaps" copy plants more value swaps than leq_eo's row restriction takes.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = random.Random(draw(seeds))
    f = tuple(rng.sample(range(1, n + 1), n))
    kind = draw(st.sampled_from(
        ["independent", "planted", "bounded", "moved", "many swaps", "copy"]))
    if kind == "independent":
        g = tuple(rng.sample(range(1, n + 1), n))
    elif kind == "planted" and n >= 2:
        g = plant_value_swap(f, draw(st.integers(min_value=1, max_value=n - 1)))
    elif kind == "moved" and n >= 2:
        w = draw(st.integers(min_value=1, max_value=n - 1))
        g = plant_value_swap(f, draw(st.integers(min_value=1, max_value=n - w)), w)
    elif kind == "many swaps" and n >= 2:
        g = plant_many_swaps(f, rng)
    elif kind == "bounded" and n >= 3:
        p = draw(st.integers(min_value=1, max_value=n - 2))
        g = list(f)
        g[p], g[p + 1] = g[p + 1], g[p]
        k = g[draw(st.integers(min_value=0, max_value=p - 1))]
        g = plant_value_swap(g, min(k, n - 1))
    else:
        g = f
    scale = draw(st.integers(min_value=1, max_value=3))
    return f, tuple(scale * v + 7 for v in g)


class TestFenwickKernel:
    @pytest.mark.parametrize("n", [*range(6), pytest.param(6, marks=pytest.mark.slow)])
    def test_exhaustive_on_permutations(self, n):
        perms = [PrefixListing(p) for p in itertools.permutations(range(1, n + 1))]
        for f, g in itertools.product(perms, repeat=2):
            want = least_witness(f.values, g.values)
            assert _fenwick_fail_at(f.ranks, g.ranks) == want
            # g is only compared, so an increasing relabelling of its ranks,
            # such as the g-ranks at leq_eo's rows, keeps the witness
            assert _fenwick_fail_at(f.ranks, tuple(3 * r + 7 for r in g.ranks)) == want

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


class TestRanks:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 40])
    @pytest.mark.parametrize("kind", ["1..n", "run above 1", "sparse"])
    def test_matches_sorted_index(self, n, kind):
        rng = random.Random(f"{kind}:{n}")
        low = {"1..n": 1, "run above 1": 1 + rng.randrange(1, 1000)}.get(kind)
        pool = range(low, low + n) if low else range(1, 10**6)
        values = tuple(rng.sample(pool, n))
        ordered = sorted(values)
        assert _ranks(values) == tuple(ordered.index(v) + 1 for v in values)


class TestRowRestriction:
    @pytest.mark.parametrize("n", [*range(6), pytest.param(6, marks=pytest.mark.slow)])
    def test_exhaustive_on_permutations(self, n, monkeypatch):
        # every ordered pair, g relabelled: the rows and both restrictions
        # come from ranks, and only f's restriction is ranked again.  With
        # the mask path off, each pair goes through the equal-ranks check,
        # the row search, the restriction and the kernel
        monkeypatch.setattr(prefixes, "LEQ_EO_SMALL_N", 0)
        perms = list(itertools.permutations(range(1, n + 1)))
        listings = [PrefixListing(p) for p in perms]
        relabelled = [PrefixListing(tuple(3 * v + 7 for v in p)) for p in perms]
        for fv, f in zip(perms, listings):
            for gv, g in zip(perms, relabelled):
                rows = _rows_that_can_fail(f.ranks, g.ranks)
                assert rows == sorted(set(rows))
                kept = set(rows)
                assert all(i in kept and j in kept for i, j in failing_pairs(fv, gv))
                assert leq_eo(f, g).fail_at == least_witness(fv, gv)


class TestLeqEoFastPath:
    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_on_permutations(self, n):
        # every ordered pair, g relabelled so that only its pattern agrees
        perms = list(itertools.permutations(range(1, n + 1)))
        listings = [PrefixListing(p) for p in perms]
        relabelled = [PrefixListing(tuple(3 * v + 7 for v in p)) for p in perms]
        for fv, f in zip(perms, listings):
            for gv, g in zip(perms, relabelled):
                assert leq_eo(f, g).fail_at == least_witness(fv, gv)

    @settings(deadline=None)
    @given(listing_pairs())
    def test_least_witness_both_directions(self, pair):
        fv, gv = pair
        f, g = PrefixListing(fv), PrefixListing(gv)
        assert leq_eo(f, g).fail_at == least_witness(fv, gv)
        assert leq_eo(g, f).fail_at == least_witness(gv, fv)

    @given(listing_pairs(max_n=LEQ_EO_SMALL_N))
    def test_least_witness_on_the_mask_path(self, pair):
        fv, gv = pair
        f, g = PrefixListing(fv), PrefixListing(gv)
        assert leq_eo(f, g).fail_at == least_witness(fv, gv)
        assert leq_eo(g, f).fail_at == least_witness(gv, fv)

    # 2, 31 and 32 put the last pair at the end of the mask's last row
    @pytest.mark.parametrize("n", [2, 31, LEQ_EO_SMALL_N, LEQ_EO_SMALL_N + 1, 100, 400])
    def test_planted_failure_at_the_last_pair(self, n):
        # the only violation sits at the very end of the scan order
        asc = tuple(range(1, n + 1))
        swapped = asc[:-2] + (n, n - 1)
        assert leq_eo(PrefixListing(swapped), PrefixListing(asc)).fail_at == (n - 1, n)
        assert leq_eo(PrefixListing(asc), PrefixListing(swapped)).holds

    @pytest.mark.parametrize("n", [LEQ_EO_SMALL_N + 1, 4096])
    def test_equal_patterns_skip_the_scan(self, n, monkeypatch):
        # each call above the mask path searches its rows at most once and
        # runs the kernel at most once; the lists hold each one's row count
        searched, scanned = [], []

        def counting_search(f, g):
            rows = _rows_that_can_fail(f, g)
            searched.append(None if rows is None else len(rows))
            return rows

        def counting_scan(f, g):
            scanned.append(len(f))
            return _fenwick_fail_at(f, g)

        monkeypatch.setattr(prefixes, "_rows_that_can_fail", counting_search)
        monkeypatch.setattr(prefixes, "_fenwick_fail_at", counting_scan)
        fv = tuple(random.Random(n).sample(range(1, n + 1), n))
        f, g = PrefixListing(fv), PrefixListing(tuple(3 * v + 7 for v in fv))
        assert leq_eo(f, g).holds and leq_eo(g, f).holds and leq_eo(f, f).holds
        assert searched == scanned == []
        # a value swap is decided by one kernel call on its two positions
        swapped = PrefixListing(plant_value_swap(fv, 1))
        leq_eo(f, swapped)
        leq_eo(swapped, f)
        assert searched == scanned == [2, 2]
        # an independent shuffle differs nearly everywhere: the kernel scans all n
        shuffled = PrefixListing(tuple(random.Random(n + 1).sample(fv, n)))
        leq_eo(f, shuffled)
        leq_eo(shuffled, f)
        assert len(searched) == 4 and scanned == [2, 2, n, n]
        # a swap w values apart keeps w + 1 rows: past the mask path's reach
        # at 4096, and each call still searches once
        w = min(LEQ_EO_SMALL_N + 8, n - 2)
        moved = PrefixListing(plant_value_swap(fv, 1, w))
        leq_eo(f, moved)
        leq_eo(moved, f)
        assert searched[4:] == scanned[4:] == [w + 1, w + 1]

    @pytest.mark.parametrize("n", [LEQ_EO_SMALL_N + 1, 4096])
    def test_only_f_restriction_is_ranked(self, n, monkeypatch):
        # with both listings' ranks warm, a value swap ranks one restriction
        # per direction, f's, which indexes the kernel's tree; g's is passed
        # as its ranks at the rows.  The list holds each call's length
        ranked = []

        def counting_ranks(seq):
            ranked.append(len(seq))
            return _ranks(seq)

        fv = tuple(random.Random(n).sample(range(1, n + 1), n))
        f, g = PrefixListing(fv), PrefixListing(plant_value_swap(fv, 1))
        assert len(f.ranks) == len(g.ranks) == n  # both warm
        monkeypatch.setattr(prefixes, "_ranks", counting_ranks)
        verdicts = [leq_eo(f, g).fail_at, leq_eo(g, f).fail_at]
        assert verdicts.count(None) == 1
        assert ranked == [2, 2]

    @pytest.mark.parametrize("n", [LEQ_EO_SMALL_N + 1, 4096])
    def test_a_restricted_pair_builds_no_listing(self, n):
        # the restrictions to the rows are rank tuples, not PrefixListings.
        # A listing is built by the checking constructor, which runs
        # __init__, or without the checks by calling PrefixListing.__new__,
        # which is object.__new__; a profile hook counts both.  Patching
        # __new__ on the class instead would leave it unable to build one
        # after the patch is undone
        fv = tuple(random.Random(n).sample(range(1, n + 1), n))
        f, g = PrefixListing(fv), PrefixListing(plant_value_swap(fv, 1))
        assert len(_rows_that_can_fail(f.ranks, g.ranks)) == 2
        init = PrefixListing.__init__.__code__
        built = []

        def count_builds(frame, event, arg):
            if (event == "call" and frame.f_code is init) or (
                    event == "c_call" and arg is object.__new__):
                built.append(event)

        def builds(call, *args):
            previous = sys.getprofile()
            sys.setprofile(count_builds)
            try:
                return call(*args)
            finally:
                sys.setprofile(previous)

        verdicts = [builds(leq_eo, f, g).fail_at, builds(leq_eo, g, f).fail_at]
        assert verdicts.count(None) == 1
        assert built == []
        # the hook sees both ways of building one
        builds(f.head, 1)
        builds(PrefixListing, fv)
        assert built == ["c_call", "call"]

    @pytest.mark.parametrize("n", [LEQ_EO_SMALL_N + 1, 4096])
    def test_the_scan_caches_only_ranks(self, n):
        # the row search and the Fenwick kernel read only ranks, so the only
        # index leq_eo leaves on a listing above the small path is its ranks
        fv = tuple(random.Random(n).sample(range(1, n + 1), n))
        adjacent = list(fv)
        adjacent[n // 2], adjacent[n // 2 + 1] = adjacent[n // 2 + 1], adjacent[n // 2]
        others = [tuple(range(1, n + 1)), tuple(adjacent), plant_value_swap(fv, n // 2), fv]
        for gv in others:
            f, g = PrefixListing(fv), PrefixListing(gv)
            leq_eo(f, g)
            leq_eo(g, f)
            assert list(vars(f)) == list(vars(g)) == ["ranks"]


def merge_inversions(values):
    """(sorted values, inversion count) by merge sort, with no package code."""
    if len(values) < 2:
        return list(values), 0
    half = len(values) // 2
    left, a = merge_inversions(values[:half])
    right, b = merge_inversions(values[half:])
    merged, count, i = [], a + b, 0
    for x in right:
        while i < len(left) and left[i] < x:
            merged.append(left[i])
            i += 1
        # each left value still unmerged is above x and stands before it
        count += len(left) - i
        merged.append(x)
    return merged + left[i:], count


def pattern(values):
    ranks = [0] * len(values)
    for rank, k in enumerate(sorted(range(len(values)), key=values.__getitem__), 1):
        ranks[k] = rank
    return ranks


def reducible_by_lengths(fv, gv):
    """f <=eo g on one pattern space as a length identity in the symmetric
    group (Bjorner and Brenti, Combinatorics of Coxeter Groups, ch. 3):
    inv(F) + inv(H) = inv(G), where F and G are the patterns and
    H(k) = G(pos_F(k))."""
    big_f, big_g = pattern(fv), pattern(gv)
    pos_f = [0] * len(big_f)
    for i, r in enumerate(big_f):
        pos_f[r - 1] = i
    big_h = [big_g[i] for i in pos_f]
    inv = [merge_inversions(p)[1] for p in (big_f, big_g, big_h)]
    return inv[0] + inv[2] == inv[1]


@st.composite
def large_pairs(draw):
    """A permutation of 1..n, n = 33..10^4, and an exact copy, a value swap,
    two values moved past w ranks, more value swaps than leq_eo restricts
    to its rows, an adjacent swap or an independent shuffle, relabelled to
    other values."""
    n = draw(st.integers(min_value=LEQ_EO_SMALL_N + 1, max_value=10_000))
    rng = random.Random(draw(seeds))
    f = tuple(rng.sample(range(1, n + 1), n))
    kind = draw(st.sampled_from(
        ["copy", "value swap", "moved", "many swaps", "adjacent swap", "shuffle"]))
    if kind == "value swap":
        g = plant_value_swap(f, rng.randrange(1, n))
    elif kind == "moved":
        w = rng.randrange(1, n)
        g = plant_value_swap(f, rng.randrange(1, n - w + 1), w)
    elif kind == "many swaps":
        g = plant_many_swaps(f, rng)
    elif kind == "adjacent swap":
        g, p = list(f), rng.randrange(n - 1)
        g[p], g[p + 1] = g[p + 1], g[p]
    elif kind == "shuffle":
        g = rng.sample(f, n)
    else:
        g = f
    return f, tuple(3 * v + 7 for v in g)


class TestLeqEoAtLargeN:
    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(large_pairs())
    def test_matches_the_length_identity(self, pair):
        for fv, gv in (pair, pair[::-1]):
            verdict = leq_eo(PrefixListing(fv), PrefixListing(gv))
            assert verdict.holds == reducible_by_lengths(fv, gv)
            if not verdict.holds:
                i, j = verdict.fail_at
                assert i < j and fv[i - 1] > fv[j - 1] and gv[i - 1] < gv[j - 1]


def inflate(perm, m):
    # each value v becomes the block (v - 1) * m + 1 .. (v - 1) * m + m
    return tuple((v - 1) * m + r for v in perm for r in range(1, m + 1))


class TestInflatedPairsAgainstTheOracle:
    """Every ordered pair of permutations of 1..k, each value inflated to an
    increasing block of m.  The inflated pair fails exactly when the base
    pair does: no pair inside a block is inverted, and two blocks compare as
    their base values.  So the least witness is the first position of each
    block of the base pair's least witness, read off the oracle's own masks
    with no package rank or mask."""

    @pytest.mark.parametrize("k, m", [
        (4, 16),
        pytest.param(5, 8, marks=pytest.mark.slow),
        pytest.param(5, 16, marks=pytest.mark.slow),
    ])
    def test_least_witness_from_the_oracle_masks(self, k, m):
        perms = _prefixes(k)
        masks = _inversion_masks(perms, k)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        inflated = [PrefixListing(inflate(p.values, m)) for p in perms]
        for f, fm in zip(inflated, masks):
            for g, gm in zip(inflated, masks):
                missing = fm & ~gm
                expected = None
                if missing:
                    i, j = pairs[(missing & -missing).bit_length() - 1]
                    expected = (i * m + 1, j * m + 1)
                assert leq_eo(f, g).fail_at == expected


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
            with pytest.raises(EnumOrderError, match=f"^value not enumerated in prefix: {v}$"):
                inverse_lookup(p, v)

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
