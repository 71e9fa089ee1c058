import itertools
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumorder.errors import DuplicateValue, EnumOrderError, LengthMismatch, TooLarge, ZeroValue
from enumorder.prefixes import (
    MAX_INVERSIONS_N,
    Pattern,
    PrefixListing,
    SetSample,
    ascending_listing,
    equiv_eo,
    inversions,
    leq_eo,
    make_prefix,
    parse_naturals,
    standardize,
)

distinct_naturals = st.lists(
    st.integers(min_value=1, max_value=200), unique=True, max_size=8
)


def brute_inversions(values):
    # independent double loop over all index pairs
    n = len(values)
    return {
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if values[i] > values[j]
    }


class TestMakePrefix:
    def test_basic(self):
        assert make_prefix([2, 4, 6]).values == (2, 4, 6)

    def test_empty(self):
        assert len(make_prefix([])) == 0

    def test_duplicate(self):
        with pytest.raises(DuplicateValue) as exc:
            make_prefix([3, 3])
        assert exc.value.value == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroValue):
            make_prefix([0, 1])

    def test_positions_are_one_based(self):
        p = make_prefix([5, 9])
        assert p(1) == 5 and p(2) == 9

    @pytest.mark.parametrize("position", [0, 3, -1])
    def test_position_outside_is_refused(self, position):
        # a tuple would read position 0 or -1 from the end
        with pytest.raises(IndexError, match=rf"^position {position} outside 1\.\.2$"):
            make_prefix([5, 9])(position)


class TestHead:
    VALUES = (7, 3, 9, 1, 4)

    def test_equals_the_checked_prefix(self):
        p = PrefixListing(self.VALUES)
        for k in range(len(self.VALUES) + 2):
            head = p.head(k)
            assert type(head) is PrefixListing
            assert head == PrefixListing(self.VALUES[:k]), k
            assert head.ranks == PrefixListing(self.VALUES[:k]).ranks, k

    def test_shares_no_cached_index(self):
        p = PrefixListing(self.VALUES)
        p.ranks, p.positions, p.inversion_mask
        head = p.head(3)
        assert head.__dict__ == {}
        assert head.positions == {7: 1, 3: 2, 9: 3}
        assert len(p.positions) == 5


class TestDerivedIndexes:
    VALUES = (7, 3, 9, 1, 4)

    @pytest.mark.parametrize("name", ["ranks", "positions", "inversion_mask"])
    @pytest.mark.parametrize("built", ["fresh", "head"])
    def test_built_once_per_instance(self, monkeypatch, built, name):
        index = PrefixListing.__dict__[name]
        build, calls = index.func, []

        def counted(p):
            calls.append(p)
            return build(p)

        monkeypatch.setattr(index, "func", counted)
        checked = PrefixListing(self.VALUES)
        p = checked if built == "fresh" else PrefixListing(self.VALUES + (2,)).head(5)
        first = getattr(p, name)
        second = getattr(p, name)
        assert len(calls) == 1 and calls[0] is p
        assert vars(p) == {name: first} and second is first
        assert first == build(checked)

    def test_read_on_the_class(self):
        index = PrefixListing.ranks
        assert index.func.__name__ == "ranks"
        assert index.__doc__ == index.func.__doc__ and "argsort" in index.__doc__


def brute_naturals(tokens):
    """The 1-based index of the first token that is not ASCII digits, or
    the tokens as ints."""
    for index, token in enumerate(tokens, 1):
        if not re.fullmatch("[0-9]+", token):
            return index
    return [int(token) for token in tokens]


class TestParseNaturals:
    def test_ascii_digits(self):
        assert parse_naturals(["007", "0", "12"]) == [7, 0, 12]
        assert parse_naturals([]) == []

    @pytest.mark.parametrize(
        "tokens, index",
        [(["1_0"], 1), (["2", "+2"], 2), (["\u0663"], 1), (["1", "\u00b2"], 2),
         (["1", ""], 2), (["-1"], 1), ([" 3"], 1), (["3", "9" * 5000, "x"], 2)],
    )
    def test_names_the_first_bad_token(self, tokens, index):
        with pytest.raises(EnumOrderError) as exc:
            parse_naturals(tokens)
        shown = tokens[index - 1][:40]
        assert str(exc.value) == f"token {index} is not a natural: {shown!r}"

    def test_raises_the_given_error(self):
        error = EnumOrderError("bad m line")
        with pytest.raises(EnumOrderError) as exc:
            parse_naturals(["1", "+1"], error)
        assert exc.value is error
        assert parse_naturals(["1"], error) == [1]

    def test_refuses_a_token_below_low(self):
        assert parse_naturals(["1", "01"], low=1) == [1, 1]
        with pytest.raises(EnumOrderError, match="^token 2 is not a natural: '00'$"):
            parse_naturals(["1", "00"], low=1)

    @given(st.lists(st.text(alphabet="0129_+- \u0663\u00b2x", max_size=4), max_size=5))
    def test_matches_a_regex_reference(self, tokens):
        expected = brute_naturals(tokens)
        if isinstance(expected, list):
            assert parse_naturals(tokens) == expected
        else:
            with pytest.raises(EnumOrderError, match=f"^token {expected} is not"):
                parse_naturals(tokens)


class TestInversions:
    def test_ascending_has_none(self):
        assert inversions(make_prefix([2, 4, 6, 8])) == ()

    def test_single_descent(self):
        assert inversions(make_prefix([3, 1, 2])) == ((1, 2), (1, 3))

    def test_full_reversal(self):
        assert inversions(make_prefix([3, 2, 1])) == ((1, 2), (1, 3), (2, 3))

    @given(distinct_naturals)
    def test_matches_double_loop(self, values):
        assert inversions(make_prefix(values)) == tuple(sorted(brute_inversions(values)))

    def test_refuses_more_than_the_cap(self):
        assert inversions(make_prefix(range(1, MAX_INVERSIONS_N + 1))) == ()
        with pytest.raises(TooLarge):
            inversions(make_prefix(range(1, MAX_INVERSIONS_N + 2)))

    @pytest.mark.parametrize("n", range(8))
    def test_counts_are_mahonian(self, n):
        # the listings of {1..n} by inversion count are the coefficients of
        # prod_{k=1..n} (1 + q + ... + q^(k-1)) (Rodrigues, 1839)
        want = [1]
        for k in range(1, n + 1):
            product = [0] * (len(want) + k - 1)
            for i, c in enumerate(want):
                for j in range(k):
                    product[i + j] += c
            want = product
        got = [0] * len(want)
        for perm in itertools.permutations(range(1, n + 1)):
            got[len(inversions(PrefixListing(perm)))] += 1
        assert got == want


class TestStandardize:
    def test_ascending_is_identity(self):
        assert standardize(make_prefix([2, 4, 6])).ranks == (1, 2, 3)

    def test_rank_by_counting(self):
        assert standardize(make_prefix([6, 2, 4])).ranks == (3, 1, 2)

    def test_permutation_is_own_pattern(self):
        assert standardize(make_prefix([3, 1, 2])).ranks == (3, 1, 2)

    def test_reads_the_cached_ranks(self):
        p = make_prefix([6, 2, 4])
        assert standardize(p).ranks is p.ranks

    @given(distinct_naturals)
    def test_counting_oracle(self, values):
        ranks = standardize(make_prefix(values)).ranks
        for i, v in enumerate(values):
            assert ranks[i] == sum(1 for w in values if w <= v)

    @given(distinct_naturals)
    def test_preserves_inversions(self, values):
        p = make_prefix(values)
        assert inversions(PrefixListing(standardize(p).ranks)) == inversions(p)

    def test_pattern_validates(self):
        with pytest.raises(ValueError):
            Pattern((1, 3))

    # a repeat, a 0, the value n + 1, and a value between two ranks, each in
    # ranks whose least is 1 or whose greatest is n
    @pytest.mark.parametrize(
        "ranks", [(1, 2, 2), (2, 1, 1, 4), (0, 1, 2), (2, 0, 3), (1, 2, 4), (4, 3, 1), (1, 1.5, 3)]
    )
    def test_pattern_rejects_non_permutations(self, ranks):
        with pytest.raises(ValueError) as info:
            Pattern(ranks)
        assert str(info.value) == f"ranks {ranks} are not a permutation of 1..{len(ranks)}"

    @given(st.lists(st.integers(-1, 7), max_size=6))
    def test_pattern_accepts_exactly_the_permutations(self, ranks):
        is_permutation = sorted(ranks) == list(range(1, len(ranks) + 1))
        try:
            Pattern(tuple(ranks))
        except ValueError:
            assert not is_permutation
        else:
            assert is_permutation


class TestLeqEo:
    def test_doubling_vs_shift(self):
        assert leq_eo(make_prefix([2, 4, 6]), make_prefix([2, 3, 4])).holds

    def test_least_failure_witness(self):
        v = leq_eo(make_prefix([1, 3, 2]), make_prefix([1, 2, 3]))
        assert v.fail_at == (2, 3)

    def test_reflexive(self):
        p = make_prefix([5, 9, 7])
        assert leq_eo(p, p).holds

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            leq_eo(make_prefix([1]), make_prefix([1, 2]))

    def test_witness_is_lex_least(self):
        # both (1,3) and (2,3) violate; (1,3) comes first
        f = make_prefix([3, 2, 1])
        g = make_prefix([2, 1, 3])
        assert leq_eo(f, g).fail_at == (1, 3)

    @pytest.mark.parametrize("every_pair", range(5), indirect=True)
    def test_subset_characterization_exhaustive(self, every_pair):
        # f <=eo g holds exactly when no pair fails, by conftest's double
        # loop, and exactly when f's inversions are a subset of g's
        perms, failing = every_pair
        listings = [PrefixListing(p) for p in perms]
        inverted = [brute_inversions(p) for p in perms]
        for f, fi, row in zip(listings, inverted, failing):
            for g, gi, fails in zip(listings, inverted, row):
                assert leq_eo(f, g).holds == (not fails) == (fi <= gi)


class TestEquivEo:
    def test_doubling_vs_shift(self):
        assert equiv_eo(make_prefix([2, 4, 6]), make_prefix([2, 3, 4]))

    def test_non_antisymmetry_witness(self):
        f, g = make_prefix([2, 4]), make_prefix([5, 9])
        assert f != g and equiv_eo(f, g)

    def test_strict_pair(self):
        assert not equiv_eo(make_prefix([1, 3, 2]), make_prefix([1, 2, 3]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            equiv_eo(make_prefix([1, 2]), make_prefix([1, 2, 3]))

    @given(distinct_naturals, distinct_naturals)
    def test_agrees_with_pattern_equality(self, a, b):
        if len(a) != len(b):
            return
        f, g = make_prefix(a), make_prefix(b)
        assert equiv_eo(f, g) == (standardize(f) == standardize(g))


def leq_eo_up_sets(n):
    """The listings of {1..n} and, for each, the bitmask of its up-set read
    from n!^2 leq_eo verdicts: bit m is set when it is reducible to the m-th."""
    listings = [PrefixListing(p) for p in itertools.permutations(range(1, n + 1))]
    up = [
        sum(1 << m for m, g in enumerate(listings) if leq_eo(f, g).holds)
        for f in listings
    ]
    return listings, up


def cover_up_sets(n):
    """The same up-set bitmasks, and the number of covers, built without
    leq_eo by closing the cover relation of the weak order.

    A cover swaps the values k and k + 1 where k comes first: that adds the
    one inversion of their two positions and changes no other pair.
    Listings are closed in decreasing inversion count, so the up-set of each
    cover is complete before it is read.
    """
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    up = [0] * len(perms)
    covers = 0
    for p in sorted(perms, key=lambda p: len(brute_inversions(p)), reverse=True):
        mask = 1 << index[p]
        for k in range(1, n):
            a, b = p.index(k), p.index(k + 1)
            if a < b:
                q = list(p)
                q[a], q[b] = k + 1, k
                mask |= up[index[tuple(q)]]
                covers += 1
        up[index[p]] = mask
    return up, covers


class TestWeakOrder:
    """leq_eo against the weak order on S_n, with no code shared with it."""

    @pytest.mark.parametrize("n", [*range(1, 6), pytest.param(6, marks=pytest.mark.slow)])
    def test_up_sets_are_the_cover_closure(self, n):
        up, covers = cover_up_sets(n)
        assert covers == math.factorial(n) * (n - 1) // 2
        assert up == leq_eo_up_sets(n)[1]

    @pytest.mark.parametrize(
        "n, intervals, chains",
        [(1, 1, 1), (2, 3, 1), (3, 17, 2), (4, 151, 16), (5, 1899, 768),
         pytest.param(6, 31711, 292864, marks=pytest.mark.slow)],
    )
    def test_interval_and_maximal_chain_counts(self, n, intervals, chains):
        # the pairs f <= g are the weak order's intervals (OEIS A007767); its
        # maximal chains, bottom to top by covers, are the reduced words of the
        # reversal (A005118; Stanley, 1984)
        listings, up = leq_eo_up_sets(n)
        assert sum(bin(mask).count("1") for mask in up) == intervals
        # g covers f when f <= g and g has one inversion more
        level = [len(brute_inversions(f.values)) for f in listings]
        top = max(level)
        above = [0] * len(listings)  # maximal chains from each listing up
        for k in sorted(range(len(listings)), key=level.__getitem__, reverse=True):
            above[k] = 1 if level[k] == top else sum(
                above[m] for m in range(len(listings))
                if up[k] >> m & 1 and level[m] == level[k] + 1
            )
        assert above[level.index(0)] == chains

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_pair_has_one_greatest_common_lower_bound(self, n):
        # the weak order is a lattice (Bjorner and Brenti, Combinatorics of
        # Coxeter Groups, ch. 3): each pair's common down-set has exactly one
        # maximal element, their meet
        listings, up = leq_eo_up_sets(n)
        down = [0] * len(listings)
        for k, mask in enumerate(up):
            for m in range(len(listings)):
                if mask >> m & 1:
                    down[m] |= 1 << k
        for i, j in itertools.combinations_with_replacement(range(len(listings)), 2):
            common = down[i] & down[j]
            maximal = [
                k for k in range(len(listings))
                if common >> k & 1 and up[k] & common == 1 << k
            ]
            assert len(maximal) == 1, (listings[i], listings[j], maximal)


class TestAscendingListing:
    def test_sorts(self):
        s = SetSample(frozenset({5, 2, 9}), 10)
        assert ascending_listing(s).values == (2, 5, 9)

    def test_empty(self):
        assert ascending_listing(SetSample(frozenset(), 0)).values == ()

    def test_already_ascending(self):
        s = SetSample(frozenset({2, 4, 6, 8}), 8)
        assert ascending_listing(s).values == (2, 4, 6, 8)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_reducible_to_everything(self, n):
        # empty inversion set is contained in every inversion set
        asc = ascending_listing(SetSample(frozenset(range(1, n + 1)), n))
        for perm in itertools.permutations(range(1, n + 1)):
            assert leq_eo(asc, PrefixListing(tuple(perm))).holds

    def test_sample_rejects_out_of_bound(self):
        with pytest.raises(ValueError):
            SetSample(frozenset({5}), 4)
