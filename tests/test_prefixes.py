import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumorder.errors import DuplicateValue, LengthMismatch, TooLarge, ZeroValue
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


def brute_reducible(fv, gv):
    return all(
        not (fv[i] > fv[j] and gv[i] <= gv[j])
        for i in range(len(fv))
        for j in range(i + 1, len(fv))
    )


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

    def test_take(self):
        assert make_prefix([5, 9, 7]).take(2).values == (5, 9)
        assert make_prefix([5]).take(0).values == ()


class TestInversions:
    def test_ascending_has_none(self):
        assert inversions(make_prefix([2, 4, 6, 8])) == frozenset()

    def test_single_descent(self):
        assert inversions(make_prefix([3, 1, 2])) == {(1, 2), (1, 3)}

    def test_full_reversal(self):
        assert inversions(make_prefix([3, 2, 1])) == {(1, 2), (1, 3), (2, 3)}

    @given(distinct_naturals)
    def test_matches_double_loop(self, values):
        assert inversions(make_prefix(values)) == brute_inversions(values)

    def test_refuses_more_than_the_cap(self):
        assert inversions(make_prefix(range(1, MAX_INVERSIONS_N + 1))) == frozenset()
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

    @pytest.mark.parametrize("n", range(5))
    def test_subset_characterization_exhaustive(self, n):
        perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
        for fv, gv in itertools.product(perms, repeat=2):
            holds = leq_eo(PrefixListing(fv), PrefixListing(gv)).holds
            assert holds == brute_reducible(fv, gv)
            assert holds == (brute_inversions(fv) <= brute_inversions(gv))


class TestEquivEo:
    def test_doubling_vs_shift(self):
        assert equiv_eo(make_prefix([2, 4, 6]), make_prefix([2, 3, 4]))

    def test_non_antisymmetry_witness(self):
        f, g = make_prefix([2, 4]), make_prefix([5, 9])
        assert f != g and equiv_eo(f, g)

    def test_strict_pair(self):
        assert not equiv_eo(make_prefix([1, 3, 2]), make_prefix([1, 2, 3]))

    @given(distinct_naturals, distinct_naturals)
    def test_agrees_with_pattern_equality(self, a, b):
        if len(a) != len(b):
            return
        f, g = make_prefix(a), make_prefix(b)
        assert equiv_eo(f, g) == (standardize(f) == standardize(g))


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
