import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumorder import extraction
from enumorder.errors import EnumOrderError, TooLarge, ZeroValue
from enumorder.extraction import (
    MAX_FAMILY_N,
    MAX_INVERSE_POSITIONS,
    Clause,
    InversePositionReport,
    Membership,
    PairedListings,
    check_inverse_positions,
    decide_membership,
    descent_chain,
    family_below,
    make_paired,
    predecessor,
)
from enumorder.prefixes import (
    Pattern,
    PrefixListing,
    ReducibilityVerdict,
    SetSample,
    equiv_eo,
    inversions,
    make_prefix,
)


@pytest.fixture
def paired():
    # f = [1,4,2,6] over {2,4,6,8} ∪ {1}, g = [2,6,4,8] over {2,4,6,8}
    return make_paired(SetSample(frozenset({2, 4, 6, 8}), 9), 1, Pattern((1, 3, 2, 4)))


class TestInversePositions:
    def test_equivalent_pair(self):
        report = check_inverse_positions(make_prefix([2, 4, 6]), make_prefix([2, 3, 4]))
        assert (report.clause1.fpos, report.clause1.gpos) == (1, 1)
        assert report.clause1.holds
        assert all(e.premise_held and e.holds for e in report.clause2)
        assert report.all_hold

    def test_premise_fails_early(self):
        report = check_inverse_positions(make_prefix([1, 2, 3]), make_prefix([2, 1, 3]))
        assert (report.clause1.fpos, report.clause1.gpos) == (1, 2)
        assert report.clause1.holds
        first = report.clause2[0]
        assert first.index == 2 and not first.premise_held and first.holds
        assert report.all_hold

    def test_identical_listings(self):
        p = make_prefix([3, 1, 2])
        report = check_inverse_positions(p, p)
        assert (report.clause1.fpos, report.clause1.gpos) == (2, 2)
        assert all(e.premise_held and e.fpos == e.gpos for e in report.clause2)
        assert report.all_hold

    def test_precondition_enforced(self):
        message = r"^f is not reducible to g \(fails at \(1, 2\)\)$"
        with pytest.raises(EnumOrderError, match=message):
            check_inverse_positions(make_prefix([2, 1]), make_prefix([1, 2]))

    def test_refuses_more_than_the_cap_before_comparing(self, monkeypatch):
        def refuse(f, g):
            raise AssertionError("leq_eo ran")

        monkeypatch.setattr(extraction, "leq_eo", refuse)
        p = make_prefix(range(1, MAX_INVERSE_POSITIONS + 2))
        with pytest.raises(TooLarge, match="prefix length 65537 exceeds the limit 65536"):
            check_inverse_positions(p, p)

    @pytest.mark.parametrize("n", range(6))
    def test_all_clauses_hold_exhaustively(self, n):
        perms = [
            PrefixListing(tuple(p))
            for p in itertools.permutations(range(1, n + 1))
        ]
        inv = {p: frozenset(inversions(p)) for p in perms}
        for f, g in itertools.product(perms, repeat=2):
            if not inv[f] <= inv[g]:
                continue
            assert check_inverse_positions(f, g).all_hold
            assert_same_report(f, g)


def clause_report(f, g):
    """The inverse-position report of (f, g) built by the plain loop, each
    record through its NamedTuple constructor, with no precondition check."""
    a, b = sorted(f.values), sorted(g.values)
    fpos = [f.positions[v] for v in a]
    gpos = [g.positions[v] for v in b]
    # clause 1's premise is empty, so it is held and the clause evaluated
    clause1 = (Clause(1, True, fpos[0], gpos[0], fpos[0] <= gpos[0]) if a
               else Clause(1, True, 0, 0, True))
    entries = []
    premise = True
    for i in range(2, len(a) + 1):
        premise = premise and fpos[i - 2] == gpos[i - 2]
        holds = fpos[i - 1] <= gpos[i - 1] if premise else True
        entries.append(Clause(i, premise, fpos[i - 1], gpos[i - 1], holds))
    return InversePositionReport(clause1, tuple(entries))


def assert_same_report(f, g):
    got, want = check_inverse_positions(f, g), clause_report(f, g)
    assert got == want
    assert got.all_hold is (want.clause1.holds and all(e.holds for e in want.clause2))
    # exact classes, so _asdict, _replace and repr work as on the constructed ones
    assert type(got) is InversePositionReport
    assert all(type(e) is Clause for e in (got.clause1, *got.clause2))
    assert repr(got) == repr(want) and got._asdict() == want._asdict()
    assert got.clause1._replace(holds=False) == want.clause1._replace(holds=False)


def seeded_pairs(n, rng):
    """(f, f) on a shuffle, and an ascending f below a shuffled g whose
    minimum comes last, so the premise breaks at its first index; that g is
    over other values than its f."""
    values = rng.sample(range(1, 4 * n + 1), n)
    shuffled = PrefixListing(tuple(values))
    yield shuffled, shuffled
    low = min(values)
    g = [v + n for v in values if v != low] + [low + n]
    yield PrefixListing(tuple(range(1, n + 1))), PrefixListing(tuple(g))


class TestInversePositionRecords:
    """check_inverse_positions against the report the plain loop builds
    with the record constructors."""

    @pytest.mark.parametrize("n", [2, 3, 33, 256, 1024])
    def test_seeded_pairs(self, n):
        pairs = list(seeded_pairs(n, random.Random(n)))
        assert len(pairs) == 2 and not check_inverse_positions(*pairs[1]).clause2[0].premise_held
        for f, g in pairs:
            assert_same_report(f, g)

    @pytest.mark.parametrize("n", range(5))
    def test_clauses_are_evaluated_without_the_precondition(self, monkeypatch, n):
        # with leq_eo holding everywhere, every pair reaches the clauses, and
        # an evaluated clause that fails must say so
        monkeypatch.setattr(extraction, "leq_eo", lambda f, g: ReducibilityVerdict())
        perms = [PrefixListing(p) for p in itertools.permutations(range(1, n + 1))]
        for f, g in itertools.product(perms, repeat=2):
            assert_same_report(f, g)
        report = check_inverse_positions(make_prefix([1, 3, 2]), make_prefix([1, 2, 3]))
        assert report.clause2[0] == Clause(2, True, 3, 2, False)
        assert not report.all_hold


def rank_loop_refusal(f, g, m):
    """The message PairedListings refused (f, g, m) with when it walked
    every position of the pair, or None where it accepted."""
    if len(f) != len(g):
        return f"prefix lengths differ: {len(f)} != {len(g)}"
    if len(f) == 0:
        return "empty pairing"
    if m in g.values:
        return f"extra element {m} occurs in g"
    if m >= min(g.values):
        return f"extra element {m} is not below min of g's values"
    if f.values[0] != m:
        return f"f(1) = {f.values[0]}, expected the extra element {m}"
    b_rank = {y: r + 1 for y, r in zip(g.values, g.ranks)}
    b_rank[m] = 1
    for i, (x, y, a_rank) in enumerate(zip(f.values, g.values, g.ranks), 1):
        rank = b_rank.get(x)
        if rank is None:
            return f"f enumerates {x}, outside g's values plus {m}"
        if rank != a_rank:
            return (
                f"rank misalignment at position {i}: "
                f"rank of f({i})={x} is {rank}, rank of g({i})={y} is {a_rank}"
            )
    return None


class TestMakePaired:
    def test_rank_aligned_construction(self, paired):
        assert paired.f.values == (1, 4, 2, 6)
        assert paired.g.values == (2, 6, 4, 8)
        assert paired.m == 1

    def test_pattern_length_must_match(self):
        with pytest.raises(EnumOrderError, match="^pattern length 4 != sample size 3$"):
            make_paired(SetSample(frozenset({2, 4, 6}), 6), 1, Pattern((1, 2, 3, 4)))

    def test_pattern_must_open_with_rank_one(self):
        with pytest.raises(EnumOrderError, match=r"^f\(1\) = 2, expected the extra element 1$"):
            make_paired(SetSample(frozenset({2, 4}), 4), 1, Pattern((2, 1)))

    def test_extra_must_be_below_min(self):
        message = "^extra element 3 is not below min of g's values$"
        with pytest.raises(EnumOrderError, match=message):
            make_paired(SetSample(frozenset({2, 4}), 4), 3, Pattern((1, 2)))

    def test_extra_must_be_a_natural(self):
        # m = 0 is below min(A) and new, so only the listing f itself refuses it
        with pytest.raises(ZeroValue):
            make_paired(SetSample(frozenset({2, 3}), 3), 0, Pattern((1, 2)))

    def test_extra_must_be_new(self):
        with pytest.raises(EnumOrderError, match="^duplicate value in prefix: 2$"):
            make_paired(SetSample(frozenset({2, 4}), 4), 2, Pattern((1, 2)))

    def test_accepts_exactly_the_valid_inputs(self):
        # every A within {1..5} of up to 3 elements, m = 0..6, and every
        # pattern one shorter than A, as long, or one longer: 3,024 cases
        cases = accepted = 0
        for size in range(4):
            for a in itertools.combinations(range(1, 6), size):
                for length in range(max(size - 1, 0), size + 2):
                    for ranks in itertools.permutations(range(1, length + 1)):
                        for m in range(7):
                            cases += 1
                            valid = a and 1 <= m < a[0] and length == size and ranks[0] == 1
                            sample = SetSample(frozenset(a), 5)
                            if not valid:
                                with pytest.raises(EnumOrderError):
                                    make_paired(sample, m, Pattern(ranks))
                                continue
                            accepted += 1
                            p = make_paired(sample, m, Pattern(ranks))
                            assert p.f.values == tuple((m, *a)[r - 1] for r in ranks)
                            assert p.g.values == tuple(a[r - 1] for r in ranks)
                            assert p.m == m
        assert (cases, accepted) == (3024, 30)

    def test_arbitrary_pair_validated(self):
        # rank misalignment: f's second value has rank 3 in B, g's has rank 2 in A
        message = r"^rank misalignment at position 2: rank of f\(2\)=4 is 3, rank of g\(2\)=4 is 2$"
        with pytest.raises(EnumOrderError, match=message):
            PairedListings(make_prefix([1, 4]), make_prefix([2, 4]), 1)

    @pytest.mark.parametrize(
        "f, g, message",
        [
            ([1, 4, 7], [2, 6, 4], "f enumerates 7, outside g's values plus 1"),
            (
                [1, 4, 2, 6],
                [2, 6, 8, 4],
                "rank misalignment at position 3: rank of f(3)=2 is 2, rank of g(3)=8 is 4",
            ),
        ],
    )
    def test_invalid_pairing_message(self, f, g, message):
        with pytest.raises(EnumOrderError) as info:
            PairedListings(make_prefix(f), make_prefix(g), 1)
        assert str(info.value) == message

    def test_f_must_start_at_extra(self):
        with pytest.raises(EnumOrderError, match=r"^f\(1\) = 2, expected the extra element 1$"):
            PairedListings(make_prefix([2, 1]), make_prefix([2, 4]), 1)

    @pytest.mark.parametrize("n", range(6))
    def test_alignment_refuses_as_the_rank_loop_did(self, n):
        # the aligned pair over A = {2, 4, .., 2n + 2} and m = 1 whose g lists
        # min(A) and then each pattern of n, and f with each position replaced
        # by each other value up to 2n + 3: accepted, or refused with the
        # first message of the rank loop that the one comparison replaced
        a_asc = list(range(2, 2 * n + 3, 2))
        b_asc = [1, *a_asc]
        for tail in itertools.permutations(range(2, n + 2)):
            ranks = (1, *tail)
            g = make_prefix([a_asc[r - 1] for r in ranks])
            f0 = [b_asc[r - 1] for r in ranks]
            candidates = [f0] + [
                f0[:i] + [v] + f0[i + 1:]
                for i in range(n + 1)
                for v in range(1, 2 * n + 4)
                if v not in f0
            ]
            for fv in candidates:
                f = make_prefix(fv)
                expected = rank_loop_refusal(f, g, 1)
                try:
                    PairedListings(f, g, 1)
                except EnumOrderError as exc:
                    assert str(exc) == expected
                else:
                    assert expected is None

    def test_all_opening_patterns_produce_valid_pairs(self):
        sample = SetSample(frozenset({2, 4, 6, 8, 10}), 12)
        for tail in itertools.permutations(range(2, 6)):
            pat = Pattern((1,) + tail)
            p = make_paired(sample, 1, pat)
            assert p.f(1) == 1
            assert set(p.g.values) == sample.elements


@st.composite
def candidate_pairs(draw):
    """(f, g, m, aligned): g lists a drawn set A, m < min(A), and f opens
    with m.  An aligned f takes, at each position, the value of A ∪ {m} whose
    rank there equals g's rank in A; otherwise f's other values are drawn
    from A freely."""
    a = draw(st.lists(st.integers(2, 30), min_size=1, max_size=6, unique=True))
    m = draw(st.integers(1, min(a) - 1))
    aligned = draw(st.booleans())
    if aligned:
        a_asc, b_asc = sorted(a), sorted(a + [m])
        g = [a_asc[0], *draw(st.permutations(a_asc[1:]))]
        f = [b_asc[a_asc.index(y)] for y in g]
    else:
        g = draw(st.permutations(a))
        f = [m, *draw(st.permutations(a))[: len(a) - 1]]
    return make_prefix(f), make_prefix(g), m, aligned


@given(candidate_pairs())
def test_accepted_pairs_are_order_equivalent(pair):
    # PairedListings leaves order-equivalence to its alignment test, which
    # implies it, and words a refusal as the walk over every position did
    f, g, m, aligned = pair
    try:
        PairedListings(f, g, m)
    except EnumOrderError as exc:
        assert not aligned
        assert str(exc) == rank_loop_refusal(f, g, m)
        return
    assert equiv_eo(f, g)


class TestPredecessor:
    def test_one_rank_down(self, paired):
        assert predecessor(paired, 6) == 4

    def test_min_maps_to_extra(self, paired):
        assert predecessor(paired, 2) == 1 == paired.m

    def test_middle(self, paired):
        assert predecessor(paired, 4) == 2

    def test_absent(self, paired):
        with pytest.raises(EnumOrderError, match="^value not enumerated in prefix: 5$"):
            predecessor(paired, 5)

    @pytest.mark.parametrize("size", range(1, 7))
    def test_against_ascending_view(self, size):
        sample = SetSample(frozenset(2 * i for i in range(1, size + 1)), 2 * size)
        asc = sorted(sample.elements)
        for tail in itertools.permutations(range(2, size + 1)):
            p = make_paired(sample, 1, Pattern((1,) + tail))
            assert predecessor(p, asc[0]) == 1
            for k in range(1, size):
                assert predecessor(p, asc[k]) == asc[k - 1]


class TestDescentChain:
    def test_full_descent(self, paired):
        assert descent_chain(paired, 8) == [6, 4, 2]

    def test_nothing_below_min(self, paired):
        assert descent_chain(paired, 2) == []

    def test_single_step(self, paired):
        assert descent_chain(paired, 4) == [2]

    def test_lists_exactly_the_lesser_elements(self, paired):
        a_set = set(paired.g.values)
        for a in a_set:
            assert descent_chain(paired, a) == sorted(
                (x for x in a_set if x < a), reverse=True
            )

    @pytest.mark.parametrize("a", [1, 3, 5, 9])
    def test_start_outside_g_is_insufficient(self, paired, a):
        with pytest.raises(EnumOrderError, match=f"^prefix too short to resolve value {a}$"):
            descent_chain(paired, a)


class TestDecideMembership:
    def test_excluded_by_descent(self, paired):
        report = decide_membership(paired, 5)
        assert report.result is Membership.NOT_IN_A
        assert report.descent == (4, 2)

    def test_directly_enumerated(self, paired):
        assert decide_membership(paired, 4).result is Membership.IN_A

    def test_no_witness_above(self, paired):
        assert decide_membership(paired, 100).result is Membership.INSUFFICIENT

    @pytest.mark.parametrize("size", range(1, 7))
    def test_sound_against_ground_truth(self, size):
        elements = frozenset(2 * i for i in range(1, size + 1))
        bound = 2 * size
        sample = SetSample(elements, bound)
        for tail in itertools.permutations(range(2, size + 1)):
            p = make_paired(sample, 1, Pattern((1,) + tail))
            for x in range(1, bound + 1):
                result = decide_membership(p, x).result
                if result is Membership.IN_A:
                    assert x in elements
                elif result is Membership.NOT_IN_A:
                    assert x not in elements


@st.composite
def canonical_pairs(draw):
    """A make_paired pair: a drawn set A, an extra m below min(A), and a
    pattern that opens with rank 1."""
    a = draw(st.lists(st.integers(2, 40), min_size=1, max_size=8, unique=True))
    m = draw(st.integers(1, min(a) - 1))
    tail = draw(st.permutations(range(2, len(a) + 1)))
    return make_paired(SetSample(frozenset(a), max(a)), m, Pattern((1, *tail)))


@given(canonical_pairs())
def test_membership_closed_form(p):
    # in iff x is in g; insufficient iff x > max(g); otherwise out, with the
    # descent listing g's values below the least one above x, descending
    a = set(p.g.values)
    for x in range(1, max(a) + 4):
        report = decide_membership(p, x)
        if x in a:
            assert report == (x, Membership.IN_A, ())
        elif x > max(a):
            assert report == (x, Membership.INSUFFICIENT, ())
        else:
            witness = min(v for v in a if v > x)
            below = tuple(sorted((v for v in a if v < witness), reverse=True))
            assert report == (x, Membership.NOT_IN_A, below)


class TestFamilyBelow:
    def test_three_members(self):
        fam = family_below(SetSample(frozenset({2, 4, 6, 8}), 9), 2)
        assert [sorted(s.elements) for s in fam] == [
            [4, 6, 8],
            [1, 4, 6, 8],
            [1, 2, 4, 6, 8],
        ]

    def test_zero_is_identity(self):
        sample = SetSample(frozenset({3, 7}), 8)
        assert family_below(sample, 0) == [sample]

    def test_two_members(self):
        fam = family_below(SetSample(frozenset({2, 4}), 5), 1)
        assert [sorted(s.elements) for s in fam] == [[2, 4], [1, 2, 4]]

    def test_bad_bound(self):
        with pytest.raises(EnumOrderError, match="^sample bound 3 is below n=4$"):
            family_below(SetSample(frozenset({2}), 3), 4)

    def test_refuses_more_than_the_cap(self):
        sample = SetSample(frozenset({2}), 2 * MAX_FAMILY_N)
        assert len(family_below(sample, MAX_FAMILY_N)) == MAX_FAMILY_N + 1
        with pytest.raises(TooLarge):
            family_below(sample, MAX_FAMILY_N + 1)

    def test_refuses_a_large_answer_before_building(self, monkeypatch):
        # a tail of MAX_FAMILY_N elements above n = MAX_FAMILY_N is the largest
        # answer accepted; one more element is refused before any member is built
        n = MAX_FAMILY_N
        assert len(family_below(SetSample(frozenset(range(n + 1, 2 * n + 1)), 2 * n), n)) == n + 1

        def refuse(elements, bound):
            raise AssertionError("a member was built")

        sample = SetSample(frozenset(range(n + 1, 2 * n + 2)), 2 * n + 1)
        monkeypatch.setattr(extraction, "SetSample", refuse)
        refusal = f"answer size {(n + 1) * (2 * n + 1)} exceeds the limit"
        with pytest.raises(TooLarge, match=refusal):
            family_below(sample, n)

    @pytest.mark.parametrize("n", range(5))
    def test_distinct_and_bounded_difference(self, n):
        a = frozenset({2, 4, 6, 8, 10})
        fam = family_below(SetSample(a, 10), n)
        assert len(fam) == n + 1
        seen = {s.elements for s in fam}
        assert len(seen) == n + 1
        for s in fam:
            assert len(s.elements ^ a) <= n
            assert s.bound == 10
