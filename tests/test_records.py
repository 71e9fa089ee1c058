"""Value semantics of the record types: equality and hash by value, the
dataclass-style repr, immutability and the construction checks."""

import copy
import pickle
import re

import pytest

from enumorder.algebra import Chain
from enumorder.errors import DuplicateValue, EnumOrderError, ZeroValue
from enumorder.extraction import (
    Clause,
    InversePositionReport,
    Membership,
    MembershipReport,
    PairedListings,
)
from enumorder.oracle import PropertyReport
from enumorder.prefixes import Pattern, PrefixListing, ReducibilityVerdict, SetSample, make_prefix


def _paired(m=1):
    return PairedListings(make_prefix([1, 4, 2, 6]), make_prefix([2, 6, 4, 8]), m)


# (build a fresh instance, build one that differs, its repr, a field name);
# each repr is the text the frozen dataclasses printed
RECORDS = {
    "PrefixListing": (
        lambda: PrefixListing((2, 1)), lambda: PrefixListing((1, 2)),
        "PrefixListing(values=(2, 1))", "values",
    ),
    "Pattern": (
        lambda: Pattern((2, 1)), lambda: Pattern((1, 2)),
        "Pattern(ranks=(2, 1))", "ranks",
    ),
    "SetSample": (
        lambda: SetSample(frozenset({2, 4}), 5), lambda: SetSample(frozenset({2, 4}), 6),
        "SetSample(elements=frozenset({2, 4}), bound=5)", "bound",
    ),
    "PairedListings": (
        _paired,
        lambda: PairedListings(make_prefix([1, 2]), make_prefix([2, 4]), 1),
        "PairedListings(f=PrefixListing(values=(1, 4, 2, 6)), "
        "g=PrefixListing(values=(2, 6, 4, 8)), m=1)",
        "m",
    ),
    "Chain": (
        lambda: Chain((PrefixListing((2, 1)), PrefixListing((1, 2)))),
        lambda: Chain((PrefixListing((2, 1)),)),
        "Chain(listings=(PrefixListing(values=(2, 1)), PrefixListing(values=(1, 2))))",
        "listings",
    ),
    "ReducibilityVerdict": (
        lambda: ReducibilityVerdict(fail_at=(1, 2)), ReducibilityVerdict,
        "ReducibilityVerdict(fail_at=(1, 2))", "fail_at",
    ),
    "Clause": (
        lambda: Clause(2, True, 1, 3, True), lambda: Clause(3, True, 1, 3, True),
        "Clause(index=2, premise_held=True, fpos=1, gpos=3, holds=True)", "index",
    ),
    "InversePositionReport": (
        lambda: InversePositionReport(Clause(1, True, 1, 1, True), (Clause(2, True, 2, 3, True),)),
        lambda: InversePositionReport(Clause(1, True, 1, 1, True), ()),
        "InversePositionReport("
        "clause1=Clause(index=1, premise_held=True, fpos=1, gpos=1, holds=True), "
        "clause2=(Clause(index=2, premise_held=True, fpos=2, gpos=3, holds=True),))",
        "clause2",
    ),
    "MembershipReport": (
        lambda: MembershipReport(5, Membership.NOT_IN_A, (4, 2)),
        lambda: MembershipReport(5, Membership.INSUFFICIENT, ()),
        "MembershipReport(x=5, result=<Membership.NOT_IN_A: 'out'>, descent=(4, 2))",
        "result",
    ),
    "PropertyReport": (
        lambda: PropertyReport("reflexive", 2, 2, (), 0.5),
        lambda: PropertyReport("reflexive", 2, 2, ("bad",), 0.5),
        "PropertyReport(property_id='reflexive', n=2, instances=2, violations=(), "
        "elapsed=0.5, witness=None)",
        "violations",
    ),
}

CASES = pytest.mark.parametrize("make, other, text, field", RECORDS.values(), ids=RECORDS)


@CASES
def test_equal_and_hashed_by_value(make, other, text, field):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()
    assert len({a, b, other()}) == 2


@CASES
def test_repr(make, other, text, field):
    assert repr(make()) == text


@CASES
def test_fields_cannot_be_assigned(make, other, text, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@CASES
def test_copy_and_pickle_keep_the_value(make, other, text, field):
    record = make()
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_cached_indexes_stay_out_of_value_and_repr():
    p, q = PrefixListing((3, 1, 2)), PrefixListing((3, 1, 2))
    assert p.ranks == (3, 1, 2) and p.ranks is p.ranks
    assert p.positions == {3: 1, 1: 2, 2: 3}
    # the inversions (0, 1) and (0, 2), at bits 0*3 + 1 and 0*3 + 2
    assert p.inversion_mask == 0b110
    assert p == q and hash(p) == hash(q)
    assert repr(p) == "PrefixListing(values=(3, 1, 2))"
    with pytest.raises(AttributeError):
        p.ranks = (1, 2, 3)
    with pytest.raises(AttributeError):
        p.positions = {}
    with pytest.raises(AttributeError):
        p.inversion_mask = 0
    with pytest.raises(AttributeError):
        del p.ranks
    with pytest.raises(AttributeError):
        del p.inversion_mask
    assert p.ranks == (3, 1, 2) and p.inversion_mask == 0b110


def test_a_listing_with_cached_indexes_copies_and_pickles_by_values():
    p = PrefixListing((5, 2, 7))
    p.ranks, p.positions, p.inversion_mask  # fill every cache
    # copy and pickle rebuild from the values alone, never the caches
    assert pickle.dumps(p) == pickle.dumps(PrefixListing((5, 2, 7)))
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and hash(q) == hash(p) and q.values == p.values
        assert "inversion_mask" not in q.__dict__
        assert q.ranks == p.ranks and q.positions == p.positions
        assert q.inversion_mask == p.inversion_mask
    assert PrefixListing((5, 2, 7)) == p and hash(PrefixListing((5, 2, 7))) == hash(p)


def test_plain_records_are_tuples():
    # the NamedTuple trade-off: a record also equals the plain tuple of its fields
    assert ReducibilityVerdict(fail_at=(1, 2)) == ((1, 2),)
    assert Clause(1, True, 1, 2, True) == (1, True, 1, 2, True)
    # the validated classes do not
    assert PrefixListing((2, 1)) != ((2, 1),)
    assert Pattern((2, 1)) != ((2, 1),)


def test_equal_fields_of_another_class_are_not_equal():
    assert PrefixListing((1, 2)) != Pattern((1, 2))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PrefixListing((0, 1)), ZeroValue, "prefix values must be >= 1"),
        (lambda: PrefixListing((1, 2, 1)), DuplicateValue, "duplicate value in prefix: 1"),
        (lambda: Pattern((1, 3)), ValueError, "ranks (1, 3) are not a permutation of 1..2"),
        (lambda: Pattern((1, 1)), ValueError, "ranks (1, 1) are not a permutation of 1..2"),
        (
            lambda: SetSample(frozenset({2, 7}), 5),
            EnumOrderError,
            "element above declared bound 5",
        ),
        (lambda: SetSample(frozenset({0, 2}), 5), ZeroValue, "prefix values must be >= 1"),
        # the bound is checked before the zero
        (
            lambda: SetSample(frozenset({0, 7}), 5),
            EnumOrderError,
            "element above declared bound 5",
        ),
        (lambda: SetSample(frozenset(), 0), None, None),
        (lambda: _paired(m=2), EnumOrderError, "extra element 2 occurs in g"),
        (
            lambda: PairedListings(make_prefix([1, 4]), make_prefix([2, 4]), 1),
            EnumOrderError,
            "rank misalignment at position 2: rank of f(2)=4 is 3, rank of g(2)=4 is 2",
        ),
    ],
    ids=[
        "PrefixListing-zero",
        "PrefixListing-duplicate",
        "Pattern-gap",
        "Pattern-repeat",
        "SetSample-above-bound",
        "SetSample-zero",
        "SetSample-zero-and-above-bound",
        "SetSample-empty",
        "PairedListings-extra-in-g",
        "PairedListings-misaligned",
    ],
)
def test_construction_checks(build, error, message):
    if error is None:  # a row that construction accepts
        build()
        return
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_duplicate_names_its_first_repeat():
    with pytest.raises(DuplicateValue) as info:
        PrefixListing((3, 1, 2, 1, 3))
    assert info.value.value == 1
