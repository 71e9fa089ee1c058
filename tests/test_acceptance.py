"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact; timing budgets are asserted with perf_counter around
the operation under test.
"""

import itertools
import json
import time

import pytest

from enumorder.algebra import Chain, chain_stabilize, transport
from enumorder.cli import main
from enumorder.extraction import (
    Membership,
    check_inverse_positions,
    decide_membership,
    family_below,
    make_paired,
)
from enumorder.oracle import run_property
from enumorder.prefixes import (
    Pattern,
    PrefixListing,
    SetSample,
    equiv_eo,
    inversions,
    make_prefix,
    standardize,
)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def timed(budget_s, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
    return result


def test_criterion_01_doubling_equivalent_to_shift(capsys):
    code = timed(1.0, lambda: main(
        ["compare", "even", "nminus:1", "--prefix-len", "1000"]
    ))
    obj = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        report("01 doubling ~ shifted identity at length 1000",
               code == 0 and obj["equiv"] is True)


def test_criterion_02_dovetail_order_not_ascending(capsys):
    def check():
        from enumorder.enumerators import MODELS, Dovetail, take_prefix

        got = take_prefix(Dovetail(MODELS["collatz"]), 5, 12)

        # independent oracle: direct simulation, sort by (halt round, code)
        def halt_step(p):
            s = 1
            while p != 1:
                p = 3 * p + 1 if p % 2 else p // 2
                s += 1
            return s

        expected = [
            c for _, c in sorted((c + halt_step(c) - 1, c) for c in range(1, 13))
        ][:5]
        asc = make_prefix(sorted(got.values))
        return (
            got.values == (1, 2, 4, 3, 5)
            and list(got.values) == expected
            and len(inversions(got)) > 0
            and not equiv_eo(got, asc)
        )

    ok = timed(1.0, check)
    with capsys.disabled():
        report("02 collatz dovetail prefix [1,2,4,3,5], not order-trivial", ok)


def test_criterion_03_ascending_reducible_to_all(capsys):
    code = timed(1.0, lambda: main(["verify", "--property", "lemma-2-3", "--n", "5"]))
    obj = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        report("03 ascending listing reducible to all 120 listings",
               code == 0 and obj["pass"] and obj["instances"] == 120)


def test_criterion_04_inverse_position_clauses_s5(capsys):
    def check():
        perms = [PrefixListing(p) for p in itertools.permutations(range(1, 6))]
        scanned = 0
        evaluated = 0
        for f, g in itertools.product(perms, repeat=2):
            scanned += 1
            if not inversions(f) <= inversions(g):
                continue
            evaluated += 1
            if not check_inverse_positions(f, g).all_hold:
                return False
        return scanned >= 4000 and evaluated == 1899

    ok = timed(10.0, check)
    with capsys.disabled():
        report("04 inverse-position clauses hold on all reducible S_5 pairs", ok)


def test_criterion_05_transport_preserves_pattern(capsys):
    def check():
        perms = [PrefixListing(p) for p in itertools.permutations(range(1, 5))]
        for h, h_prime in itertools.product(perms, repeat=2):
            g_prime = PrefixListing(tuple(v + 4 for v in standardize(h_prime).ranks))
            assert standardize(g_prime) == standardize(h_prime)
            if standardize(transport(h, h_prime, g_prime)) != standardize(h):
                return False
        return True

    ok = timed(10.0, check)
    with capsys.disabled():
        report("05 transport preserves pattern on all S_4 triples", ok)


def test_criterion_06_chains_of_length_8_repeat(capsys):
    def check():
        import random

        perms = [PrefixListing(p) for p in itertools.permutations(range(1, 5))]
        inv = {p: inversions(p) for p in perms}
        rng = random.Random("acceptance-06")
        for _ in range(500):
            current = rng.choice(perms)
            listings = [current]
            while len(listings) < 8:
                current = rng.choice([q for q in perms if inv[q] <= inv[current]])
                listings.append(current)
            found = chain_stabilize(Chain(tuple(listings)))
            # pairwise-scan oracle for the least repeat
            expected = None
            for j in range(2, 9):
                for i in range(1, j):
                    if listings[i - 1] == listings[j - 1]:
                        expected = (i, j)
                        break
                if expected:
                    break
            if expected is None or found != expected:
                return False
        return True

    ok = timed(10.0, check)
    with capsys.disabled():
        report("06 length-8 descending chains over {1..4} repeat, least found", ok)


def test_criterion_07_membership_extraction(capsys):
    def check():
        for size in range(1, 7):
            sub = SetSample(frozenset(2 * i for i in range(1, size + 1)), 12)
            for tail in itertools.permutations(range(2, size + 1)):
                p = make_paired(sub, 1, Pattern((1,) + tail))
                for x in range(1, 13):
                    got = decide_membership(p, x).result
                    if got is Membership.IN_A and x not in sub.elements:
                        return False
                    if got is Membership.NOT_IN_A and x in sub.elements:
                        return False
        return True

    ok = timed(10.0, check)
    with capsys.disabled():
        report("07 membership decider never misclassifies (patterns <= 6)", ok)


def test_criterion_08_preorder_laws(capsys):
    def check():
        r = run_property("reflexive", 4)
        t = run_property("transitive", 4)
        na = run_property("non-antisymmetric", 4)
        return r.passed and t.passed and na.passed and na.witness is not None

    ok = timed(10.0, check)
    with capsys.disabled():
        report("08 reflexive + transitive at n=4, non-antisymmetry witnessed", ok)


def test_criterion_09_class_count(capsys):
    def check():
        perms = [PrefixListing(p) for p in itertools.permutations(range(1, 6))]
        reps = []
        for p in perms:
            if not any(equiv_eo(p, r) for r in reps):
                reps.append(p)
        patterns = {standardize(p).ranks for p in perms}
        return len(reps) == 120 and len(reps) == len(patterns)

    ok = timed(10.0, check)
    with capsys.disabled():
        report("09 exactly 120 equivalence classes over {1..5}", ok)


def test_criterion_10_family(capsys):
    def check():
        fam = family_below(SetSample(frozenset({2, 4, 6, 8}), 9), 2)
        sets = [sorted(s.elements) for s in fam]
        distinct = len({frozenset(s) for s in sets}) == 3
        return sets == [[4, 6, 8], [1, 4, 6, 8], [1, 2, 4, 6, 8]] and distinct

    ok = timed(1.0, check)
    with capsys.disabled():
        report("10 low-element family exactly as constructed, pairwise distinct", ok)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "even", "nminus:1", "--prefix-len", "200"],
        ["verify", "--property", "all", "--n", "3"],
        ["enumerate", "halt:collatz", "--prefix-len", "16", "--budget", "500"],
        ["chain-make", "--n", "4"],
    ],
    ids=["compare", "verify-all", "enumerate", "chain-make"],
)
def test_criterion_11_determinism(capsys, argv):
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    with capsys.disabled():
        report(f"11 byte-identical rerun of {argv[0]}", first == second)
