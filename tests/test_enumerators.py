import functools
import math
import random
import time
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumorder import enumerators
from enumorder.enumerators import (
    MAX_BUDGET,
    MODELS,
    Dovetail,
    parse_spec,
    take_prefix,
)
from enumorder.errors import SpecParseError, TooLarge
from enumorder.prefixes import PrefixListing, equiv_eo, inversions, make_prefix

collatz_steps = MODELS["collatz"]
rm_steps = MODELS["rm"]


def instant_steps(code, cap):
    # every code halts at its first step
    return 1 if cap >= 1 else None


def collatz_halt_step(p):
    # independent simulation: iterations to reach 1, plus the observation step
    steps = 1
    while p != 1:
        p = 3 * p + 1 if p % 2 else p // 2
        steps += 1
    return steps


def dovetail_order_oracle(halt_step, budget):
    # emit code in round code + d - 1; sort by (round, code)
    emitted = []
    for code in range(1, budget + 1):
        d = halt_step(code)
        if code + d - 1 <= budget:
            emitted.append((code + d - 1, code))
    return [code for _, code in sorted(emitted)]


class TestParseSpec:
    def test_even(self):
        assert take_prefix(parse_spec("even"), 3, 100).values == (2, 4, 6)

    def test_shifted(self):
        assert take_prefix(parse_spec("nminus:1"), 3, 100).values == (2, 3, 4)

    def test_shifted_gap_in_middle(self):
        assert take_prefix(parse_spec("nminus:3"), 5, 100).values == (1, 2, 4, 5, 6)

    def test_asc(self):
        assert take_prefix(parse_spec("asc:9,2,5"), 3, 100).values == (2, 5, 9)

    def test_halt_dispatch(self):
        for name, steps in MODELS.items():
            got = take_prefix(parse_spec(f"halt:{name}"), 100, 400).values
            assert got == take_prefix(Dovetail(steps), 100, 400).values
            # one shared dovetail per model
            assert parse_spec(f"halt:{name}") is parse_spec(f"halt:{name}")

    @pytest.mark.parametrize(
        "bad",
        ["evens", "nminus:", "nminus:x", "asc:", "asc:1,1", "halt:bogus", "",
         "nminus:\u00b2", "asc:1,\u00b2"],
    )
    def test_rejects(self, bad):
        with pytest.raises(SpecParseError):
            parse_spec(bad)


class TestTakePrefix:
    def test_empty_request(self):
        assert take_prefix(parse_spec("even"), 0, 100).values == ()

    def test_budget_caps_emissions(self):
        assert len(take_prefix(parse_spec("even"), 10, 4)) == 4

    def test_short_asc(self):
        assert take_prefix(parse_spec("asc:3,7"), 5, 100).values == (3, 7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            take_prefix(parse_spec("even"), -1, 10)

    @pytest.mark.parametrize("spec", ["even", "nminus:3", "asc:9,2,5", "halt:collatz", "halt:rm"])
    def test_every_enumerator_returns_a_prefix_listing(self, spec):
        e = parse_spec(spec)
        for budget, n in [(0, 0), (0, 5), (5, 0), (2, 5), (50, 3)]:
            got = e(budget, n)
            assert type(got) is PrefixListing, (budget, n)
            assert take_prefix(e, n, budget) == got

    @pytest.mark.parametrize("spec", ["even", "halt:collatz", "halt:rm"])
    def test_refuses_length_and_budget_both_over_the_cap(self, spec):
        with pytest.raises(TooLarge):
            take_prefix(parse_spec(spec), MAX_BUDGET + 1, 10**9)
        assert len(take_prefix(parse_spec(spec), 5, 10**9)) == 5
        assert len(take_prefix(parse_spec(spec), 10**9, 5)) <= 5


class TestCollatzModel:
    def test_base_case(self):
        assert collatz_steps(1, 100) == 1

    def test_three(self):
        # 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1: seven iterations plus one
        assert collatz_steps(3, 100) == 8

    def test_cap_respected(self):
        assert collatz_steps(3, 7) is None
        assert collatz_steps(3, 8) == 8
        assert collatz_steps(1, 0) is None

    @pytest.mark.parametrize("code", range(1, 30))
    def test_matches_independent_simulation(self, code):
        assert collatz_steps(code, 10**6) == collatz_halt_step(code)


def plain_collatz_steps(code, cap):
    """halt:collatz walked over the whole trajectory, with no halt-step table."""
    x = code
    taken = 1
    while x != 1:
        if taken >= cap:
            return None
        x = 3 * x + 1 if x % 2 else x // 2
        taken += 1
    # code 1 halts at step 1, past a cap of 0
    return taken if taken <= cap else None


# the same independent simulation, each code's trajectory walked once
cached_halt_step = functools.cache(collatz_halt_step)


@pytest.fixture
def cold_schedule(monkeypatch):
    """A fresh dovetail in place of each model's shared one, as a fresh
    process finds it, so that a drain simulates its codes again; the shared
    ones are put back afterwards."""
    for name, steps in MODELS.items():
        monkeypatch.setitem(enumerators._HALTING, name, Dovetail(steps))


@pytest.fixture
def cold_table(cold_schedule):
    """The shared halt-step table emptied, and the schedule fresh, as a fresh
    process finds them."""
    table = enumerators._COLLATZ_HALT_STEPS
    del table[2:]
    return table


@pytest.fixture(scope="module")
def table_queries():
    """Every code to 10**4 at caps below, at and above its halt step, and at
    the cap a drain at 10**4 gives it; with the plain loop's answers."""
    top = 10**4
    queries = []
    for code in range(1, top + 1):
        d = cached_halt_step(code)
        queries += [(code, cap) for cap in (1, 2, 3, d - 1, d, 10**6, top - code + 1)]
    return [((code, cap), plain_collatz_steps(code, cap)) for code, cap in queries]


# the budgets of the benchmark's halt:collatz drains
DRAIN_BUDGETS = [50, 100, 200, 300, 500, 1000, 2000, 3000, 5000, 10000, 20000]


class TestCollatzHaltStepTable:
    @staticmethod
    def assert_exact(pairs):
        got = [collatz_steps(code, cap) for (code, cap), _ in pairs]
        for ((code, cap), want), g in zip(pairs, got):
            assert g == want, (code, cap)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_exact_cold_and_warm(self, cold_table, table_queries, order):
        pairs = list(table_queries)
        if order == "descending":
            pairs.reverse()
        elif order == "shuffled":
            random.Random(8).shuffle(pairs)
        self.assert_exact(pairs)  # cold: each code met first here
        self.assert_exact(pairs)  # warm: each code read back

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 2 * MAX_BUDGET), st.integers(0, 500)),
                    min_size=1, max_size=30))
    def test_any_order_and_codes_past_the_bound(self, queries):
        table = enumerators._COLLATZ_HALT_STEPS
        del table[2:]
        for code, cap in queries:
            assert collatz_steps(code, cap) == plain_collatz_steps(code, cap), (code, cap)
            assert len(table) <= MAX_BUDGET + 1
            # a code is stored only with its uncapped halt step
            if 1 <= code < len(table):
                assert table[code] in (0, cached_halt_step(code)), (code, cap)

    def test_table_stops_at_the_budget_cap(self, cold_table):
        for code in (MAX_BUDGET + 1, 2 * MAX_BUDGET, MAX_BUDGET):
            assert collatz_steps(code, 10**6) == collatz_halt_step(code)
        assert len(cold_table) == MAX_BUDGET + 1
        assert cold_table[MAX_BUDGET] == collatz_halt_step(MAX_BUDGET)
        # codes below 1 never reach 1, whatever the table's last entries hold
        for code in (0, -1, -2):
            assert collatz_steps(code, 10**4) is None

    @pytest.mark.slow
    def test_table_bounded_after_a_drain_at_the_cap(self, cold_table):
        take_prefix(parse_spec("halt:collatz"), MAX_BUDGET, MAX_BUDGET)
        assert len(cold_table) <= MAX_BUDGET + 1
        collatz_steps(2 * MAX_BUDGET, 10**6)
        assert len(cold_table) <= MAX_BUDGET + 1

    @pytest.mark.parametrize(
        "budget", DRAIN_BUDGETS + [pytest.param(30000, marks=pytest.mark.slow)]
    )
    def test_drain_matches_schedule_oracle(self, cold_table, budget):
        got = take_prefix(parse_spec("halt:collatz"), budget, budget).values
        assert list(got) == dovetail_order_oracle(cached_halt_step, budget)


class TestDovetail:
    def test_collatz_prefix(self):
        got = take_prefix(Dovetail(collatz_steps), 5, 12)
        assert got.values == (1, 2, 4, 3, 5)

    def test_matches_schedule_oracle(self):
        for budget in (0, 1, 7, 25, 60):
            got = take_prefix(parse_spec("halt:collatz"), 1000, budget)
            assert list(got.values) == dovetail_order_oracle(collatz_halt_step, budget)

    def test_zero_budget(self):
        assert take_prefix(Dovetail(collatz_steps), 5, 0).values == ()

    def test_uniform_halting_preserves_code_order(self):
        got = take_prefix(Dovetail(instant_steps), 8, 8)
        assert got.values == (1, 2, 3, 4, 5, 6, 7, 8)
        assert inversions(got) == ()

    def test_collatz_order_has_inversions(self):
        got = take_prefix(parse_spec("halt:collatz"), 5, 1000)
        assert len(got) >= 5
        assert inversions(got)
        asc = make_prefix(sorted(got.values))
        assert not equiv_eo(got, asc)


class TestRegisterMachineModel:
    def test_deterministic_across_runs(self):
        first = [rm_steps(c, 500) for c in range(1, 101)]
        second = [rm_steps(c, 500) for c in range(1, 101)]
        assert first == second

    def test_some_programs_halt(self):
        halts = [c for c in range(1, 200) if rm_steps(c, 500)]
        assert len(halts) > 10

    def test_some_programs_loop(self):
        diverging = [c for c in range(1, 200) if rm_steps(c, 500) is None]
        assert diverging

    def test_dovetail_emits_distinct(self):
        got = take_prefix(parse_spec("halt:rm"), 200, 300)
        assert len(set(got.values)) == len(got)


class TestDistinctnessAndDeterminism:
    @pytest.mark.parametrize("spec", ["even", "nminus:4", "asc:5,2,8", "halt:collatz", "halt:rm"])
    def test_no_repeats(self, spec):
        got = take_prefix(parse_spec(spec), 100, 200)
        assert len(set(got.values)) == len(got)

    @pytest.mark.parametrize("spec", ["even", "nminus:2", "halt:collatz", "halt:rm"])
    def test_reproducible(self, spec):
        a = take_prefix(parse_spec(spec), 50, 120)
        b = take_prefix(parse_spec(spec), 50, 120)
        assert a == b

    def test_models_present(self):
        assert set(MODELS) == {"collatz", "rm"}


def eager_dovetail(steps, budget):
    """The dovetail as it was before epochs: simulate every code up to the
    budget's round, then sort.  The reference for the lazy stream."""
    emissions = []
    for code in range(1, budget + 1):
        # by round `budget`, code has received budget - code + 1 steps
        d = steps(code, budget - code + 1)
        if d is not None:
            emissions.append((code + d - 1, code))
    return [code for _, code in sorted(emissions)]


def _model_from_halt_times(halt_time):
    def steps(code, cap):
        d = halt_time(code)
        return d if d is not None and d <= cap else None

    return steps


EQUIVALENCE_MODELS = {
    **MODELS,
    # codes 3k, 3k+1 and 3k+2 all halt in round 3k+2, so the tie order decides
    "ties": _model_from_halt_times(lambda code: 3 - code % 3),
    # halting times far past the first epochs, and codes that never halt
    "sparse": _model_from_halt_times(
        lambda code: None if code % 7 == 0 else code * code % 97 + 1
    ),
}
BY_MODEL = pytest.mark.parametrize(
    "model", list(EQUIVALENCE_MODELS.values()), ids=list(EQUIVALENCE_MODELS)
)


class TestLazyDovetailMatchesEager:
    @BY_MODEL
    def test_exhaustive_small_budgets(self, model):
        for budget in range(301):
            want = eager_dovetail(model, budget)
            for n in {0, 1, 5, 64, budget, budget + 5}:
                got = take_prefix(Dovetail(model), n, budget).values
                assert list(got) == want[:n], (budget, n)

    @BY_MODEL
    def test_fixed_rounds_below_and_above_budget(self, model):
        # a fixed round cap is a smaller budget, min(budget, rounds), while n
        # still asks for up to budget + 5 values
        for budget in (0, 1, 40, 150):
            for rounds in {0, 1, 7, max(budget - 1, 0), budget, budget + 1, 2 * budget + 3}:
                limit = min(budget, rounds)
                want = eager_dovetail(model, limit)
                for n in (1, 5, 64, budget + 5):
                    got = take_prefix(Dovetail(model), n, limit)
                    assert list(got.values) == want[:n], (budget, rounds, n)

    @settings(deadline=None)
    @given(
        model=st.sampled_from(list(EQUIVALENCE_MODELS.values())),
        budget=st.integers(0, 3000),
        data=st.data(),
    )
    def test_large_budgets(self, model, budget, data):
        n = data.draw(st.integers(0, budget + 5), label="n")
        got = take_prefix(Dovetail(model), n, budget).values
        assert list(got) == eager_dovetail(model, budget)[:n]


class TestEpochOrder:
    # halt steps of 1..4 or never over codes 1..200, built from one drawn seed
    # (drawing 200 list items takes hypothesis ~50 ms an example): many codes
    # share a round, so the tie order decides, and many halt in the last round
    # of an epoch
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32), budget=st.integers(0, 200), data=st.data())
    def test_matches_schedule_oracle(self, seed, budget, data):
        n = data.draw(st.integers(0, budget + 5), label="n")
        rng = random.Random(seed)
        halts = [rng.choice((None, 1, 2, 3, 4)) for _ in range(200)]
        model = _model_from_halt_times(lambda code: halts[code - 1])
        want = dovetail_order_oracle(lambda code: halts[code - 1] or budget + 1, budget)
        got = take_prefix(Dovetail(model), n, budget).values
        assert list(got) == want[:n], n

    def test_every_code_halting_in_the_last_round_of_its_epoch(self):
        # with n = 3 the epochs end at rounds 3, 6, 12, 24 and 25; code c halts
        # in round c, so each epoch's last code is emitted in its last round
        for n in (3, 25, 30):
            got = take_prefix(Dovetail(instant_steps), n, 25).values
            assert got == tuple(range(1, min(n, 25) + 1)), n


def plain_register_machine_steps(code, cap):
    """halt:rm simulated step by step with no cycle check."""
    words = []
    while code > 0:
        code -= 1
        words.append(code % 16)
        code //= 16
    program = [(w % 3, w // 3 % 2, w // 6 % len(words)) for w in words]
    regs = [0, 0]
    pc = 0
    for taken in range(1, cap + 1):
        if pc >= len(program):
            return taken
        op, reg, target = program[pc]
        if op == 0:
            return taken
        if op == 1:
            regs[reg] += 1
            pc += 1
        elif regs[reg] == 0:
            pc = target
        else:
            regs[reg] -= 1
            pc += 1
    return None


def rm_code(words):
    """The halt:rm code of a program, first word first (bijective base 16)."""
    return sum((w + 1) * 16**i for i, w in enumerate(words))


def inc(reg):
    return 1 + 3 * reg


def djz(reg, target):
    # decrement reg, or jump to target if it is 0; target <= 2 (<= 1 for reg 1)
    return 2 + 3 * reg + 6 * target


def arithmetic_decode(code):
    """halt:rm's program of a code, word by word from its arithmetic definition."""
    words = []
    n = code
    while n > 0:
        n -= 1
        words.append(n % 16)
        n //= 16
    return [(w % 3, w // 3 % 2, w // 6) for w in words]


class TestRegisterMachineDecode:
    def test_every_program_of_at_most_three_words(self):
        # 16 + 16^2 + 16^3 = 4368 codes hold every program of 1 to 3 words
        for code in range(4369):
            assert enumerators._decode_program(code) == arithmetic_decode(code), code
        assert len(enumerators._decode_program(4368)) == 3
        assert len(enumerators._decode_program(4369)) == 4

    @given(code=st.integers(4369, 16**12))
    def test_sampled_larger_codes(self, code):
        assert enumerators._decode_program(code) == arithmetic_decode(code)


class TestRegisterMachineCycleCut:
    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 8, 13, 50, 400])
    def test_exact_on_small_codes(self, cap):
        for code in range(1, 3001):
            assert rm_steps(code, cap) == plain_register_machine_steps(code, cap), code

    @staticmethod
    def assert_exact_at_dovetail_caps(budget):
        # a drain at `budget` asks each code c for its halt within budget - c + 1 steps
        for code in range(1, budget + 1):
            cap = budget - code + 1
            assert rm_steps(code, cap) == plain_register_machine_steps(code, cap), code

    @pytest.mark.slow
    def test_exact_at_dovetail_caps(self):
        self.assert_exact_at_dovetail_caps(10**4)

    @pytest.mark.slow
    def test_exact_at_dovetail_caps_to_3e4(self):
        self.assert_exact_at_dovetail_caps(3 * 10**4)

    # caps to 1e5 so that cuts which fire late are compared too
    @settings(max_examples=200, deadline=None)
    @given(code=st.integers(1, 10**5), cap=st.integers(1, 10**5))
    def test_exact_on_sampled_codes(self, code, cap):
        assert rm_steps(code, cap) == plain_register_machine_steps(code, cap)

    # programs that halt at step 5 after a decrement-or-jump found register 0 at
    # zero and an increment then grew it, e.g. 2351 = [djz(0, 2), inc(0),
    # djz(0, 1)]: a cut that ignored the zero test would call them non-halting
    @pytest.mark.parametrize("code", [2351, 2447, 3167, 6447])
    def test_register_grown_after_zero_test_is_not_cut(self, code):
        assert plain_register_machine_steps(code, 20001 - code) == 5
        assert rm_steps(code, 20001 - code) == 5

    def test_shrunk_register_is_not_cut(self):
        # r1 = 2, then the loop at words 2..5 counts r1 down (r0 is scratch);
        # at r1 = 0 it jumps to word 0 with r0 left at 1, so the second pass
        # falls off the end at step 19.  Each time round the loop r1 is lower
        # but never found at zero: a cut that accepted a shrunk register would
        # call the program non-halting
        code = rm_code([inc(1), inc(1), inc(0), djz(1, 0), djz(0, 0), djz(0, 2)])
        assert code == 15950421
        assert plain_register_machine_steps(code, 10**4) == 19
        assert rm_steps(code, 10**4) == 19

    def test_every_non_halting_code_is_cut(self):
        # every code <= 1e4 that has not halted by step 64 is cut by step 8, so
        # asking each at cap 1e6 takes ~0.02 s; a lost cut fails once the loop
        # has taken over 1 s, instead of running every code to the cap
        looping = [c for c in range(1, 10**4 + 1) if rm_steps(c, 64) is None]
        assert len(looping) > 2000
        start = time.perf_counter()
        for code in looping:
            assert rm_steps(code, 10**6) is None, code
            elapsed = time.perf_counter() - start
            assert elapsed < 1, f"{elapsed:.2f}s by code {code}"

    def test_cycling_code_cut_fast(self):
        # code 3 is a one-word program that jumps to itself forever
        assert plain_register_machine_steps(3, 1000) is None
        start = time.perf_counter()
        assert rm_steps(3, 10**7) is None
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


@functools.cache
def rm_halt_step(code):
    """The plain loop's halt step for a code it sees halt by step 1000, else
    None; every code up to 3000 that halts does so within 5 steps."""
    return plain_register_machine_steps(code, 1000)


# each model's halt step for dovetail_order_oracle: rm's is exact at budgets
# to 1000, where no code runs past rm_halt_step's 1000 steps
HALT_STEPS = {
    "collatz": cached_halt_step,
    "rm": lambda code: rm_halt_step(code) or math.inf,
}


class TestSharedSchedule:
    """A model's dovetail keeps the rounds it has settled, and answers a call
    within them by a bisect and a slice."""

    @staticmethod
    def assert_calls(e, model, calls):
        for n, budget in calls:
            want = dovetail_order_oracle(HALT_STEPS[model], budget)[:n]
            assert list(take_prefix(e, n, budget).values) == want, (n, budget)

    # `shared` is the process's dovetail, warm from earlier tests and examples;
    # else each example starts a fresh one
    @settings(deadline=None)
    @given(
        model=st.sampled_from(sorted(MODELS)),
        shared=st.booleans(),
        calls=st.lists(st.tuples(st.integers(0, 450), st.integers(0, 400)),
                       min_size=1, max_size=10),
    )
    def test_call_sequences_match_schedule_oracle(self, model, shared, calls):
        e = parse_spec(f"halt:{model}") if shared else Dovetail(MODELS[model])
        self.assert_calls(e, model, calls)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_calls_below_the_settled_round(self, model):
        # a prefix settles 400 rounds in two epochs, to 250 and 400; the calls
        # after it ask for none, one, some and more values than rounds <=
        # budget emit, at budgets 0 to 400, and then one round past it
        e = Dovetail(MODELS[model])
        calls = [(250, 400), (0, 400), (5, 0), (1000, 1), (1000, 150), (20, 399),
                 (1000, 400), (1000, 401)]
        self.assert_calls(e, model, calls)
        assert e.settled == 401

    def test_settled_rounds_are_not_run_again(self):
        queried = []

        def counting_steps(code, cap):
            queried.append(code)
            return collatz_steps(code, cap)

        e = Dovetail(counting_steps)
        take_prefix(e, 200, 200)
        assert queried == list(range(1, 201))  # a drain is one epoch
        for n, budget in [(200, 200), (5, 50), (0, 0), (1000, 199), (3, 10**9)]:
            take_prefix(e, n, budget)
        assert len(queried) == 200

    def test_a_drain_settles_its_budget(self, cold_schedule):
        for name in MODELS:
            e = parse_spec(f"halt:{name}")
            take_prefix(e, 20000, 20000)
            assert e.settled == 20000
            # each code up to the settled round is emitted or running
            assert len(e.codes) == len(e.rounds) == 20000 - len(e.running)
            assert e.rounds.itemsize == 4

    @staticmethod
    def count_checks(monkeypatch):
        """The lengths of every PrefixListing built through its checks."""
        checked = []
        init = PrefixListing.__init__

        def counting_init(self, values):
            checked.append(len(values))
            init(self, values)

        monkeypatch.setattr(PrefixListing, "__init__", counting_init)
        return checked

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_a_warm_read_checks_nothing(self, model, monkeypatch):
        e = Dovetail(MODELS[model])
        want = take_prefix(e, 20000, 20000)
        checked = self.count_checks(monkeypatch)
        assert take_prefix(e, 20000, 20000) == want
        assert take_prefix(e, 500, 20000) == want.head(500)
        assert checked == []

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_growing_reads_check_no_kept_code(self, model, monkeypatch):
        # the epochs join their codes without the constructor's checks; the
        # codes are distinct and >= 1 because each epoch takes only codes past
        # the settled round or still running
        e = Dovetail(MODELS[model])
        checked = self.count_checks(monkeypatch)
        for n in (5, 64, 1000, 20000):
            assert len(take_prefix(e, n, 30000)) == n
        assert sum(checked) == 0
        assert len(set(e.codes.values)) == len(e.codes)
        assert min(e.codes.values) >= 1

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_a_warm_read_shares_the_kept_ints(self, model):
        e = Dovetail(MODELS[model])
        take_prefix(e, 20000, 20000)
        values = take_prefix(e, 20000, 20000).values
        # codes up to 256 are cached ints, the same object however made
        large = [(v, c) for v, c in zip(values, e.codes) if c > 256]
        assert len(large) > 10000
        assert all(v is c for v, c in large)

    @pytest.mark.slow
    def test_state_bounded_at_the_cap(self, cold_schedule):
        for name in MODELS:
            e = parse_spec(f"halt:{name}")
            take_prefix(e, MAX_BUDGET, MAX_BUDGET)
            assert e.settled == MAX_BUDGET
            assert len(e.codes) == len(e.rounds) == MAX_BUDGET - len(e.running)
            # the bytes a fresh dovetail keeps after the same drain, with the
            # Collatz table already full from the one above: under the 48
            # bytes a code that the README and MAX_BUDGET's comment state
            fresh = Dovetail(MODELS[name])
            tracemalloc.start()
            try:
                take_prefix(fresh, MAX_BUDGET, MAX_BUDGET)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert kept < 48 * (len(fresh.codes) + len(fresh.running)), (name, kept)
            # the peak during it, as the one epoch joins its codes, unchecked,
            # to the kept ones: ~100 bytes a code for collatz, ~90 for rm
            assert peak < 128 * (len(fresh.codes) + len(fresh.running)), (name, peak)
            # the longest prefix a larger budget may ask for: MAX_BUDGET codes
            # are emitted by round 2 * MAX_BUDGET, so no epoch starts past it
            # and none ends at 4 * MAX_BUDGET or later
            assert len(take_prefix(e, MAX_BUDGET, 10**9)) == MAX_BUDGET
            assert e.settled == 2 * MAX_BUDGET
            assert bisect_right(e.rounds, 2 * MAX_BUDGET) >= MAX_BUDGET
            assert len(e.codes) == len(e.rounds) == 2 * MAX_BUDGET - len(e.running)
