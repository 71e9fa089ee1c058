import pytest

from enumorder.enumerators import (
    COLLATZ_MODEL,
    REGISTER_MACHINE_MODEL,
    DovetailEnumerator,
    builtin_models,
    dovetail_halting,
    parse_spec,
    take_prefix,
)
from enumorder.errors import SpecParseError
from enumorder.prefixes import equiv_eo, inversions, make_prefix


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
        e = parse_spec("halt:collatz")
        assert isinstance(e, DovetailEnumerator)
        assert e.model is COLLATZ_MODEL

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


class TestCollatzModel:
    def test_base_case(self):
        assert COLLATZ_MODEL.steps(1, 100) == 1

    def test_three(self):
        # 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1: seven iterations plus one
        assert COLLATZ_MODEL.steps(3, 100) == 8

    def test_cap_respected(self):
        assert COLLATZ_MODEL.steps(3, 7) is None
        assert COLLATZ_MODEL.steps(3, 8) == 8

    @pytest.mark.parametrize("code", range(1, 30))
    def test_matches_independent_simulation(self, code):
        assert COLLATZ_MODEL.steps(code, 10**6) == collatz_halt_step(code)


class TestDovetail:
    def test_collatz_prefix(self):
        got = take_prefix(dovetail_halting(COLLATZ_MODEL, 12), 5, 12)
        assert got.values == (1, 2, 4, 3, 5)

    def test_matches_schedule_oracle(self):
        for budget in (0, 1, 7, 25, 60):
            got = take_prefix(parse_spec("halt:collatz"), 1000, budget)
            assert list(got.values) == dovetail_order_oracle(collatz_halt_step, budget)

    def test_zero_budget(self):
        assert take_prefix(dovetail_halting(COLLATZ_MODEL, 0), 5, 100).values == ()

    def test_fixed_rounds_cap_caller_budget(self):
        capped = dovetail_halting(COLLATZ_MODEL, 3)
        assert take_prefix(capped, 100, 1000).values == take_prefix(
            parse_spec("halt:collatz"), 100, 3
        ).values

    def test_uniform_halting_preserves_code_order(self):
        from enumorder.enumerators import HaltingModel

        instant = HaltingModel("instant", lambda code, cap: 1 if cap >= 1 else None)
        got = take_prefix(dovetail_halting(instant, 8), 8, 8)
        assert got.values == (1, 2, 3, 4, 5, 6, 7, 8)
        assert inversions(got) == frozenset()

    def test_collatz_order_has_inversions(self):
        got = take_prefix(parse_spec("halt:collatz"), 5, 1000)
        assert len(got) >= 5
        assert inversions(got)
        asc = make_prefix(sorted(got.values))
        assert not equiv_eo(got, asc)


class TestRegisterMachineModel:
    def test_deterministic_across_runs(self):
        first = [REGISTER_MACHINE_MODEL.steps(c, 500) for c in range(1, 101)]
        second = [REGISTER_MACHINE_MODEL.steps(c, 500) for c in range(1, 101)]
        assert first == second

    def test_some_programs_halt(self):
        halts = [c for c in range(1, 200) if REGISTER_MACHINE_MODEL.steps(c, 500)]
        assert len(halts) > 10

    def test_some_programs_loop(self):
        diverging = [c for c in range(1, 200) if REGISTER_MACHINE_MODEL.steps(c, 500) is None]
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

    def test_builtin_models_present(self):
        names = [m.name for m in builtin_models()]
        assert "collatz" in names and "rm" in names
