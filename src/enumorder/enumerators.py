"""Producers of listing prefixes.

An enumerator is a function `(budget, n)` returning an iterator over
distinct naturals.  The budget's unit is per kind: one emission for the
closed forms, one dovetail round for a halting model.  `n` is how many
values the caller will take: the stream may stop after them and does no
work past them, and what it yields is a prefix of what it would yield for
any larger `n`.  Each call starts a fresh, identical stream.

Closed forms cover the worked examples (doubling, shifted identity,
explicit ascending lists).  The dovetail stands in for a halting-set
enumeration: it interleaves simulation of all codes and emits each code in
the round where its halt is observed, so the emission order reflects
halting times rather than magnitude.

Spec grammar: ``even | nminus:<nat> | asc:<nat>(,<nat>)* | halt:<model-name>``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from .errors import SpecParseError, TooLarge
from .prefixes import PrefixListing

# a drain at this size takes ~0.6 s with halt:rm, now the slower model, and
# ~0.4 s with halt:collatz from a cold halt-step table (2-core host, Python 3.11)
MAX_BUDGET = 200_000

# called as e(budget, n); see the module docstring
Enumerator = Callable[[int, int], Iterator[int]]


@dataclass(frozen=True)
class HaltingModel:
    """A deterministic halting-time model over codes 1, 2, ...

    `steps(code, cap)` returns the number of simulation steps at which the
    code is observed to halt (always >= 1), or None if it has not halted
    within `cap` steps.  Repeated queries agree.
    """

    name: str
    steps: Callable[[int, int], Optional[int]]


def dovetail(model: HaltingModel, limit: int, n: int) -> Iterator[int]:
    """Round-robin dovetail over a halting model, up to `limit` rounds.

    Round r gives one simulation step to each of codes 1..r, in ascending
    code order; a code halting at its d-th step is emitted in round
    code + d - 1, ties broken by code.

    Rounds are settled in epochs.  After epoch R every code c <= R has had
    R - c + 1 steps, so each emission in a round <= R is final whatever the
    limit: c + d - 1 <= limit exactly when d <= limit - c + 1.  The first
    epoch is min(limit, n) rounds, since n distinct emissions need at least
    n rounds; each later epoch doubles R up to the limit.  A prefix thus
    costs only the rounds that settle its first n emissions, and a drain
    (n >= limit) runs a single epoch.
    """
    running: List[int] = []  # codes not yet seen to halt
    settled, end = 0, min(limit, n)
    while end > settled:
        running.extend(range(settled + 1, end + 1))
        emissions: List[Tuple[int, int]] = []
        still: List[int] = []
        for code in running:
            # by round `end`, code has received end - code + 1 steps
            d = model.steps(code, end - code + 1)
            if d is None:
                still.append(code)
            else:
                emissions.append((code + d - 1, code))
        running = still
        # these codes all ran past round `settled`, so their emissions follow
        # every earlier one
        for _, code in sorted(emissions):
            yield code
        settled, end = end, min(2 * end, limit)


def dovetail_halting(model: HaltingModel, rounds: int) -> Enumerator:
    """A dovetail over `model` that runs at most `rounds` rounds, whatever
    the caller's budget."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    return lambda budget, n: dovetail(model, min(budget, rounds), n)


def take_prefix(e: Enumerator, n: int, budget: int) -> PrefixListing:
    """First min(n, achievable-within-budget) emissions, as a prefix.

    Short prefixes are valid results; callers inspect the length.  Refuses
    min(n, budget) > MAX_BUDGET with TooLarge: that bounds the values built
    and, for a dovetail, the rounds run, while a short prefix stays cheap at
    any budget.
    """
    if n < 0 or budget < 0:
        raise ValueError("n and budget must be >= 0")
    if min(n, budget) > MAX_BUDGET:
        raise TooLarge(min(n, budget), MAX_BUDGET)
    return PrefixListing(tuple(itertools.islice(e(budget, n), n)))


# _COLLATZ_HALT_STEPS[c] is the uncapped halt step d(c) of code c, 0 while
# unknown.  A code's halt step is the steps of its walk to the first value
# whose halt step is known, plus that value's, less the one observation step
# both count.  Once the codes below it are known, the walk is the code's glide
# to its first smaller value (Terras, 1976; Lagarias, 1985): 5.2 steps on
# average over codes up to 200,000, against 115 for the whole trajectory.  The
# table is shared by every call, so a later epoch, pass or prefix reads back
# what an earlier one found; it holds only codes <= MAX_BUDGET, so it never
# grows past MAX_BUDGET + 1 entries (1.6 MB).
_COLLATZ_HALT_STEPS: List[int] = [0, 1]


def _collatz_steps(code: int, cap: int) -> Optional[int]:
    # halving/tripling iterations down to 1, plus one observation step
    if code < 1:
        return None  # never reaches 1, and a negative x would index from the end
    table = _COLLATZ_HALT_STEPS
    size = len(table)
    x = code
    taken = 1
    while x != 1:
        if x < size and table[x]:
            taken += table[x] - 1
            break
        if taken >= cap:
            return None
        x = 3 * x + 1 if x % 2 else x // 2
        taken += 1
    if code < size:
        table[code] = taken
    elif code <= MAX_BUDGET:
        table.extend([0] * (min(2 * code, MAX_BUDGET + 1) - size))
        table[code] = taken
    # a walk that reached 1 passed every cap check on its way; one that stopped
    # at a known value has skipped the checks for the rest of its trajectory
    return taken if x == 1 or taken <= cap else None


# Register-machine instruction words, least-significant first in base 16:
#   op  = word % 3   (0 halt, 1 increment, 2 decrement-or-jump-if-zero)
#   reg = word // 3 % 2
#   arg = word // 6  (jump target, modulo program length)
_WORDS = tuple((w % 3, w // 3 % 2, w // 6) for w in range(16))


def _decode_program(code: int) -> List[Tuple[int, int, int]]:
    program = []
    n = code
    while n > 0:
        n, w = divmod(n - 1, 16)
        program.append(_WORDS[w])
    return program


def _register_machine_steps(code: int, cap: int) -> Optional[int]:
    program = _decode_program(code)
    regs = [0, 0]
    pc = 0
    taken = 0
    # Translated-cycle cut (the "translated cycler" decider of bbchallenge.org,
    # on Minsky's register machines, 1967), checked against the states kept at
    # steps 1, 2, 4, 8, ... as in Brent's cycle detection.  Suppose the machine
    # is back at a kept pc, no register is below its kept value, and each one
    # that grew was never found at zero by a decrement-or-jump since then.
    # Replaying the segment from here adds the same growth to every register,
    # and a zero test changes outcome only on a register that was 0 at that
    # test in the segment, which by the flags is one that did not grow; so the
    # replay takes the same branches, ends at the same pc with registers no
    # lower, and by induction the program never halts.  An exact cycle is the
    # case where no register grew.
    mark, saved_pc, saved0, saved1, zeroed = 1, -1, 0, 0, [False, False]
    while taken < cap:
        taken += 1
        if pc < 0 or pc >= len(program):
            return taken  # falling off the program is the halt observation
        if pc == saved_pc:
            r0, r1 = regs
            if (saved0 <= r0 and (r0 == saved0 or not zeroed[0])
                    and saved1 <= r1 and (r1 == saved1 or not zeroed[1])):
                return None
        if taken == mark:
            mark, saved_pc, (saved0, saved1), zeroed = 2 * mark, pc, regs, [False, False]
        op, reg, arg = program[pc]
        if op == 0:
            return taken
        if op == 1:
            regs[reg] += 1
            pc += 1
        elif regs[reg] == 0:
            zeroed[reg] = True
            pc = arg % len(program)
        else:
            regs[reg] -= 1
            pc += 1
    return None


COLLATZ_MODEL = HaltingModel("collatz", _collatz_steps)
REGISTER_MACHINE_MODEL = HaltingModel("rm", _register_machine_steps)
MODELS = {m.name: m for m in (COLLATZ_MODEL, REGISTER_MACHINE_MODEL)}


def builtin_models() -> List[HaltingModel]:
    return list(MODELS.values())


def _is_positive(text: str) -> bool:
    # str.isdigit alone admits non-ASCII digits such as "²", which int() rejects
    return text.isascii() and text.isdigit() and int(text) >= 1


def parse_spec(text: str) -> Enumerator:
    """Parse an enumerator spec string per the grammar above.

    even: h(i) = 2i.  nminus:k: i below position k, then i + 1 (a gap at
    k).  asc:...: the listed values in increasing order.  halt:<model>: the
    dovetail over that model, with the budget as its round limit.
    """
    if text == "even":
        return lambda budget, n: (2 * i for i in range(1, min(n, budget) + 1))
    if text.startswith("nminus:"):
        arg = text[len("nminus:"):]
        if not _is_positive(arg):
            raise SpecParseError(len("nminus:"), "a natural number")
        k = int(arg)
        return lambda budget, n: (i if i < k else i + 1 for i in range(1, min(n, budget) + 1))
    if text.startswith("asc:"):
        arg = text[len("asc:"):]
        parts = arg.split(",")
        if not all(_is_positive(p) for p in parts):
            raise SpecParseError(len("asc:"), "comma-separated naturals")
        values = tuple(sorted(int(p) for p in parts))
        if len(set(values)) != len(values):
            raise SpecParseError(len("asc:"), "distinct values")
        return lambda budget, n: iter(values[:min(n, budget)])
    if text.startswith("halt:"):
        model = MODELS.get(text[len("halt:"):])
        if model is None:
            raise SpecParseError(len("halt:"), f"one of: {', '.join(MODELS)}")
        return lambda budget, n: dovetail(model, budget, n)
    raise SpecParseError(0, "even | nminus:<nat> | asc:<nat>,... | halt:<model>")
