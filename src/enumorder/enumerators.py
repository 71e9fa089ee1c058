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
from typing import Callable, Iterator, List, Optional, Tuple

from .errors import SpecParseError, TooLarge
from .prefixes import PrefixListing

# a drain at this size from cold tables, in process, takes 0.69-0.86 s with
# halt:rm, the slower model, and 0.46-0.54 s with halt:collatz (2-core host,
# Python 3.11, five runs each)
MAX_BUDGET = 200_000

# called as e(budget, n); see the module docstring
Enumerator = Callable[[int, int], Iterator[int]]

# A halting model over codes 1, 2, ...: steps(code, cap) is the simulation
# step at which the code is observed to halt (always >= 1), or None if it has
# not halted within `cap` steps.  Repeated queries agree.
Steps = Callable[[int, int], Optional[int]]


def dovetail(steps: Steps, limit: int, n: int) -> Iterator[int]:
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

    Within an epoch every round and every code is at most R, so an emission
    is kept as the one int round * (R + 1) + code.  These ints sort as the
    (round, code) pairs do, and one int sort per epoch gives its emission
    order; the code is the key modulo R + 1.
    """
    running: List[int] = []  # codes not yet seen to halt
    settled, end = 0, min(limit, n)
    while end > settled:
        running.extend(range(settled + 1, end + 1))
        width = end + 1
        emissions: List[int] = []
        still: List[int] = []
        for code in running:
            # by round `end`, code has received end - code + 1 steps
            d = steps(code, end - code + 1)
            if d is None:
                still.append(code)
            else:
                emissions.append((code + d - 1) * width + code)
        running = still
        # these codes all ran past round `settled`, so their emissions follow
        # every earlier one
        emissions.sort()
        yield from [key % width for key in emissions]
        settled, end = end, min(2 * end, limit)


def dovetail_halting(steps: Steps) -> Enumerator:
    """The dovetail over `steps`, with the caller's budget as its only round
    limit.  Fewer rounds are a smaller budget: take_prefix(e, n, min(budget,
    rounds))."""
    return lambda budget, n: dovetail(steps, budget, n)


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


def _remember(table: List[int], code: int, value: int) -> None:
    # table[code] = value for codes up to MAX_BUDGET, growing the table by
    # doubling, so it never holds more than MAX_BUDGET + 1 entries
    size = len(table)
    if code >= size:
        if code > MAX_BUDGET:
            return
        table.extend([0] * (min(2 * code, MAX_BUDGET + 1) - size))
    table[code] = value


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
    if x != code:  # else the code was 1 or read back from the table
        _remember(table, code, taken)
    # a walk that stopped at a known value has skipped the cap checks for the
    # rest of its trajectory, and code 1 met none
    return taken if taken <= cap else None


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


# _RM_OUTCOMES[c] is what simulating code c has proved: its halt step d >= 1,
# _NEVER_HALTS once a cycle cut has fired, 0 while unknown.  A run that only
# reached its cap proves neither and is not kept.  Both outcomes hold at every
# cap: a code that halts at step d answers d exactly when d <= cap, and a cut
# is a proof that the code never halts.  Like _COLLATZ_HALT_STEPS the table is
# shared by every call, so a code cut in one epoch is not simulated again in
# the next, and it holds only codes 1..MAX_BUDGET.
_NEVER_HALTS = -1
_RM_OUTCOMES: List[int] = [0]


def _register_machine_steps(code: int, cap: int) -> Optional[int]:
    table = _RM_OUTCOMES
    known = table[code] if 0 < code < len(table) else 0
    if not known:
        known = _simulate_register_machine(code, cap)
        if known is None:
            return None
        if code > 0:
            _remember(table, code, known)
    return known if 0 < known <= cap else None


def _simulate_register_machine(code: int, cap: int) -> Optional[int]:
    """The halt step of `code` if it halts within `cap` steps, _NEVER_HALTS if
    a cycle cut proves it never does, else None."""
    program = _decode_program(code)
    size = len(program)
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
        if pc >= size:
            return taken  # falling off the program is the halt observation
        if pc == saved_pc:
            r0, r1 = regs
            if (saved0 <= r0 and (r0 == saved0 or not zeroed[0])
                    and saved1 <= r1 and (r1 == saved1 or not zeroed[1])):
                return _NEVER_HALTS
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
            pc = arg % size
        else:
            regs[reg] -= 1
            pc += 1
    return None


MODELS = {"collatz": _collatz_steps, "rm": _register_machine_steps}


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
        steps = MODELS.get(text[len("halt:"):])
        if steps is None:
            raise SpecParseError(len("halt:"), f"one of: {', '.join(MODELS)}")
        return dovetail_halting(steps)
    raise SpecParseError(0, "even | nminus:<nat> | asc:<nat>,... | halt:<model>")
