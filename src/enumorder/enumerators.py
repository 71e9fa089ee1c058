"""Producers of listing prefixes.

An enumerator is a function `(budget, n)` returning, as a PrefixListing,
the first at most `n` values of its stream within the budget: distinct
naturals, in an order that depends on neither argument.  The budget's unit
is per kind: one emission for the closed forms, one dovetail round for a
halting model.  An enumerator does no work past the `n` values it returns,
and what it returns is a prefix of what it would return for any larger
`n`.  Each call yields the identical stream; a halting model's enumerator
also keeps the rounds it has settled, so a later call reads them back
instead of running them again.

Closed forms cover the worked examples (doubling, shifted identity,
explicit ascending lists).  A `Dovetail` stands in for a halting-set
enumeration: it interleaves simulation of all codes and emits each code in
the round where its halt is observed, so the emission order reflects
halting times rather than magnitude.

Spec grammar: ``even | nminus:<nat> | asc:<nat>(,<nat>)* | halt:<model-name>``,
where each <nat> is read by ``prefixes.parse_naturals`` and must be >= 1.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from .errors import EnumOrderError, SpecParseError, TooLarge
from .prefixes import PrefixListing, _unchecked, parse_naturals

# a drain at this size from a cold start, in process, takes 0.69-0.86 s with
# halt:rm, the slower model, and 0.46-0.54 s with halt:collatz (2-core host,
# Python 3.11, five runs each).  It leaves the model's shared Dovetail with
# 200,000 rounds settled, and it keeps each of those codes in under 48 bytes
# (~44 as tracemalloc counts them): 8.7-8.8 MB.  A prefix of this many
# values at a larger budget settles 400,000 (under 19.2 MB), and no call
# settles 800,000 (38.4 MB; see Dovetail).
MAX_BUDGET = 200_000

# called as e(budget, n), returning a PrefixListing: a checked one, or a
# head of one or of a Dovetail's codes, which are distinct and >= 1 by
# construction; see the module docstring
Enumerator = Callable[[int, int], PrefixListing]

# A halting model over codes 1, 2, ...: steps(code, cap) is the simulation
# step at which the code is observed to halt (always >= 1), or None if it has
# not halted within `cap` steps.  Repeated queries agree.
Steps = Callable[[int, int], Optional[int]]


class Dovetail:
    """Round-robin dovetail over a halting model, as an Enumerator whose
    budget is its round limit.

    Round r gives one simulation step to each of codes 1..r, in ascending
    code order; a code halting at its d-th step is emitted in round
    code + d - 1, ties broken by code.  That order is a fact about the
    model, so the enumerator keeps it: `codes` and `rounds` hold the
    emissions of rounds 1..`settled` in order, and `running` the codes not
    yet seen to halt.

    Rounds are settled in epochs.  After epoch R every code c <= R has had
    R - c + 1 steps, so each emission in a round <= R is final whatever the
    limit: c + d - 1 <= limit exactly when d <= limit - c + 1.  A call
    (limit, n) settles epochs only while fewer than n emissions are known
    and the limit lies past `settled`.  The first epoch runs to min(limit,
    n), since n distinct emissions need at least n rounds, and each later
    one to min(limit, max(n, 2 * settled)).  A prefix thus costs only the
    rounds that settle its first n emissions, a cold drain (n >= limit) runs
    a single epoch, and a call within the settled rounds runs none: its
    answer is the emissions in rounds <= limit, found by bisecting `rounds`.

    `running` is in ascending code order: the codes left over from earlier
    epochs, then the epoch's new ones.  So one stable sort of the codes an
    epoch emits, keyed by their rounds (small ints, indexed by code), gives
    its emission order with ties in code order.  Every code the epoch emits
    ran past round `settled`, so its emissions follow all earlier ones.

    Each code up to `settled` is either emitted or running, and a running
    code is simulated again from its first step in each later epoch.
    `codes` is one PrefixListing of every emission, joined at the end of
    each epoch without the constructor's checks: an epoch's codes come from
    `running` or from `range(settled + 1, end + 1)`, so they are >= 1,
    distinct, and none of them is kept already.  A call's answer is then
    `codes.head`, one tuple slice of the int objects the epochs made, with
    no check and no new int.  `rounds` stays an array('i') of 4 bytes a
    round, since only bisect_right reads it, ~18 probes a call.  A kept
    code, emitted (a 32-byte int as tracemalloc counts it, an 8-byte tuple
    slot with no spare slots, and its round) or running (the int and a list
    slot), takes ~44 bytes and under 48.
    Through take_prefix, rounds past MAX_BUDGET run only for a call of
    n <= MAX_BUDGET values, from a settled round with fewer than n
    emissions.  Both models emit MAX_BUDGET codes by round 2 * MAX_BUDGET,
    so such an epoch starts below that round and ends below 4 * MAX_BUDGET:
    no call keeps 4 * MAX_BUDGET codes.
    Like the Collatz table, the state takes no lock: callers on several
    threads must not call one dovetail at once.
    """

    __slots__ = ("steps", "settled", "running", "codes", "rounds")

    def __init__(self, steps: Steps):
        self.steps = steps
        self.settled = 0
        self.running: List[int] = []
        self.codes = PrefixListing(())
        self.rounds = array("i")

    def __call__(self, limit: int, n: int) -> PrefixListing:
        while self.settled < limit and len(self.codes) < n:
            self._settle(min(limit, max(n, 2 * self.settled)))
        return self.codes.head(min(n, bisect_right(self.rounds, limit)))

    def _settle(self, end: int) -> None:
        steps = self.steps
        running = self.running
        running.extend(range(self.settled + 1, end + 1))
        round_of = [0] * (end + 1)
        emitted: List[int] = []
        still: List[int] = []
        for code in running:
            # by round `end`, code has received end - code + 1 steps
            d = steps(code, end - code + 1)
            if d is None:
                still.append(code)
            else:
                emitted.append(code)
                round_of[code] = code + d - 1
        emitted.sort(key=round_of.__getitem__)
        self.rounds.fromlist(list(map(round_of.__getitem__, emitted)))
        self.running = still
        self.settled = end
        self.codes = _unchecked(self.codes.values + tuple(emitted))


def take_prefix(e: Enumerator, n: int, budget: int) -> PrefixListing:
    """First min(n, achievable-within-budget) emissions, as a prefix: the
    enumerator's own PrefixListing, neither copied nor checked again.

    Short prefixes are valid results; callers inspect the length.  Refuses
    min(n, budget) > MAX_BUDGET with TooLarge: that bounds the values built
    and, for a Dovetail, the rounds run, while a short prefix stays cheap at
    any budget.
    """
    if n < 0 or budget < 0:
        raise EnumOrderError("n and budget must be >= 0")
    if min(n, budget) > MAX_BUDGET:
        raise TooLarge("min(n, budget)", min(n, budget), MAX_BUDGET)
    return e(budget, n)


# _COLLATZ_HALT_STEPS[c] is the uncapped halt step d(c) of code c, 0 while
# unknown.  A code's halt step is the steps of its walk to the first value
# whose halt step is known, plus that value's, less the one observation step
# both count.  Once the codes below it are known, the walk is the code's glide
# to its first smaller value (Terras, 1976; Lagarias, 1985): 5.2 steps on
# average over codes up to 200,000, against 115 for the whole trajectory.  So
# the table serves each walk's glide.  It is shared by every call and holds
# only codes <= MAX_BUDGET, so it never grows past MAX_BUDGET + 1 entries
# (1.6 MB).
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
    # store codes up to MAX_BUDGET, growing the table by doubling; a code of
    # 1 or one read back from the table is known already
    if x != code and code <= MAX_BUDGET:
        if code >= size:
            table.extend([0] * (min(2 * code, MAX_BUDGET + 1) - size))
        table[code] = taken
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


def _register_machine_steps(code: int, cap: int) -> Optional[int]:
    """The halt step of `code` if it halts within `cap` steps, else None.  A
    cycle cut answers None once it proves the code never halts, by step 15
    for every such code up to MAX_BUDGET, so a code cut in one dovetail
    epoch is cut again within a few steps when the next one runs it."""
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
            pc = arg % size
        else:
            regs[reg] -= 1
            pc += 1
    return None


MODELS = {"collatz": _collatz_steps, "rm": _register_machine_steps}

# one Dovetail per model, handed out by parse_spec, so that every halt: call
# in a process shares the rounds settled so far, as it shares the Collatz table
_HALTING = {name: Dovetail(steps) for name, steps in MODELS.items()}


def parse_spec(text: str) -> Enumerator:
    """Parse an enumerator spec string per the grammar above.

    even: h(i) = 2i.  nminus:k: i below position k, then i + 1 (a gap at
    k).  asc:...: the listed values in increasing order.  halt:<model>: the
    model's one shared Dovetail, with the budget as its round limit.
    """
    if text == "even":
        return lambda budget, n: PrefixListing(tuple(range(2, 2 * min(n, budget) + 1, 2)))
    if text.startswith("nminus:"):
        error = SpecParseError(len("nminus:"), "a natural number")
        (k,) = parse_naturals([text[len("nminus:"):]], error, 1)
        return lambda budget, n: PrefixListing(
            tuple(i if i < k else i + 1 for i in range(1, min(n, budget) + 1)))
    if text.startswith("asc:"):
        error = SpecParseError(len("asc:"), "comma-separated naturals")
        values = tuple(sorted(parse_naturals(text[len("asc:"):].split(","), error, 1)))
        if len(set(values)) != len(values):
            raise SpecParseError(len("asc:"), "distinct values")
        listing = PrefixListing(values)
        return lambda budget, n: listing.head(min(n, budget))
    if text.startswith("halt:"):
        e = _HALTING.get(text[len("halt:"):])
        if e is None:
            raise SpecParseError(len("halt:"), f"one of: {', '.join(MODELS)}")
        return e
    raise SpecParseError(0, "even | nminus:<nat> | asc:<nat>,... | halt:<model>")
