"""Answers the benchmark checks the package against, worked out without it.

Listings are built so that their relation is known by construction: g gets
extra inversions from f by swapping adjacent ranks k and k + 1 where k comes
first (each such swap adds exactly one inversion and removes none), and
relabelling a listing onto another value set keeps its pattern.  The halting
models are re-simulated here from their documented definitions, and the
oracle's instance counts have closed forms.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def random_ranks(rng, n: int) -> List[int]:
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    return ranks


def random_values(rng, n: int, low: int = 1) -> List[int]:
    """n distinct naturals >= low, ascending, drawn from a range of width 4n."""
    return sorted(rng.sample(range(low, low + 4 * n), n))


def realize(ranks: Sequence[int], ascending: Sequence[int]) -> Tuple[int, ...]:
    """The listing whose i-th value has rank ranks[i] within `ascending`."""
    return tuple(ascending[r - 1] for r in ranks)


def ranks_of(values: Sequence[int]) -> Tuple[int, ...]:
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


def positions(ranks: Sequence[int]) -> List[int]:
    """0-based position of each rank; index 0 and n + 1 are unused."""
    pos = [-1] * (len(ranks) + 2)
    for i, r in enumerate(ranks):
        pos[r] = i
    return pos


def raise_inversion(ranks: List[int], pos: List[int], k: int) -> Optional[Tuple[int, int]]:
    """Swap ranks k and k + 1 in place when k is listed first.

    Returns the one inversion the swap adds, as 1-based positions, or None
    when k + 1 already comes first (or k is the top rank).
    """
    if k >= len(ranks) or pos[k] > pos[k + 1]:
        return None
    i, j = pos[k], pos[k + 1]
    ranks[i], ranks[j] = k + 1, k
    pos[k], pos[k + 1] = j, i
    return (i + 1, j + 1)


def planted_pair(rng, n: int, at: int, extra: int = 4):
    """Ranks f and g with inv(f) a strict subset of inv(g).

    f lists some k at 0-based position `at` and k + 1 right after it; g
    swaps them, adding the inversion of two adjacent positions, and then
    adds `extra` inversions at later positions, so the least pair in
    inv(g) - inv(f) is (at + 1, at + 2).  Returns (f, g, that pair).
    """
    f = random_ranks(rng, n)
    if f[at] == n:
        f[at], f[at + 1] = f[at + 1], f[at]
    j = f.index(f[at] + 1)
    f[at + 1], f[j] = f[j], f[at + 1]
    g = list(f)
    pos = positions(g)
    added = [raise_inversion(g, pos, g[at])]
    for _ in range(extra):
        pair = raise_inversion(g, pos, g[rng.randrange(at + 1, n)])
        if pair:
            added.append(pair)
    return f, g, min(added)


def rank_planted_pair(rng, n: int, at: int, extra: int = 3):
    """Ranks f and g, inv(f) within inv(g), differing only from rank `at` up.

    Ranks below the first swapped one keep their positions, so the
    inverse-position clauses of f and g agree up to that rank.
    """
    f = random_ranks(rng, n)
    g = list(f)
    pos = positions(g)
    for k in list(range(max(at, 1), n)) + list(range(1, max(at, 1))):
        if raise_inversion(g, pos, k):
            lowest = k
            break
    else:
        return f, g  # the full reversal: g = f, inv(f) = inv(g)
    for k in rng.sample(range(lowest + 1, n), min(extra, max(n - lowest - 1, 0))):
        raise_inversion(g, pos, k)
    return f, g


def inverse_position_summary(f: Sequence[int], g: Sequence[int]):
    """(clause-1 f position, clause-1 g position, clause-2 premises held).

    Positions are 1-based positions of the least value; a clause-2 premise at
    index i holds when the positions of the i - 1 least values agree.
    """
    fp = positions(ranks_of(f))[1 : len(f) + 1]
    gp = positions(ranks_of(g))[1 : len(g) + 1]
    agree = next((j for j, (a, b) in enumerate(zip(fp, gp)) if a != b), len(fp))
    held = max(0, min(len(fp), agree + 1) - 1)
    return fp[0] + 1, gp[0] + 1, held


# --- halting models -------------------------------------------------------

def collatz_halt(code: int, cap: int) -> Optional[int]:
    """Steps to observe the halt: Collatz iterations down to 1, plus one."""
    x, iterations = code, 0
    while x != 1:
        x = 3 * x + 1 if x % 2 else x // 2
        iterations += 1
        if iterations + 1 > cap:
            return None
    return iterations + 1


def _rm_program(code: int) -> List[Tuple[int, int, int]]:
    program = []
    while code:
        code, word = divmod(code - 1, 16)
        program.append((word % 3, word // 3 % 2, word // 6))
    return program


def rm_halt(code: int, cap: int) -> Optional[int]:
    """Steps to observe the halt of the two-register machine `code`.

    Ops: 0 halt, 1 increment, 2 decrement or jump when zero; running off the
    program is observed as a halt.
    """
    program = _rm_program(code)
    size = len(program)
    regs = [0, 0]
    pc = 0
    for step in range(1, cap + 1):
        if not 0 <= pc < size:
            return step
        op, reg, arg = program[pc]
        if op == 0:
            return step
        if op == 1:
            regs[reg] += 1
            pc += 1
        elif regs[reg]:
            regs[reg] -= 1
            pc += 1
        else:
            pc = arg % size
    return None


HALT_MODELS = {"collatz": collatz_halt, "rm": rm_halt}


def dovetail_orders(model: str, budgets: Sequence[int]) -> Dict[int, Tuple[int, ...]]:
    """The emission order at each budget: halting codes by (code + d - 1, code).

    A code c runs at most budget - c + 1 steps by the last round, so one
    simulation per code at the largest budget serves every budget.
    """
    halt = HALT_MODELS[model]
    top = max(budgets)
    steps = {c: halt(c, top - c + 1) for c in range(1, top + 1)}
    orders = {}
    for budget in budgets:
        halted = [
            (c + d - 1, c)
            for c in range(1, budget + 1)
            if (d := steps[c]) is not None and d <= budget - c + 1
        ]
        orders[budget] = tuple(c for _, c in sorted(halted))
    return orders


# --- oracle ---------------------------------------------------------------

# the exhaustive-size caps when this benchmark was defined, pinned so the
# oracle workload stays fixed if a later change raises them
ORACLE_N = {
    "reflexive": 6,
    "transitive": 4,
    "non-antisymmetric": 8,
    "subset-characterization": 5,
    "lemma-2-3": 6,
    "lemma-2-8": 5,
    "transport": 4,
    "stabilization": 5,
    "class-count": 5,
}


def oracle_instances(property_id: str, n: int) -> int:
    """Instances an exhaustive check at size n examines."""
    perms = math.factorial(n)
    return {
        "reflexive": perms,
        "transitive": perms**3,
        "non-antisymmetric": 1,
        "subset-characterization": perms**2,
        "lemma-2-3": perms,
        "lemma-2-8": perms**2,
        "transport": perms**2,
        "stabilization": 200,
        "class-count": perms,
    }[property_id]
