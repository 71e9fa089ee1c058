"""Command-line surface.

Every command emits a single JSON object per result line (``--format json``,
the default) or a human-oriented text rendering (``--format text``).  Prefix
inputs are uniform across commands: the literal word ``inline`` followed by
space-separated naturals (or a flat JSON array), ``file:<path>`` for the
one-line prefix file format (a regular file, with lines of at most
MAX_LINE_CHARS), or an enumerator spec materialized with ``--prefix-len``
and ``--budget``.  ``prefixes.parse_naturals`` reads every natural given
as text, ASCII digits only: prefix values, numeric options, ``m=`` lines.

Each command is one ``COMMANDS`` entry: its number of prefix sources, its
extra arguments, and a function yielding ``(json_obj, text, exit_code)``
rows.  ``main`` prints each row and exits with the highest code; ``text``
is a zero-argument callable, called only for ``--format text``, so JSON
output never builds the text rendering.  The argparse parser is built once
per process, on the first ``main`` call, and is only read after that: each
parse makes a fresh namespace.

A command loads only the modules it runs.  This module imports ``errors``
and ``prefixes``, which every prefix source needs; the rest are imported
inside the functions that use them: ``enumerators`` by ``enumerate`` and
spec sources, ``algebra`` by ``transport``, ``stabilize`` and
``chain-make``, ``extraction`` by ``decide``, ``lemma8``, ``pred`` and
``family``, and ``oracle`` by ``verify``, which loads ``algebra`` or
``extraction`` only for the properties that use them.  ``compare``,
``pattern`` and ``inversions`` on inline or file sources load nothing more.

Exit codes: 0 success/pass, 1 property violation, 2 invalid input,
3 insufficient prefix.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from typing import (
    TYPE_CHECKING, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

from .errors import EnumOrderError, TooLarge
from .prefixes import PrefixListing, SetSample, inversions, leq_eo, make_prefix, parse_naturals

if TYPE_CHECKING:
    from .extraction import PairedListings

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_INSUFFICIENT = 3

Row = Tuple[dict, Callable[[], str], int]
T = TypeVar("T")

# the longest line, in characters with its newline, that a file source may
# hold: a MAX_BUDGET prefix written out is ~1.4 MB, and a valid line is ASCII,
# so this is its size in bytes too
MAX_LINE_CHARS = 8 * 2**20


def _int_at_least(low: int, text: str) -> int:
    """argparse type, as `nat` (>= 0) and `pos` (>= 1)."""
    error = argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text[:40]!r}")
    return parse_naturals([text], error, low)[0]


nat = functools.partial(_int_at_least, 0)
pos = functools.partial(_int_at_least, 1)


def _parse_values(text: str) -> List[int]:
    if text.lstrip().startswith("["):
        # a flat array holds one "[" and no "{"; refusing anything else here
        # also keeps json.loads from recursing into deep nesting
        if text.count("[") != 1 or "{" in text:
            raise EnumOrderError("JSON input must be a flat array of integers")
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise EnumOrderError(f"bad JSON array: {exc}")
        # type() rather than isinstance(): JSON true/false are bools, a subclass of int
        if not all(type(v) is int for v in data):
            raise EnumOrderError("JSON input must be a flat array of integers")
        return data
    return parse_naturals(text.split())


def _parse_prefix(text: str) -> PrefixListing:
    return make_prefix(_parse_values(text))


def _nonblank_lines(path: str, parse: Callable[[str], T]) -> Iterator[T]:
    """`parse` of each of the file's non-blank lines, stripped, read only as
    far as consumed.  An error in a line names its 1-based line number.

    Refuses a path that is not a regular file, which open() could block on
    (a FIFO) or read without end (a device), and a line longer than
    MAX_LINE_CHARS with TooLarge.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise EnumOrderError(f"cannot read {path}: not a regular file")
        with open(path, encoding="utf-8") as fh:
            number = 0
            while line := fh.readline(MAX_LINE_CHARS + 1):
                number += 1
                try:
                    if len(line) > MAX_LINE_CHARS:
                        raise TooLarge("line length", len(line), MAX_LINE_CHARS)
                    if not line.strip():
                        continue
                    value = parse(line.strip())
                except EnumOrderError as exc:
                    raise EnumOrderError(f"line {number}: {exc}") from None
                yield value
    except (OSError, UnicodeDecodeError) as exc:
        raise EnumOrderError(f"cannot read {path}: {exc}")


def parse_sources(tokens: Sequence[str], prefix_len: int, budget: int) -> List[PrefixListing]:
    """Resolve a token stream of prefix sources.

    ``inline`` consumes the following token as literal values; ``file:<path>``
    reads the first prefix line of a file; anything else is an enumerator
    spec, materialized at --prefix-len under --budget.
    """
    out: List[PrefixListing] = []
    it = iter(tokens)
    for tok in it:
        if tok == "inline":
            try:
                raw = next(it)
            except StopIteration:
                raise EnumOrderError("'inline' must be followed by a value string")
            out.append(_parse_prefix(raw))
        elif tok.startswith("file:"):
            out.append(next(_nonblank_lines(tok[len("file:"):], _parse_prefix), PrefixListing(())))
        else:
            from . import enumerators

            e = enumerators.parse_spec(tok)
            out.append(enumerators.take_prefix(e, prefix_len, budget))
    return out


def load_paired_file(path: str) -> PairedListings:
    """Two prefix lines then ``m=<nat>``; an error in the m line quotes it."""
    from .extraction import PairedListings

    lines = list(_nonblank_lines(
        path, lambda line: line if line.startswith("m=") else _parse_prefix(line)
    ))
    # two prefixes, then the m line as text
    if [isinstance(line, str) for line in lines] != [False, False, True]:
        raise EnumOrderError("paired file needs two prefix lines then 'm=<nat>'")
    f, g, m_line = lines
    (m,) = parse_naturals([m_line[2:]], EnumOrderError(f"bad m line: {m_line[:40]!r}"))
    return PairedListings(f, g, m)


def _words(values) -> str:
    return " ".join(map(str, values))


def _compare(args, f: PrefixListing, g: PrefixListing) -> Iterator[Row]:
    """Reducibility both ways plus equivalence."""
    fg = leq_eo(f, g)
    gf = leq_eo(g, f)
    fail_at = fg.fail_at or gf.fail_at
    equiv = fg.holds and gf.holds
    obj = {
        "f_le_g": fg.holds,
        "g_le_f": gf.holds,
        "equiv": equiv,
        "fail_at": list(fail_at) if fail_at else None,
    }
    text = f"f <=eo g: {fg.holds}; g <=eo f: {gf.holds}; equivalent: {equiv}"
    if fail_at:
        text += f"; first violation at positions {fail_at}"
    yield obj, lambda: text, EXIT_OK


def _verify(args) -> Iterator[Row]:
    """Run brute-force property checks."""
    from . import oracle

    if args.property == "all":
        jobs = [(pid, min(args.n, cap)) for pid, (cap, _) in oracle.REGISTRY.items()]
    else:
        jobs = [(args.property, args.n)]
    for report in oracle.run_properties(jobs):
        status = "pass" if report.passed else "FAIL"
        text = f"{report.property_id} (n={report.n}): {status} over {report.instances} instances"
        yield report.to_json(), lambda: text, EXIT_OK if report.passed else EXIT_VIOLATION


def _decide(args) -> Iterator[Row]:
    """Membership from a paired-listings file."""
    from .extraction import Membership, decide_membership

    report = decide_membership(load_paired_file(args.paired), args.x)
    descent = list(report.descent)
    obj = {"x": report.x, "result": report.result.value, "descent": descent}
    text = f"x={report.x}: {report.result.value}; descent {descent}"
    code = EXIT_INSUFFICIENT if report.result is Membership.INSUFFICIENT else EXIT_OK
    yield obj, lambda: text, code


def _pattern(args, p: PrefixListing) -> Iterator[Row]:
    """Standardized rank sequence of a prefix."""
    ranks = p.ranks
    yield {"values": list(p.values), "pattern": list(ranks)}, lambda: _words(ranks), EXIT_OK


def _inversions(args, p: PrefixListing) -> Iterator[Row]:
    """Inverted position pairs of a prefix."""
    pairs = sorted(inversions(p))
    obj = {"values": list(p.values), "inversions": [list(pr) for pr in pairs]}
    yield obj, lambda: " ".join(f"({i},{j})" for i, j in pairs) or "(none)", EXIT_OK


def _transport(args, h, h_prime, g_prime) -> Iterator[Row]:
    """Carry h's order onto g_prime's values (sources: h h_prime g_prime)."""
    from .algebra import transport

    result = transport(h, h_prime, g_prime)
    yield {"result": list(result.values)}, lambda: _words(result.values), EXIT_OK


def _stabilize(args) -> Iterator[Row]:
    """Find the least repeat in a chain file."""
    from .algebra import Chain, chain_stabilize

    chain = Chain(tuple(_nonblank_lines(args.chain, _parse_prefix)))
    repeat = chain_stabilize(chain)
    obj = {"length": len(chain), "repeat": list(repeat) if repeat else None}
    yield obj, lambda: f"repeat at {repeat}" if repeat else "no repeat in chain", EXIT_OK


def _lemma8(args, f: PrefixListing, g: PrefixListing) -> Iterator[Row]:
    """Inverse-position clause report for f <=eo g."""
    from . import extraction

    report = extraction.check_inverse_positions(f, g)
    c1 = report.clause1
    clause2 = [
        {"i": e.index, "premise": e.premise_held, "fpos": e.fpos, "gpos": e.gpos, "holds": e.holds}
        for e in report.clause2
    ]
    obj = {
        "clause1": {"fpos": c1.fpos, "gpos": c1.gpos, "holds": c1.holds},
        "clause2": clause2,
        "all_hold": report.all_hold,
    }
    text = f"all clauses hold: {report.all_hold}"
    yield obj, lambda: text, EXIT_OK if report.all_hold else EXIT_VIOLATION


def _pred(args) -> Iterator[Row]:
    """Predecessor of a value via a paired file."""
    from .extraction import predecessor

    value = predecessor(load_paired_file(args.paired), args.a)
    yield {"a": args.a, "predecessor": value}, lambda: str(value), EXIT_OK


def _family(args) -> Iterator[Row]:
    """Finite low-element modifications of a sample."""
    from . import extraction

    sample = SetSample(frozenset(_parse_values(args.elements)), args.bound)
    family = [sorted(s.elements) for s in extraction.family_below(sample, args.n)]
    obj = {"bound": args.bound, "family": family}
    yield obj, lambda: "\n".join(_words(elements) for elements in family), EXIT_OK


def _enumerate(args) -> Iterator[Row]:
    """Materialize an enumerator prefix."""
    from . import enumerators

    e = enumerators.parse_spec(args.spec)
    p = enumerators.take_prefix(e, args.prefix_len, args.budget)
    yield {"spec": args.spec, "values": list(p.values)}, lambda: _words(p.values), EXIT_OK


def _chain_make(args) -> Iterator[Row]:
    """Maximal strictly descending chain."""
    from .algebra import make_strict_chain

    listings = [list(p.values) for p in make_strict_chain(args.n).listings]
    obj = {"n": args.n, "chain": listings}
    yield obj, lambda: "\n".join(_words(values) for values in listings), EXIT_OK


class Command(NamedTuple):
    sources: int  # prefix sources taken as positionals; 0 for none
    arguments: Tuple[Tuple[str, dict], ...]  # (flag or name, add_argument kwargs)
    run: Callable[..., Iterator[Row]]  # run(args, *prefixes); its docstring is the help


def _required(flag: str, kind=str) -> Tuple[str, dict]:
    return flag, {"type": kind, "required": True}


PREFIX_OPTIONS = (
    ("--prefix-len", {"type": nat, "default": 32}),
    ("--budget", {"type": nat, "default": 10000}),
)
# oracle.REGISTRY's ids, in its order, spelled out so that building the
# parser does not import the oracle
PROPERTY_IDS = (
    "reflexive",
    "transitive",
    "non-antisymmetric",
    "subset-characterization",
    "lemma-2-3",
    "lemma-2-8",
    "transport",
    "stabilization",
    "class-count",
)
PROPERTY = ("--property", {"required": True, "choices": ("all", *PROPERTY_IDS)})
PAIRED = _required("--paired")

COMMANDS = {
    "compare": Command(2, PREFIX_OPTIONS, _compare),
    "verify": Command(0, (PROPERTY, _required("--n", nat)), _verify),
    "decide": Command(0, (PAIRED, _required("--x", pos)), _decide),
    "pattern": Command(1, PREFIX_OPTIONS, _pattern),
    "inversions": Command(1, PREFIX_OPTIONS, _inversions),
    "transport": Command(3, PREFIX_OPTIONS, _transport),
    "stabilize": Command(0, (_required("--chain"),), _stabilize),
    "lemma8": Command(2, PREFIX_OPTIONS, _lemma8),
    "pred": Command(0, (PAIRED, _required("--a", pos)), _pred),
    "family": Command(
        0, (_required("--elements"), _required("--bound", nat), _required("--n", nat)), _family
    ),
    "enumerate": Command(0, (("spec", {}), *PREFIX_OPTIONS), _enumerate),
    "chain-make": Command(0, (_required("--n", pos),), _chain_make),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumorder",
        description="Enumeration-order analysis of listing prefixes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__)
        if command.sources:
            p.add_argument("sources", nargs="+", help=f"{command.sources} prefix source(s)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flag, kwargs in command.arguments:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    command = COMMANDS[args.command]
    code = EXIT_OK
    try:
        prefixes = []
        if command.sources:
            prefixes = parse_sources(args.sources, args.prefix_len, args.budget)
        if len(prefixes) != command.sources:
            raise EnumOrderError(f"{args.command} takes {command.sources} prefix source(s)")
        for obj, text, row_code in command.run(args, *prefixes):
            print(json.dumps(obj) if args.format == "json" else text())
            code = max(code, row_code)
    except EnumOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
