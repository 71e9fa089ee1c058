"""A standing table of mutants, so that each claim "this mutant fails these
tests" stays true as the code changes.  This is mutation testing (DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer, 1978),
done by hand over a literal table, with no package beside pytest.

Each row of MUTANTS holds a file, a snippet that occurs in it exactly once,
the snippet's replacement, the pytest node ids to run, and the outcome they
must give: "killed" (some test fails or times out) or "survives" (all pass:
a known gap, kept so that the test that closes it shows).  For each row,
src/, tests/ and pyproject.toml are copied to a fresh temporary directory,
the snippet is replaced there, and the node ids run in a child pytest under
a timeout.  The unmutated copy runs every named node id first, and they must
all pass.  One JSON line is printed per run, and the exit status is 1 when
any outcome differs from what its row expects.

    python tests/mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

ROW_TEST = "tests/test_fast_paths.py::TestRowRestriction::test_exhaustive_on_permutations[3]"
VALUE_TEST = "tests/test_fast_paths.py::TestValueRows::test_exhaustive_on_one_value_set[4]"
KERNEL_TEST = "tests/test_fast_paths.py::TestFenwickKernel::test_exhaustive_on_permutations[4]"
MASK_TEST = "tests/test_fast_paths.py::TestLeqEoFastPath::test_exhaustive_on_permutations[4]"
RECORDS = "tests/test_extraction.py::TestInversePositionRecords"
CLAUSES_TEST = RECORDS + "::test_clauses_are_evaluated_without_the_precondition[3]"
SEEDED_TEST = RECORDS + "::test_seeded_pairs[33]"

# (file, snippet, replacement, node ids, expected outcome)
MUTANTS = [
    # leq_eo's rows keep the differing positions alone, without the
    # positions whose equal rank lies inside a differing interval
    ("src/enumorder/prefixes.py",
     "if all(abs(fx[d] - gx[d]) == 1 for d in differ):",
     "if True:",
     [ROW_TEST], "killed"),
    # each interval of ranks is flagged without its two ends
    ("src/enumorder/prefixes.py",
     'flags[lo : hi + 1] = b"\\1" * (hi - lo + 1)',
     'flags[lo + 1 : hi] = b"\\1" * (hi - lo - 1)',
     [ROW_TEST], "killed"),
    # each interval of values is flagged without its two ends
    ("src/enumorder/prefixes.py",
     'flags[lo : hi + 1] = b"\\1" * (hi - lo + 1)',
     'flags[lo + 1 : hi] = b"\\1" * (hi - lo - 1)',
     [VALUE_TEST], "killed"),
    # a pair that differs at every position is read off its values, not
    # handed to its ranks
    ("src/enumorder/prefixes.py",
     " or len(differ) == len(fx):",
     ":",
     [VALUE_TEST], "killed"),
    # the flagged intervals are not clipped at max(f), so a g-value far
    # above it sizes the flags
    ("src/enumorder/prefixes.py",
     "min(gx[d], top)",
     "gx[d]",
     ["tests/test_fast_paths.py::TestValueRows::test_the_ranks_decide_the_rest"],
     "killed"),
    # values above 8n are flagged, at more bytes than the ranks they replace
    ("src/enumorder/prefixes.py",
     "if top > 8 * len(fx):",
     "if False:",
     [VALUE_TEST], "killed"),
    # when every position is a row, the kernel's tree is indexed by f's
    # values instead of its ranks
    ("src/enumorder/prefixes.py",
     "_fenwick_fail_at(f.ranks, gx)",
     "_fenwick_fail_at(fx, gx)",
     [VALUE_TEST], "killed"),
    # the restricted witness maps back one row too far
    ("src/enumorder/prefixes.py",
     "(rows[i - 1] + 1, rows[j - 1] + 1)",
     "(rows[i] + 1, rows[j] + 1)",
     [ROW_TEST], "killed"),
    # g's restriction to the rows is read from f's entries
    ("src/enumorder/prefixes.py",
     "tuple(map(gx.__getitem__, rows))",
     "tuple(map(fx.__getitem__, rows))",
     [ROW_TEST], "killed"),
    # a pair of equal patterns goes on to the row search and the kernel
    ("src/enumorder/prefixes.py",
     "if fx == gx:",
     "if False:",
     ["tests/test_fast_paths.py::TestLeqEoFastPath::test_equal_patterns_skip_the_scan"],
     "killed"),
    # the kernel's least j is the first one right of i with a lower f-rank,
    # whatever its g-rank
    ("src/enumorder/prefixes.py",
     "if fr[j] < a and gr[j] > b)",
     "if fr[j] < a)",
     [KERNEL_TEST], "killed"),
    # the kernel's tree over the rows from the bound on is not built bottom-up
    ("src/enumorder/prefixes.py",
     "if up <= n and tree[up] < tree[r]:",
     "if False:",
     [KERNEL_TEST], "killed"),
    # the adjacent failure that bounds the scan is not the default answer
    ("src/enumorder/prefixes.py",
     "least = bound",
     "least = None",
     [KERNEL_TEST], "killed"),
    # each query reads one tree node instead of walking down to the first
    # node above the bound
    ("src/enumorder/prefixes.py",
     "while r and tree[r] < b:",
     "if r and tree[r] < b:",
     [KERNEL_TEST], "killed"),
    # the row just left of the bound is never queried
    ("src/enumorder/prefixes.py",
     "range(bound - 1, -1, -1)",
     "range(bound - 2, -1, -1)",
     [KERNEL_TEST], "killed"),
    # each row of inversions compares its value with the values from one
    # position too far right, so j is paired with p(j + 1)
    ("src/enumorder/prefixes.py",
     "map(gt, repeat(v), vals[i:])",
     "map(gt, repeat(v), vals[i + 1:])",
     ["tests/test_prefixes.py::TestInversions::test_matches_double_loop"], "killed"),
    # an absent value is looked up at position 0 instead of refused
    ("src/enumorder/prefixes.py",
     'raise EnumOrderError(f"value not enumerated in prefix: {v}") from None',
     "return 0",
     ["tests/test_algebra.py::TestInverseLookup::test_absent"], "killed"),
    # clause 1 is taken as holding; as with clause 2 below, only a pair
    # leq_eo refuses can fail it
    ("src/enumorder/extraction.py",
     "fpos[0] <= gpos[0]",
     "True",
     [CLAUSES_TEST], "killed"),
    # an evaluated clause 2 is taken as holding, as a vacuous one is; on a
    # pair that leq_eo accepts no evaluated clause fails, so the test that
    # kills it patches the precondition out
    ("src/enumorder/extraction.py",
     "fp <= gp if premise else True",
     "True",
     [CLAUSES_TEST], "killed"),
    # all_hold reads each entry's premise_held in place of its holds
    ("src/enumorder/extraction.py",
     "all(map(itemgetter(4), self.clause2))",
     "all(map(itemgetter(1), self.clause2))",
     [SEEDED_TEST], "killed"),
    # PairedListings accepts a pair whose ranks are not aligned
    ("src/enumorder/extraction.py",
     "if image != f.values:",
     "if False:",
     ["tests/test_extraction.py::TestMakePaired"], "killed"),
    # membership is decided from the largest enumerated value above x, not
    # the least
    ("src/enumorder/extraction.py",
     "min(filter(x.__lt__, p.g.values), default=None)",
     "max(filter(x.__lt__, p.g.values), default=None)",
     ["tests/test_extraction.py::TestDecideMembership"], "killed"),
    # the small path reads the inversions of g missing from f, not those of
    # f missing from g
    ("src/enumorder/prefixes.py",
     "missing = f.inversion_mask & ~g.inversion_mask",
     "missing = g.inversion_mask & ~f.inversion_mask",
     [MASK_TEST], "killed"),
    # the small path decodes its witness one bit high
    ("src/enumorder/prefixes.py",
     "i, j = divmod(low.bit_length() - 1, n)",
     "i, j = divmod(low.bit_length(), n)",
     ["tests/test_prefixes.py::TestLeqEo::test_least_failure_witness",
      "tests/test_prefixes.py::TestLeqEo::test_witness_is_lex_least"], "killed"),
    # the oracle's random walks step to any prefix, not one of the down-set
    ("src/enumorder/oracle.py",
     "below = down[k]",
     "below = range(len(prefixes))",
     ["tests/test_oracle.py::TestRunProperty::test_passes_at_small_n[stabilization]",
      "tests/test_oracle_reference.py::test_matches_reference_up_to_cap[stabilization]"],
     "killed"),
    # the ranks are the argsort itself, not its inverse: the position of
    # each rank in place of the rank of each position.  (Ordinal against
    # dense ranks, an older row's mutant, has no counterpart: construction
    # refuses repeats, so the two agree on every tuple _ranks is handed)
    ("src/enumorder/prefixes.py",
     "ranks[k] = rank",
     "ranks[rank - 1] = k + 1",
     ["tests/test_fast_paths.py::TestRanks::test_matches_sorted_index"], "killed"),
    # the parent reads a report for every job, so a job the child claimed
    # and never reported is not run again here
    ("src/enumorder/oracle.py",
     "report = reports[i] if i in reports else run_property(*job)",
     "report = reports[i]",
     ["tests/test_oracle.py::TestRunProperties::test_child_dies"], "killed"),
    # the killed child is never reaped, so it is left for the caller to wait for
    ("src/enumorder/oracle.py",
     "os.waitpid(child, 0)",
     "pass",
     ["tests/test_oracle.py::TestRunProperties::test_child_reaped_before_the_first_report"],
     "killed"),
    # stabilize reads one chain listing past the line-count cap
    ("src/enumorder/cli.py",
     "if len(listings) > max_listings:",
     "if len(listings) > max_listings + 1:",
     ["tests/test_cli.py::TestInputLimits::test_chain_past_the_listing_cap"], "killed"),
    # each derived index is stored under another key, so every read builds
    # it again
    ("src/enumorder/prefixes.py",
     "instance.__dict__[self.name] = self.func(instance)",
     'instance.__dict__["_" + self.name] = self.func(instance)',
     ["tests/test_prefixes.py::TestDerivedIndexes::test_built_once_per_instance"],
     "killed"),
    # each verdict read as fail_at, inverted
    ("src/enumorder/algebra.py",
     "if leq_eo(b, a).fail_at is not None:",
     "if leq_eo(b, a).fail_at is None:",
     ["tests/test_algebra.py::TestChainStabilize::test_invariant_violated"], "killed"),
    ("src/enumorder/extraction.py",
     "if verdict.fail_at is not None:",
     "if verdict.fail_at is None:",
     ["tests/test_extraction.py::TestInversePositions::test_precondition_enforced"],
     "killed"),
    ("src/enumorder/oracle.py",
     "if leq_eo(f, f).fail_at is not None:",
     "if leq_eo(f, f).fail_at is None:",
     ["tests/test_oracle.py::TestRunProperty::test_passes_at_small_n[reflexive]"],
     "killed"),
    # halt:rm's cycle cut accepts a register 0 that shrank since the
    # checkpoint; no program of up to 6 words tells it apart
    ("src/enumorder/enumerators.py",
     "if (saved0 <= r0 and (r0 == saved0 or not zeroed[0])",
     "if ((r0 == saved0 or not zeroed[0])",
     ["tests/test_enumerators.py::TestRegisterMachineCycleCut"], "survives"),
    # the cut ignores register 1's zero-test flag
    ("src/enumorder/enumerators.py",
     "or not zeroed[1])",
     "or True)",
     ["tests/test_enumerators.py::TestRegisterMachineCycleCut"], "killed"),
    # the cut accepts a register 1 that shrank since the checkpoint
    ("src/enumorder/enumerators.py",
     "saved1 <= r1 and ",
     "",
     ["tests/test_enumerators.py::TestRegisterMachineCycleCut::"
      "test_shrunk_register_is_not_cut"], "killed"),
    # an epoch keeps every code it ran as running, emitted ones too, so the
    # next epoch emits them again; the epoch's join checks nothing, so only
    # the schedule's own tests can see the repeat
    ("src/enumorder/enumerators.py",
     "self.running = still",
     "self.running = running",
     ["tests/test_enumerators.py::TestLazyDovetailMatchesEager::"
      "test_fixed_rounds_below_and_above_budget"], "killed"),
    # an epoch starts at the settled round, so it runs that round's last
    # code again, and emits it again if it halts
    ("src/enumorder/enumerators.py",
     "range(self.settled + 1, end + 1)",
     "range(self.settled, end + 1)",
     ["tests/test_enumerators.py::TestSharedSchedule::test_calls_below_the_settled_round"],
     "killed"),
]


def outcome(tree: Path, node_ids) -> str:
    """"killed" when a test fails or the run times out, "survives" when all
    pass, "error" when pytest cannot run them (a collection or usage error)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return "killed"
    return {0: "survives", 1: "killed"}.get(code, "error")


def run(path, snippet, replacement, node_ids) -> str:
    """The outcome of node_ids on a fresh copy, with the snippet in path
    replaced when a path is given."""
    tree = Path(tempfile.mkdtemp(prefix="mutant-"))
    try:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if path:
            text = (tree / path).read_text()
            if text.count(snippet) != 1:
                return f"error: snippet occurs {text.count(snippet)} times"
            (tree / path).write_text(text.replace(snippet, replacement))
        return outcome(tree, node_ids)
    finally:
        shutil.rmtree(tree)


def main() -> int:
    unexpected = 0
    everything = sorted({node for row in MUTANTS for node in row[3]})
    for path, snippet, replacement, node_ids, expected in [
            (None, None, None, everything, "survives"), *MUTANTS]:
        got = run(path, snippet, replacement, node_ids)
        unexpected += got != expected
        print(json.dumps({"file": path, "replacement": replacement,
                          "expected": expected, "outcome": got}), flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
