import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumorder
from enumorder import algebra, cli, extraction, oracle
from enumorder.cli import COMMANDS, MAX_LINE_CHARS, PROPERTY_IDS, build_parser, main
from enumorder.errors import EnumOrderError
from enumorder.prefixes import ReducibilityVerdict, leq_eo


def child_env():
    """The environment for a child `python -m enumorder.cli` that imports
    this package."""
    src = str(Path(enumorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    lines = [json.loads(line) for line in out.splitlines() if line]
    return code, lines


class TestCompare:
    def test_enumerator_specs(self, capsys):
        code, lines = run_json(capsys, "compare", "even", "nminus:1", "--prefix-len", "100")
        assert code == 0
        assert lines == [{"f_le_g": True, "g_le_f": True, "equiv": True, "fail_at": None}]

    def test_inline_failure_witness(self, capsys):
        code, lines = run_json(capsys, "compare", "inline", "1 3 2", "inline", "1 2 3")
        assert code == 0
        obj = lines[0]
        assert obj["f_le_g"] is False and obj["fail_at"] == [2, 3]

    def test_reflexive(self, capsys):
        code, lines = run_json(capsys, "compare", "inline", "2 4", "inline", "2 4")
        assert code == 0 and lines[0]["equiv"] is True

    def test_json_array_input(self, capsys):
        code, lines = run_json(capsys, "compare", "inline", "[2,4]", "inline", "[5,9]")
        assert code == 0 and lines[0]["equiv"] is True

    def test_length_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "inline", "1 2", "inline", "1 2 3")
        assert code == 2 and "error" in err

    def test_duplicate_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "inline", "3 3", "inline", "1 2")
        assert code == 2 and "3" in err

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 4 6\n")
        code, lines = run_json(capsys, "compare", f"file:{path}", "inline", "2 3 4")
        assert code == 0 and lines[0]["equiv"] is True


def _refuse_clauses(f, g):
    raise EnumOrderError("planted")


def _leq_eo_missing_top(f, g):
    # ascending <= reversal fails: violations in three properties, no error
    n = len(f)
    if n > 1 and f.values == tuple(range(1, n + 1)) and g.values == tuple(range(n, 0, -1)):
        return ReducibilityVerdict(fail_at=(1, 2))
    return leq_eo(f, g)


class TestVerify:
    # lemma-2-8 is the sixth property: a raise there ends the reports after five
    @pytest.mark.parametrize("module, target, fault, code, lines, err", [
        (extraction, "check_inverse_positions", _refuse_clauses, 2, 5, "error: planted\n"),
        (oracle, "leq_eo", _leq_eo_missing_top, 1, 9, ""),
    ])
    def test_all_on_two_cpus_prints_as_on_one(
        self, capsys, cpus, monkeypatch, module, target, fault, code, lines, err
    ):
        monkeypatch.setattr(module, target, fault)
        argv = ("verify", "--property", "all", "--n", "5")
        cpus(1)
        serial = run(capsys, *argv)
        assert (serial[0], serial[1].count("\n"), serial[2]) == (code, lines, err)
        cpus(2)
        assert run(capsys, *argv) == serial

    def test_single_property(self, capsys):
        code, lines = run_json(capsys, "verify", "--property", "lemma-2-8", "--n", "4")
        assert code == 0
        assert lines[0]["pass"] is True and lines[0]["property"] == "lemma-2-8"

    def test_all_runs_whole_registry(self, capsys):
        code, lines = run_json(capsys, "verify", "--property", "all", "--n", "4")
        assert code == 0
        assert len(lines) == 9
        assert all(obj["pass"] for obj in lines)

    def test_unknown_property_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--property", "bogus", "--n", "3")
        assert code == 2 and "bogus" in err

    def test_too_large_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--property", "transitive", "--n", "6")
        assert code == 2


class TestDecide:
    @pytest.fixture
    def paired_file(self, tmp_path):
        path = tmp_path / "paired.txt"
        path.write_text("1 4 2 6\n2 6 4 8\nm=1\n")
        return str(path)

    def test_out(self, capsys, paired_file):
        code, lines = run_json(capsys, "decide", "--paired", paired_file, "--x", "5")
        assert code == 0
        assert lines[0] == {"x": 5, "result": "out", "descent": [4, 2]}

    def test_in(self, capsys, paired_file):
        code, lines = run_json(capsys, "decide", "--paired", paired_file, "--x", "4")
        assert code == 0 and lines[0]["result"] == "in"

    def test_insufficient_exits_3(self, capsys, paired_file):
        code, lines = run_json(capsys, "decide", "--paired", paired_file, "--x", "100")
        assert code == 3 and lines[0]["result"] == "insufficient"

    def test_invalid_pairing_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 4 6\n2 6 4 8\nm=1\n")
        code, _, err = run(capsys, "decide", "--paired", str(path), "--x", "4")
        assert code == 2 and "extra element" in err


class TestThinWrappers:
    def test_pattern(self, capsys):
        code, lines = run_json(capsys, "pattern", "inline", "6 2 4")
        assert code == 0 and lines[0]["pattern"] == [3, 1, 2]

    def test_inversions(self, capsys):
        code, lines = run_json(capsys, "inversions", "inline", "3 1 2")
        assert code == 0 and lines[0]["inversions"] == [[1, 2], [1, 3]]

    def test_transport(self, capsys):
        code, lines = run_json(
            capsys, "transport", "inline", "6 2 4", "inline", "2 4 6", "inline", "2 3 4"
        )
        assert code == 0 and lines[0]["result"] == [4, 2, 3]

    def test_stabilize(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("2 1 3\n1 2 3\n1 2 3\n")
        code, lines = run_json(capsys, "stabilize", "--chain", str(path))
        assert code == 0 and lines[0]["repeat"] == [2, 3]

    def test_stabilize_invalid_chain(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("1 2 3\n2 1 3\n")
        code, _, err = run(capsys, "stabilize", "--chain", str(path))
        assert code == 2 and "chain" in err

    def test_lemma8(self, capsys):
        code, lines = run_json(capsys, "lemma8", "inline", "2 4 6", "inline", "2 3 4")
        assert code == 0 and lines[0]["all_hold"] is True

    def test_pred(self, capsys, tmp_path):
        path = tmp_path / "paired.txt"
        path.write_text("1 4 2 6\n2 6 4 8\nm=1\n")
        code, lines = run_json(capsys, "pred", "--paired", str(path), "--a", "6")
        assert code == 0 and lines[0]["predecessor"] == 4

    def test_family(self, capsys):
        code, lines = run_json(
            capsys, "family", "--elements", "2 4 6 8", "--bound", "9", "--n", "2"
        )
        assert code == 0
        assert lines[0]["family"] == [[4, 6, 8], [1, 4, 6, 8], [1, 2, 4, 6, 8]]

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "even", "--prefix-len", "4", "--format", "text")
        assert code == 0 and out.strip() == "2 4 6 8"

    def test_chain_make(self, capsys):
        code, lines = run_json(capsys, "chain-make", "--n", "3")
        assert code == 0
        assert lines[0]["chain"][0] == [3, 2, 1] and lines[0]["chain"][-1] == [1, 2, 3]

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "even", "--prefix-len", "4"),
            ("chain-make", "--n", "3"),
            ("pattern", "inline", "3 1 2"),
            ("transport", "inline", "2 1", "inline", "1 2", "inline", "5 7"),
            ("family", "--elements", "2 4", "--bound", "5", "--n", "1"),
        ],
    )
    def test_json_builds_no_text(self, capsys, monkeypatch, argv):
        def refuse(values):
            raise AssertionError("text built for --format json")

        monkeypatch.setattr(cli, "_words", refuse)
        code, lines = run_json(capsys, *argv)
        assert code == 0 and lines


class TestRoundTrip:
    def test_enumerate_feeds_compare(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "halt:collatz", "--prefix-len", "8", "--budget", "50",
            "--format", "text",
        )
        assert code == 0
        path = tmp_path / "prefix.txt"
        path.write_text(out)
        code, lines = run_json(capsys, "compare", f"file:{path}", "inline", out.strip())
        assert code == 0 and lines[0]["equiv"] is True

    def test_chain_make_feeds_stabilize(self, capsys, tmp_path):
        code, out, _ = run(capsys, "chain-make", "--n", "4", "--format", "text")
        path = tmp_path / "chain.txt"
        path.write_text(out)
        code, lines = run_json(capsys, "stabilize", "--chain", str(path))
        assert code == 0 and lines[0]["repeat"] is None


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", "even", "nminus:1", "--prefix-len", "64"),
            ("verify", "--property", "stabilization", "--n", "4"),
            ("enumerate", "halt:rm", "--prefix-len", "20", "--budget", "200"),
            ("pattern", "halt:collatz", "--prefix-len", "10", "--budget", "100"),
        ],
    )
    def test_byte_identical_repeats(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestParserReuse:
    VALID = ("pattern", "inline", "6 2 4")

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_do_not_leak(self, capsys):
        code, first, _ = run(capsys, *self.VALID)
        assert (code, first) == (0, '{"values": [6, 2, 4], "pattern": [3, 1, 2]}\n')
        code, out, err = run(capsys, "enumerate", "even", "--prefix-len", "-1")
        assert code == 2 and out == ""
        assert err.startswith("usage: enumorder enumerate") and "expected an integer >= 0" in err
        code, out, err = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: enumorder") and err == ""
        code, out, err = run(capsys, "bogus")
        assert code == 2 and out == "" and "invalid choice" in err and "bogus" in err
        code, again, _ = run(capsys, *self.VALID)
        assert (code, again) == (0, first)
        fresh = subprocess.run(
            [sys.executable, "-m", "enumorder.cli", *self.VALID],
            capture_output=True, text=True, env=child_env(), check=False,
        )
        assert (fresh.returncode, fresh.stdout) == (0, first)


class TestPropertyIds:
    """The parser spells out the oracle's ids, so that building it does not
    import the oracle; the help and error text stay as before."""

    IDS = ("{all,reflexive,transitive,non-antisymmetric,subset-characterization,"
           "lemma-2-3,lemma-2-8,transport,stabilization,class-count}")
    VERIFY_USAGE = (
        "usage: enumorder verify [-h] [--format {json,text}] --property\n"
        f"                        {IDS}\n"
        "                        --n N\n"
    )
    # stdout and stderr at 80 columns, as printed before the ids were spelled out
    GOLDEN = {
        ("--help",): (0, (
            "usage: enumorder [-h]\n"
            "                 {compare,verify,decide,pattern,inversions,transport,stabilize,"
            "lemma8,pred,family,enumerate,chain-make}\n"
            "                 ...\n"
            "\n"
            "Enumeration-order analysis of listing prefixes.\n"
            "\n"
            "positional arguments:\n"
            "  {compare,verify,decide,pattern,inversions,transport,stabilize,lemma8,pred,"
            "family,enumerate,chain-make}\n"
            "    compare             Reducibility both ways plus equivalence.\n"
            "    verify              Run brute-force property checks.\n"
            "    decide              Membership from a paired-listings file.\n"
            "    pattern             Standardized rank sequence of a prefix.\n"
            "    inversions          Inverted position pairs of a prefix.\n"
            "    transport           Carry h's order onto g_prime's values (sources: h\n"
            "                        h_prime g_prime).\n"
            "    stabilize           Find the least repeat in a chain file.\n"
            "    lemma8              Inverse-position clause report for f <=eo g.\n"
            "    pred                Predecessor of a value via a paired file.\n"
            "    family              Finite low-element modifications of a sample.\n"
            "    enumerate           Materialize an enumerator prefix.\n"
            "    chain-make          Maximal strictly descending chain.\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ), ""),
        ("verify", "--help"): (0, VERIFY_USAGE + (
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {json,text}\n"
            f"  --property {IDS}\n"
            "  --n N\n"
        ), ""),
        ("verify", "--property", "bogus", "--n", "3"): (2, "", VERIFY_USAGE + (
            "enumorder verify: error: argument --property: invalid choice: 'bogus' (choose from "
            "'all', 'reflexive', 'transitive', 'non-antisymmetric', 'subset-characterization', "
            "'lemma-2-3', 'lemma-2-8', 'transport', 'stabilization', 'class-count')\n"
        )),
    }

    def test_ids_are_the_registry(self):
        assert PROPERTY_IDS == tuple(oracle.REGISTRY)

    def test_ids_in_help(self, capsys):
        assert self.IDS in run(capsys, "verify", "--help")[1]

    # argparse's layout differs between Python versions; these bytes are 3.11's
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help text captured on 3.11")
    @pytest.mark.parametrize("argv", GOLDEN, ids=[" ".join(argv) for argv in GOLDEN])
    def test_help_and_error_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == self.GOLDEN[argv]


PAIR_FILE = "1 4 2 6\n2 6 4 8\nm=1\n"
CHAIN_FILE = "4 3 2 1\n4 3 1 2\n4 2 1 3\n4 1 2 3\n3 1 2 4\n2 1 3 4\n1 2 3 4\n"

# Every README CLI example, then each again in the other --format; stdout
# bytes and exit codes as first recorded.  pair.txt holds PAIR_FILE and
# chain.txt the chain-make output, as in the README.
README_GOLDEN = [
    (("compare", "even", "nminus:1", "--prefix-len", "1000"), 0,
     '{"f_le_g": true, "g_le_f": true, "equiv": true, "fail_at": null}\n'),
    (("compare", "inline", "1 3 2", "inline", "1 2 3"), 0,
     '{"f_le_g": false, "g_le_f": true, "equiv": false, "fail_at": [2, 3]}\n'),
    (("verify", "--property", "all", "--n", "4"), 0,
     '{"property": "reflexive", "n": 4, "instances": 24, "violations": [], '
     '"pass": true}\n'
     '{"property": "transitive", "n": 4, "instances": 13824, "violations": [], '
     '"pass": true}\n'
     '{"property": "non-antisymmetric", "n": 4, "instances": 1, "violations": [], '
     '"pass": true, "witness": {"f": [1, 2, 3, 4], "g": [5, 6, 7, 8]}}\n'
     '{"property": "subset-characterization", "n": 4, "instances": 576, '
     '"violations": [], "pass": true}\n'
     '{"property": "lemma-2-3", "n": 4, "instances": 24, "violations": [], '
     '"pass": true}\n'
     '{"property": "lemma-2-8", "n": 4, "instances": 576, "violations": [], '
     '"pass": true}\n'
     '{"property": "transport", "n": 4, "instances": 576, "violations": [], '
     '"pass": true}\n'
     '{"property": "stabilization", "n": 4, "instances": 200, "violations": [], '
     '"pass": true}\n'
     '{"property": "class-count", "n": 4, "instances": 24, "violations": [], '
     '"pass": true}\n'),
    (("verify", "--property", "lemma-2-3", "--n", "5"), 0,
     '{"property": "lemma-2-3", "n": 5, "instances": 120, "violations": [], '
     '"pass": true}\n'),
    (("enumerate", "halt:collatz", "--prefix-len", "5", "--budget", "12", "--format", "text"), 0,
     '1 2 4 3 5\n'),
    (("decide", "--paired", "pair.txt", "--x", "5"), 0,
     '{"x": 5, "result": "out", "descent": [4, 2]}\n'),
    (("pattern", "inline", "6 2 4"), 0, '{"values": [6, 2, 4], "pattern": [3, 1, 2]}\n'),
    (("inversions", "inline", "3 1 2"), 0,
     '{"values": [3, 1, 2], "inversions": [[1, 2], [1, 3]]}\n'),
    (("transport", "inline", "6 2 4", "inline", "2 4 6", "inline", "2 3 4"), 0,
     '{"result": [4, 2, 3]}\n'),
    (("chain-make", "--n", "4", "--format", "text"), 0,
     '4 3 2 1\n'
     '4 3 1 2\n'
     '4 2 1 3\n'
     '4 1 2 3\n'
     '3 1 2 4\n'
     '2 1 3 4\n'
     '1 2 3 4\n'),
    (("stabilize", "--chain", "chain.txt"), 0, '{"length": 7, "repeat": null}\n'),
    (("lemma8", "inline", "2 4 6", "inline", "2 3 4"), 0,
     '{"clause1": {"fpos": 1, "gpos": 1, "holds": true}, "clause2": [{"i": 2, '
     '"premise": true, "fpos": 2, "gpos": 2, "holds": true}, {"i": 3, "premise": true, '
     '"fpos": 3, "gpos": 3, "holds": true}], "all_hold": true}\n'),
    (("pred", "--paired", "pair.txt", "--a", "6"), 0, '{"a": 6, "predecessor": 4}\n'),
    (("family", "--elements", "2 4 6 8", "--bound", "9", "--n", "2"), 0,
     '{"bound": 9, "family": [[4, 6, 8], [1, 4, 6, 8], [1, 2, 4, 6, 8]]}\n'),
    (("pattern", "halt:collatz", "--prefix-len", "40", "--budget", "2000", "--format", "text"), 0,
     '1 2 4 3 5 8 6 10 16 12 13 7 11 20 9 21 17 14 15 24 26 22 30 18 23 19 27 28 32 25 29 33 '
     '37 38 34 35 31 36 40 39\n'),
    (("pattern", "halt:rm", "--prefix-len", "40", "--budget", "2000", "--format", "text"), 0,
     '1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 32 31 '
     '33 35 34 36 37 38 39 40\n'),
    (("compare", "even", "nminus:1", "--prefix-len", "1000", "--format", "text"), 0,
     'f <=eo g: True; g <=eo f: True; equivalent: True\n'),
    (("compare", "inline", "1 3 2", "inline", "1 2 3", "--format", "text"), 0,
     'f <=eo g: False; g <=eo f: True; equivalent: False; first violation at positions (2, '
     '3)\n'),
    (("verify", "--property", "all", "--n", "4", "--format", "text"), 0,
     'reflexive (n=4): pass over 24 instances\n'
     'transitive (n=4): pass over 13824 instances\n'
     'non-antisymmetric (n=4): pass over 1 instances\n'
     'subset-characterization (n=4): pass over 576 instances\n'
     'lemma-2-3 (n=4): pass over 24 instances\n'
     'lemma-2-8 (n=4): pass over 576 instances\n'
     'transport (n=4): pass over 576 instances\n'
     'stabilization (n=4): pass over 200 instances\n'
     'class-count (n=4): pass over 24 instances\n'),
    (("verify", "--property", "lemma-2-3", "--n", "5", "--format", "text"), 0,
     'lemma-2-3 (n=5): pass over 120 instances\n'),
    (("enumerate", "halt:collatz", "--prefix-len", "5", "--budget", "12"), 0,
     '{"spec": "halt:collatz", "values": [1, 2, 4, 3, 5]}\n'),
    (("decide", "--paired", "pair.txt", "--x", "5", "--format", "text"), 0,
     'x=5: out; descent [4, 2]\n'),
    (("pattern", "inline", "6 2 4", "--format", "text"), 0, '3 1 2\n'),
    (("inversions", "inline", "3 1 2", "--format", "text"), 0, '(1,2) (1,3)\n'),
    (("transport", "inline", "6 2 4", "inline", "2 4 6", "inline", "2 3 4", "--format", "text"), 0,
     '4 2 3\n'),
    (("chain-make", "--n", "4"), 0,
     '{"n": 4, "chain": [[4, 3, 2, 1], [4, 3, 1, 2], [4, 2, 1, 3], [4, 1, 2, 3], [3, 1, '
     '2, 4], [2, 1, 3, 4], [1, 2, 3, 4]]}\n'),
    (("stabilize", "--chain", "chain.txt", "--format", "text"), 0, 'no repeat in chain\n'),
    (("lemma8", "inline", "2 4 6", "inline", "2 3 4", "--format", "text"), 0,
     'all clauses hold: True\n'),
    (("pred", "--paired", "pair.txt", "--a", "6", "--format", "text"), 0, '4\n'),
    (("family", "--elements", "2 4 6 8", "--bound", "9", "--n", "2", "--format", "text"), 0,
     '4 6 8\n'
     '1 4 6 8\n'
     '1 2 4 6 8\n'),
    (("pattern", "halt:collatz", "--prefix-len", "40", "--budget", "2000"), 0,
     '{"values": [1, 2, 4, 3, 5, 8, 6, 10, 16, 12, 13, 7, 11, 20, 9, 21, 17, 14, 15, 24, 26, '
     '22, 32, 18, 23, 19, 28, 29, 34, 25, 30, 35, 40, 42, 36, 37, 33, 38, 48, 44], "pattern": '
     '[1, 2, 4, 3, 5, 8, 6, 10, 16, 12, 13, 7, 11, 20, 9, 21, 17, 14, 15, 24, 26, 22, 30, 18, '
     '23, 19, 27, 28, 32, 25, 29, 33, 37, 38, 34, 35, 31, 36, 40, 39]}\n'),
    (("pattern", "halt:rm", "--prefix-len", "40", "--budget", "2000"), 0,
     '{"values": [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 18, 20, 21, 23, 24, 25, 26, 27, '
     '28, 29, 30, 32, 33, 34, 36, 37, 39, 40, 42, 41, 43, 45, 44, 46, 48, 49, 50, 52], '
     '"pattern": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, '
     '22, 23, 24, 25, 26, 27, 28, 29, 30, 32, 31, 33, 35, 34, 36, 37, 38, 39, 40]}\n'),
]


@pytest.mark.parametrize(
    "argv, code, out", README_GOLDEN, ids=[" ".join(argv) for argv, _, _ in README_GOLDEN]
)
def test_readme_examples_golden(capsys, tmp_path, monkeypatch, argv, code, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair.txt").write_text(PAIR_FILE)
    (tmp_path / "chain.txt").write_text(CHAIN_FILE)
    assert run(capsys, *argv)[:2] == (code, out)


# every spec kind at four (--prefix-len, --budget) pairs, as first recorded
ENUMERATE_GOLDEN = json.loads(Path(__file__).with_name("enumerate_golden.json").read_text())


@pytest.mark.parametrize(
    "row", ENUMERATE_GOLDEN, ids=[" ".join(row["argv"][1:]) for row in ENUMERATE_GOLDEN]
)
def test_enumerate_golden(capsys, row):
    assert run(capsys, *row["argv"])[:2] == (row["code"], row["stdout"])


# every property at its cap, as first recorded
VERIFY_ALL_AT_CAPS = (
    '{"property": "reflexive", "n": 6, "instances": 720, "violations": [], "pass": true}\n'
    '{"property": "transitive", "n": 4, "instances": 13824, "violations": [], "pass": true}\n'
    '{"property": "non-antisymmetric", "n": 8, "instances": 1, "violations": [], "pass": true, '
    '"witness": {"f": [1, 2, 3, 4, 5, 6, 7, 8], "g": [9, 10, 11, 12, 13, 14, 15, 16]}}\n'
    '{"property": "subset-characterization", "n": 5, "instances": 14400, "violations": [], '
    '"pass": true}\n'
    '{"property": "lemma-2-3", "n": 6, "instances": 720, "violations": [], "pass": true}\n'
    '{"property": "lemma-2-8", "n": 5, "instances": 14400, "violations": [], "pass": true}\n'
    '{"property": "transport", "n": 4, "instances": 576, "violations": [], "pass": true}\n'
    '{"property": "stabilization", "n": 5, "instances": 200, "violations": [], "pass": true}\n'
    '{"property": "class-count", "n": 5, "instances": 120, "violations": [], "pass": true}\n'
)


def test_verify_all_at_caps_golden(capsys):
    assert run(capsys, "verify", "--property", "all", "--n", "8")[:2] == (0, VERIFY_ALL_AT_CAPS)


DECIDE = ("decide", "--paired", "in.txt", "--x", "2")


@pytest.mark.parametrize(
    "argv",
    [
        ("pattern", "inline", "1", "inline", "2"),
        ("inversions", "inline", "1", "inline", "2"),
        ("lemma8", "inline", "1"),
        ("enumerate", "even", "--prefix-len", "-1"),
        ("enumerate", "even", "--budget", "-5"),
        ("chain-make", "--n", "0"),
        ("decide", "--paired", "pair.txt", "--x", "0"),
        ("family", "--elements", "2 4 6 8", "--bound", "9", "--n", "-3"),
        ("family", "--elements", "2 40", "--bound", "9", "--n", "2"),
        ("verify", "--property", "reflexive", "--n", "3", "--prefix-len", "5"),
        ("enumerate", "nminus:\u00b2"),
        ("compare", "inline", "[true,2]", "inline", "[1,2]"),
        ("compare", "file:undecodable.txt", "inline", "1"),
        ("chain-make", "--n", "257"),
        ("enumerate", "halt:rm", "--prefix-len", "200001", "--budget", "200001"),
        ("inversions", "even", "--prefix-len", "1025"),
        ("family", "--elements", "2", "--bound", "2000", "--n", "2000"),
        ("enumerate", "nminus:" + "9" * 5000),
        ("enumerate", "asc:1," + "9" * 5000),
        ("compare", "nminus:" + "9" * 5000, "even"),
        ("pattern", "inline", "[1,]"),
        ("compare", "inline"),
    ],
)
def test_bad_input_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair.txt").write_text(PAIR_FILE)
    (tmp_path / "undecodable.txt").write_bytes(b"\xff\xfe 1\n")
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (DECIDE, "1 4 2 6\n2 6 4 8\n", "paired file needs two prefix lines then 'm=<nat>'"),
        (DECIDE, "1 4\n2 4\nm=x\n", "bad m line: 'm=x'"),
        (DECIDE, "1 2\n2 3 4\nm=1\n", "lengths differ: 2 != 3"),
        (DECIDE, "[]\n[]\nm=1\n", "empty pairing"),
        (DECIDE, "5 3\n3 4\nm=5\n", "extra element 5 is not below min of g's values"),
        (("stabilize", "--chain", "in.txt"), "2 1\n1 2 3\n", "prefix lengths differ: 2 != 3"),
        # an error in one line names it by its place in the file, blank lines included
        (("pattern", "file:in.txt"), "\n\n3 1 3\n", "line 3: duplicate value in prefix: 3"),
        (("stabilize", "--chain", "in.txt"), "3 1 2\n\n1_0 2\n",
         "line 3: token 1 is not a natural: '1_0'"),
        (DECIDE, "1 4 2 6\n2 6 4 x\nm=1\n", "line 2: token 4 is not a natural: 'x'"),
        # a paired file is read no further than its fourth non-blank line
        (DECIDE, "1 4 2 6\n2 6 4 8\nm=1\n1\n1_0\n",
         "paired file needs two prefix lines then 'm=<nat>'"),
    ],
)
def test_file_input_refusals(capsys, tmp_path, monkeypatch, argv, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.txt").write_text(text)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# every place the CLI reads a natural from text: its argv and files, with
# "{}" where the natural goes, and a natural that makes the command exit 0
NATURAL_INPUTS = {
    "inline": (("pattern", "inline", "3 {}"), {}, "7"),
    "file": (("pattern", "file:in.txt"), {"in.txt": "3 {}\n"}, "7"),
    "chain": (("stabilize", "--chain", "in.txt"), {"in.txt": "{} 1\n1 {}\n"}, "7"),
    "paired": (DECIDE, {"in.txt": "1 4 2 6\n2 6 4 {}\nm=1\n"}, "8"),
    "m": (DECIDE, {"in.txt": "1 4 2 6\n2 6 4 8\nm={}\n"}, "1"),
    "elements": (("family", "--elements", "2 {}", "--bound", "9", "--n", "2"), {}, "4"),
    "n": (("verify", "--property", "reflexive", "--n", "{}"), {}, "3"),
    "x": (("decide", "--paired", "pair.txt", "--x", "{}"), {"pair.txt": PAIR_FILE}, "5"),
    "a": (("pred", "--paired", "pair.txt", "--a", "{}"), {"pair.txt": PAIR_FILE}, "6"),
    "bound": (("family", "--elements", "2", "--bound", "{}", "--n", "2"), {}, "9"),
    "prefix-len": (("enumerate", "even", "--prefix-len", "{}"), {}, "5"),
    "budget": (("enumerate", "even", "--budget", "{}"), {}, "5"),
    "chain-make": (("chain-make", "--n", "{}"), {}, "4"),
    "nminus": (("enumerate", "nminus:{}"), {}, "3"),
    "asc": (("enumerate", "asc:1,{}"), {}, "3"),
}


def run_with_natural(capsys, tmp_path, monkeypatch, site, natural):
    argv, files, _ = NATURAL_INPUTS[site]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text.replace("{}", natural), encoding="utf-8")
    return run(capsys, *(arg.replace("{}", natural) for arg in argv))


@pytest.mark.parametrize("site", NATURAL_INPUTS)
@pytest.mark.parametrize(
    "token", ["1_0", "+2", "\u0663", "9" * 5000], ids=["underscore", "sign", "arabic", "long"]
)
def test_every_natural_is_ascii_digits(capsys, tmp_path, monkeypatch, site, token):
    code, out, err = run_with_natural(capsys, tmp_path, monkeypatch, site, token)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert (code, out) == (2, "") and err.endswith("\n")
    assert len(errors) == 1 and err.endswith(errors[0] + "\n") and len(errors[0]) < 200, err
    # refused as a number, not later as a value that parsed
    assert any(why in errors[0] for why in ("not a natural", "bad m line", "expected")), err


@pytest.mark.parametrize("site", NATURAL_INPUTS)
def test_every_natural_takes_leading_zeros(capsys, tmp_path, monkeypatch, site):
    good = NATURAL_INPUTS[site][2]
    code, out, _ = run_with_natural(capsys, tmp_path, monkeypatch, site, good)
    assert code == 0 and out
    code, padded, err = run_with_natural(capsys, tmp_path, monkeypatch, site, "00" + good)
    # only enumerate's echo of its spec may differ
    assert (code, padded.replace("00" + good, good), err) == (0, out, "")


@pytest.mark.parametrize("site", ["n", "x", "a", "bound", "prefix-len", "budget", "chain-make"])
def test_option_with_a_newline_is_one_error_line(capsys, tmp_path, monkeypatch, site):
    good = NATURAL_INPUTS[site][2]
    code, out, err = run_with_natural(capsys, tmp_path, monkeypatch, site, good + "\n")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"got '{good}\\n'"), err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "halt:rm", "--prefix-len", "200001", "--budget", "200001"),
         "min(n, budget) 200001 exceeds the limit 200000"),
        (("inversions", "even", "--prefix-len", "1025"),
         "prefix length 1025 exceeds the limit 1024"),
        (("verify", "--property", "reflexive", "--n", "7"),
         "permutation size 7 exceeds the limit 6"),
        (("chain-make", "--n", "257"), "listing length 257 exceeds the limit 256"),
        (("family", "--elements", "2", "--bound", "2000", "--n", "2000"),
         "family n 2000 exceeds the limit 1024"),
        (("family", "--elements", " ".join(map(str, range(1025, 2050))), "--bound", "2049",
          "--n", "1024"), "answer size 2100225 exceeds the limit 2099200"),
    ],
    ids=["budget", "inversions", "verify", "chain-make", "family-n", "family-size"],
)
def test_too_large_names_its_quantity(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def run_limited(cwd, *argv):
    """The CLI in a child process held to 1 GiB of address space and 20 s of
    CPU, and killed after 60 s, so that an input it fails to refuse fails the
    test instead of taking the host."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        resource.setrlimit(resource.RLIMIT_CPU, (20, 20))

    return subprocess.run(
        [sys.executable, "-m", "enumorder.cli", *argv], cwd=cwd, capture_output=True,
        text=True, env=child_env(), preexec_fn=limit, timeout=60,
    )


@pytest.mark.parametrize("value", ["[true]", "[1.0]", '[1, "2"]'])
def test_json_values_other_than_ints_exit_2(capsys, value):
    # JSON true is a bool, a subclass of int, and still refused
    assert run(capsys, "pattern", "inline", value) == (
        2, "", "error: JSON input must be a flat array of integers\n")


def test_empty_json_array_is_accepted(capsys):
    assert run(capsys, "pattern", "inline", "[]") == (0, '{"values": [], "pattern": []}\n', "")


# JSON nesting deeper than json.loads can recurse
DEEP_ARRAY = "[" * 1000
DEEP_OBJECT = "[" + '{"a": ' * 1000 + "1" + "}" * 1000 + "]"


class TestInputLimits:
    """Inputs that once gave a traceback, unbounded memory or a hang: each
    exits 2 with one error line."""

    @staticmethod
    def assert_refused(code, out, err):
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("value", [DEEP_ARRAY, DEEP_OBJECT, "[[1]]", '[1, {"a": 2}]'])
    def test_nested_json_inline(self, capsys, value):
        code, out, err = run(capsys, "pattern", "inline", value)
        self.assert_refused(code, out, err)
        assert "JSON input must be a flat array of integers" in err

    def test_deep_json_in_a_file(self, capsys, tmp_path):
        (tmp_path / "deep.txt").write_text("[" * 20000 + "\n")
        self.assert_refused(*run(capsys, "pattern", f"file:{tmp_path / 'deep.txt'}"))

    def test_fifo(self, tmp_path):
        # os.stat does not block on a FIFO, as open() would
        os.mkfifo(tmp_path / "p")
        done = run_limited(tmp_path, "pattern", "file:p")
        self.assert_refused(done.returncode, done.stdout, done.stderr)
        assert "not a regular file" in done.stderr

    def test_device(self, tmp_path):
        done = run_limited(tmp_path, "pattern", "file:/dev/zero")
        self.assert_refused(done.returncode, done.stdout, done.stderr)

    def test_endless_line(self, tmp_path):
        # one valid line of 9.6 MiB, which a reader without the bound would accept
        line = " ".join(map(str, range(1, 1_400_000)))
        assert len(line) > 9 * 2**20
        (tmp_path / "long.txt").write_text(line + "\n")
        done = run_limited(tmp_path, "pattern", "file:long.txt")
        self.assert_refused(done.returncode, done.stdout, done.stderr)
        refusal = (f"error: line 1: line length {MAX_LINE_CHARS + 1} "
                   f"exceeds the limit {MAX_LINE_CHARS}")
        assert refusal in done.stderr

    def test_family_with_a_long_tail(self, capsys, tmp_path):
        # |A| = 20,000 in one argument: n = 1024 is refused before any member
        # is built, and n = 2 gives three members
        elements = " ".join(map(str, range(1, 20_001)))
        argv = ("family", "--elements", elements, "--bound", "20000", "--n")
        done = run_limited(tmp_path, *argv, "1024")
        self.assert_refused(done.returncode, done.stdout, done.stderr)
        code, lines = run_json(capsys, *argv, "2")
        assert code == 0 and [len(s) for s in lines[0]["family"]] == [19_998, 19_999, 20_000]

    def test_bad_token_at_the_end_of_a_long_line(self, capsys, tmp_path):
        # the error names the token, not the 1.3 MB line around it
        (tmp_path / "bad.txt").write_text(" ".join(map(str, range(1, 200_000))) + " x\n")
        code, out, err = run(capsys, "pattern", f"file:{tmp_path / 'bad.txt'}")
        self.assert_refused(code, out, err)
        assert err == "error: line 1: token 200000 is not a natural: 'x'\n"

    def test_lemma8_past_the_cap(self, tmp_path):
        n = str(extraction.MAX_INVERSE_POSITIONS + 1)
        done = run_limited(tmp_path, "lemma8", "even", "even", "--prefix-len", n, "--budget", n)
        self.assert_refused(done.returncode, done.stdout, done.stderr)
        assert f"prefix length {n} exceeds the limit 65536" in done.stderr

    @pytest.mark.slow
    def test_lemma8_at_the_cap(self, capsys):
        n = str(extraction.MAX_INVERSE_POSITIONS)
        code, lines = run_json(capsys, "lemma8", "even", "even", "--prefix-len", n, "--budget", n)
        assert code == 0 and lines[0]["all_hold"] and len(lines[0]["clause2"]) == int(n) - 1

    def test_chain_past_the_listing_cap(self, capsys, tmp_path):
        # chain-make writes at most 256·255/2 + 1 = 32,641 listings
        (tmp_path / "ones.txt").write_text("1\n" * 32_642)
        code, out, err = run(capsys, "stabilize", "--chain", str(tmp_path / "ones.txt"))
        self.assert_refused(code, out, err)
        assert err == "error: chain listings 32642 exceeds the limit 32641\n"

    def test_chain_past_the_listing_length_cap(self, capsys, tmp_path, monkeypatch):
        # a listing longer than chain-make's largest n is refused as soon as it is read
        monkeypatch.setattr(algebra, "MAX_CHAIN_N", 4)
        path = tmp_path / "wide.txt"
        path.write_text("1 2 3 4\n")
        code, lines = run_json(capsys, "stabilize", "--chain", str(path))
        assert code == 0 and lines == [{"length": 1, "repeat": None}]
        path.write_text("1 2 3 4 5\n")
        code, out, err = run(capsys, "stabilize", "--chain", str(path))
        self.assert_refused(code, out, err)
        assert err == "error: chain listing length 5 exceeds the limit 4\n"

    @pytest.mark.slow
    def test_longest_chain_accepted(self, tmp_path):
        # the text output of chain-make at its cap is the largest chain file
        done = run_limited(tmp_path, "chain-make", "--n", "256", "--format", "text")
        (tmp_path / "chain.txt").write_text(done.stdout)
        done = run_limited(tmp_path, "stabilize", "--chain", "chain.txt")
        assert (done.returncode, done.stdout) == (0, '{"length": 32641, "repeat": null}\n')

    def test_longest_line_accepted(self, capsys, tmp_path):
        # a line of MAX_LINE_CHARS characters with its newline is read whole
        line = "1" + " " * (MAX_LINE_CHARS - 3) + "2"
        (tmp_path / "wide.txt").write_text(line + "\n")
        code, out, _ = run(capsys, "pattern", f"file:{tmp_path / 'wide.txt'}")
        assert (code, out) == (0, '{"values": [1, 2], "pattern": [1, 2]}\n')


FUZZ_FILES = {"pair.txt": PAIR_FILE, "chain.txt": CHAIN_FILE, "p.txt": "2 4 6\n"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (path / name).write_text(text)
    return path


@st.composite
def argvs(draw, files):
    """A command from the table, mostly well-formed, with bad values mixed in."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    # small numbers keep every run quick: verify and chain-make grow steeply in n
    numbers = st.one_of(
        st.integers(-3, {"verify": 5, "chain-make": 40}.get(name, 200)),
        st.sampled_from(["+3", "1_0", "\u0663"]),
    )
    files = st.sampled_from([*files, "missing.txt"])
    value_lists = st.lists(st.integers(1, 12), unique=True, max_size=6)
    values = st.one_of(
        value_lists.map(lambda v: " ".join(map(str, v))),
        value_lists.map(json.dumps),
        st.sampled_from(["[true, 2]", "[1,", "x 1", "[[1]]", "0 1", "2 2", DEEP_ARRAY,
                         DEEP_OBJECT, "1_0 2", "+2 3", "\u0663 1"]),
    )
    token = st.one_of(
        st.sampled_from(["even", "nminus:2", "asc:3,1,2", "halt:collatz", "halt:rm"]).map(
            lambda t: [t]
        ),
        # past int()'s default limit of 4,300 digits
        st.sampled_from(["nminus:0", "nminus:\u00b2", "asc:1,1", "bogus", "inline",
                         "nminus:" + "9" * 4301, "asc:1," + "9" * 4301]).map(lambda t: [t]),
        files.map(lambda f: ["file:" + f]),
        values.map(lambda v: ["inline", v]),
    )
    option_values = {
        "--format": st.sampled_from(["json", "text"]),
        "--property": st.sampled_from(["all", "bogus", *oracle.REGISTRY]),
        "--paired": files,
        "--chain": files,
        "--elements": values,
    }
    flags = [flag for flag, _ in command.arguments if flag.startswith("--")]
    wanted = command.sources + len(command.arguments) - len(flags)
    argv = [name]
    for group in draw(st.lists(token, min_size=wanted, max_size=wanted + 1)):
        argv += group
    if draw(st.integers(0, 9)) == 9:
        flags.append(draw(st.sampled_from(["--format", "--prefix-len", "--n"])))
    for flag in flags:
        if draw(st.integers(0, 9)) < 9:
            argv += [flag, str(draw(option_values.get(flag, numbers)))]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_exit_codes(fuzz_dir, data):
    argv = data.draw(argvs([str(fuzz_dir / name) for name in FUZZ_FILES]), label="argv")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {0, 1, 2, 3}
    assert code != 1 or argv[0] in {"verify", "lemma8"}
