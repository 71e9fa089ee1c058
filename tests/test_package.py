"""The package loads lazily: ``import enumorder`` runs no submodule, each
public name is imported on first access, and a cold CLI call loads only the
modules its command runs.  Every refusal is an EnumOrderError."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import enumorder

# the public names
PUBLIC = [
    "Chain", "Dovetail", "Enumerator", "InversePositionReport", "Membership",
    "MembershipReport", "PairedListings", "Pattern", "PrefixListing", "PropertyReport",
    "ReducibilityVerdict", "SetSample", "ascending_listing", "chain_stabilize",
    "check_inverse_positions", "decide_membership", "descent_chain", "equiv_eo",
    "family_below", "inverse_lookup", "inversions", "leq_eo", "make_paired", "make_prefix",
    "make_strict_chain", "parse_spec", "predecessor", "run_property", "standardize",
    "take_prefix", "transport",
]

# runs in a fresh interpreter with the CLI arguments after it: the modules
# `import enumorder` adds, then those the CLI call adds, each against the bare
# interpreter's set
PROBE = """
import sys
bare = set(sys.modules)
import json, runpy
import enumorder
package = sorted(set(sys.modules) - bare)
sys.argv = ["enumorder", *sys.argv[1:]]
try:
    runpy.run_module("enumorder.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"package": package, "cli": sorted(set(sys.modules) - bare), "code": code}))
"""


def _cold_call(*argv):
    """The CLI's stdout for `argv` in a fresh interpreter, and the probe."""
    src = str(Path(enumorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    out, probe = proc.stdout.rsplit("\n", 2)[:2]
    return out, json.loads(probe)


NOT_FOR_PATTERN = {
    "dataclasses",
    "enumorder.algebra",
    "enumorder.enumerators",
    "enumorder.extraction",
    "enumorder.oracle",
}


def test_cold_pattern_call_loads_only_what_it_runs():
    out, probe = _cold_call("pattern", "inline", "6 2 4")
    assert out == '{"values": [6, 2, 4], "pattern": [3, 1, 2]}' and probe["code"] == 0
    assert [m for m in probe["package"] if m.startswith("enumorder")] == ["enumorder"]
    assert "dataclasses" not in probe["package"]
    assert {"enumorder.errors", "enumorder.prefixes"} <= set(probe["cli"])
    assert NOT_FOR_PATTERN.isdisjoint(probe["cli"])


def test_cold_verify_call_loads_only_the_oracle():
    # the reflexive checker runs on prefixes alone: no algebra or extraction
    out, probe = _cold_call("verify", "--property", "reflexive", "--n", "3")
    assert out == (
        '{"property": "reflexive", "n": 3, "instances": 6, "violations": [], "pass": true}'
    )
    assert probe["code"] == 0
    assert [m for m in probe["cli"] if m.startswith("enumorder.")] == [
        "enumorder.errors", "enumorder.oracle", "enumorder.prefixes"
    ]


def test_cold_lemma8_call_loads_extraction_without_algebra():
    # the inverse position report reads the positions index in prefixes
    out, probe = _cold_call("lemma8", "inline", "2 4 6", "inline", "2 3 4")
    assert json.loads(out)["all_hold"] is True and probe["code"] == 0
    assert "enumorder.extraction" in probe["cli"]
    assert "enumorder.algebra" not in probe["cli"]


def test_public_names():
    assert enumorder.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(enumorder))


@pytest.mark.parametrize("name", PUBLIC)
def test_name_resolves_to_its_submodule_object(name):
    module = importlib.import_module(f"enumorder.{enumorder._SOURCES[name]}")
    assert getattr(enumorder, name) is getattr(module, name)


def test_star_import():
    namespace = {}
    exec("from enumorder import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert namespace["PrefixListing"] is importlib.import_module("enumorder.prefixes").PrefixListing


def test_submodules_import_as_attributes():
    from enumorder import algebra, cli, errors, oracle

    assert cli.main is importlib.import_module("enumorder.cli").main
    assert {algebra.__name__, errors.__name__, oracle.__name__} == {
        "enumorder.algebra", "enumorder.errors", "enumorder.oracle"
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'enumorder' has no attribute 'nope'"):
        enumorder.nope
    assert not hasattr(enumorder, "nope")
    with pytest.raises(ImportError):
        from enumorder import nope  # noqa: F401


# refusals from four modules that the CLI's one `except EnumOrderError` handler
# must see, each with its own message
@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: enumorder.Pattern((1, 3)), "ranks (1, 3) are not a permutation of 1..2"),
        (lambda: enumorder.take_prefix(enumorder.parse_spec("even"), -1, 5),
         "n and budget must be >= 0"),
        (lambda: enumorder.make_strict_chain(0), "n must be >= 1"),
        (lambda: enumorder.decide_membership(enumorder.make_paired(
            enumorder.SetSample(frozenset({2}), 2), 1, enumorder.Pattern((1,))), 0),
         "x must be >= 1"),
    ],
    ids=["Pattern", "take_prefix", "make_strict_chain", "decide_membership"],
)
def test_every_refusal_is_an_enum_order_error(refuse, message):
    from enumorder.errors import EnumOrderError

    with pytest.raises(EnumOrderError, match=f"^{re.escape(message)}$"):
        refuse()
