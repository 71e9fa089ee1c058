"""Enumeration-order analysis of listing prefixes.

Compares finite listing prefixes by their order inversions, manipulates
listings constructively (transport, descending chains), extracts membership
deciders from rank-aligned listing pairs, and brute-force-verifies the
underlying order-theoretic claims exhaustively at small sizes.

Each public name is imported from its submodule on first access (PEP 562),
so ``import enumorder`` loads no submodule and a command line tool pays only
for the modules it uses.
"""

import importlib

# public name -> the submodule that defines it
_SOURCES = {
    "Chain": "algebra",
    "chain_stabilize": "algebra",
    "make_strict_chain": "algebra",
    "transport": "algebra",
    "Dovetail": "enumerators",
    "Enumerator": "enumerators",
    "parse_spec": "enumerators",
    "take_prefix": "enumerators",
    "InversePositionReport": "extraction",
    "Membership": "extraction",
    "MembershipReport": "extraction",
    "PairedListings": "extraction",
    "check_inverse_positions": "extraction",
    "decide_membership": "extraction",
    "descent_chain": "extraction",
    "family_below": "extraction",
    "make_paired": "extraction",
    "predecessor": "extraction",
    "PropertyReport": "oracle",
    "run_property": "oracle",
    "Pattern": "prefixes",
    "PrefixListing": "prefixes",
    "ReducibilityVerdict": "prefixes",
    "SetSample": "prefixes",
    "ascending_listing": "prefixes",
    "equiv_eo": "prefixes",
    "inverse_lookup": "prefixes",
    "inversions": "prefixes",
    "leq_eo": "prefixes",
    "make_prefix": "prefixes",
    "standardize": "prefixes",
}

__all__ = sorted(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES})
