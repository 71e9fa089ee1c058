"""Enumeration-order analysis of listing prefixes.

Compares finite listing prefixes by their order inversions, manipulates
listings constructively (transport, descending chains), extracts membership
deciders from rank-aligned listing pairs, and brute-force-verifies the
underlying order-theoretic claims exhaustively at small sizes.
"""

from .algebra import (
    Chain,
    chain_stabilize,
    inverse_lookup,
    make_strict_chain,
    transport,
)
from .enumerators import (
    Enumerator,
    HaltingModel,
    builtin_models,
    dovetail_halting,
    parse_spec,
    take_prefix,
)
from .extraction import (
    InversePositionReport,
    Membership,
    MembershipReport,
    PairedListings,
    ascending_view,
    check_inverse_positions,
    decide_membership,
    descent_chain,
    family_below,
    make_paired,
    predecessor,
)
from .oracle import PropertyReport, all_patterns, run_property
from .prefixes import (
    Pattern,
    PrefixListing,
    ReducibilityVerdict,
    SetSample,
    ascending_listing,
    equiv_eo,
    inversions,
    leq_eo,
    make_prefix,
    standardize,
)

__all__ = [
    "Chain",
    "Enumerator",
    "HaltingModel",
    "InversePositionReport",
    "Membership",
    "MembershipReport",
    "PairedListings",
    "Pattern",
    "PrefixListing",
    "PropertyReport",
    "ReducibilityVerdict",
    "SetSample",
    "all_patterns",
    "ascending_listing",
    "ascending_view",
    "builtin_models",
    "chain_stabilize",
    "check_inverse_positions",
    "decide_membership",
    "descent_chain",
    "dovetail_halting",
    "equiv_eo",
    "family_below",
    "inverse_lookup",
    "inversions",
    "leq_eo",
    "make_paired",
    "make_prefix",
    "make_strict_chain",
    "parse_spec",
    "predecessor",
    "run_property",
    "standardize",
    "take_prefix",
    "transport",
]

__version__ = "0.1.0"
