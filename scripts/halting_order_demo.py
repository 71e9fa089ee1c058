#!/usr/bin/env python3
"""Show how dovetailed halting enumeration scrambles value order.

For each built-in halting model, print the emitted prefix, its inversion
count, and whether it is order-equivalent to the ascending listing of the
same values (it should not be, once real halting-time spread kicks in).

Usage: python scripts/halting_order_demo.py [--budget 2000] [--len 40]
"""

import argparse

from enumorder.enumerators import builtin_models, dovetail_halting, take_prefix
from enumorder.prefixes import equiv_eo, inversions, make_prefix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--len", type=int, dest="length", default=40)
    args = parser.parse_args()

    for model in builtin_models():
        prefix = take_prefix(dovetail_halting(model, args.budget), args.length, args.budget)
        asc = make_prefix(sorted(prefix.values))
        print(f"model {model.name}:")
        print(f"  emitted  {' '.join(str(v) for v in prefix.values)}")
        print(f"  inversions: {len(inversions(prefix))}")
        print(f"  order-equivalent to ascending: {equiv_eo(prefix, asc)}")


if __name__ == "__main__":
    main()
