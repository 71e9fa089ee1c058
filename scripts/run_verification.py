#!/usr/bin/env python3
"""Run every registered brute-force property at its largest supported size
and emit one JSON report per line on stdout, with a summary line per
property on stderr.

Usage: python scripts/run_verification.py [> reports.jsonl]
"""

import argparse
import json
import sys

from enumorder.oracle import REGISTRY, run_property


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    all_pass = True
    for pid, (cap, _) in REGISTRY.items():
        report = run_property(pid, cap)
        all_pass &= report.passed
        print(json.dumps(report.to_json()))
        print(
            f"{pid:<25} n={report.n} instances={report.instances:>6} "
            f"{'pass' if report.passed else 'FAIL'} ({report.elapsed:.2f}s)",
            file=sys.stderr,
        )
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
