#!/usr/bin/env python3
"""Reproduce the corpus sweep behind the strong-index bound check.

Runs the exhaustive dim-2 sweep over GF(p) (GF(3) by default) plus a seeded
batch of dim-3 samples, prints the aggregates, and writes both JSON reports
next to this script (or to --outdir). Exit 1 means a filtration violation
was counted, i.e. a bug. The bound and sandwich counts are printed for the
report format only: the strong index is the right index, so neither can be
nonzero. A failed invariant stops the sweep instead: it raises
ChainVerificationError naming the tensor, so the script exits 1 with a
traceback and writes no report for that run.

Usage: PYTHONPATH=src python scripts/run_corpus_search.py [--outdir DIR]
"""

import argparse
import sys
from pathlib import Path

from leibnil.files import dump_report
from leibnil.search import run_search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=3, help="field order (odd prime)")
    parser.add_argument("--samples", type=int, default=5000, help="dim-3 sample count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", type=Path, default=Path(__file__).parent)
    args = parser.parse_args()

    runs = [
        ("dim2_exhaustive", dict(dim=2, p=args.p, samples=0, seed=args.seed)),
        ("dim3_sampled", dict(dim=3, p=args.p, samples=args.samples, seed=args.seed)),
    ]
    filtration_violations = 0
    for name, params in runs:
        report = run_search(**params)
        out = args.outdir / f"search_{name}_p{args.p}_seed{args.seed}.json"
        out.write_text(dump_report(report))
        print(f"{name}: {report['candidates']} candidates, {report['valid']} valid, "
              f"{report['right_nilpotent']} right nilpotent, "
              f"{report['left_not_right_count']} left-not-right")
        print(f"  max strong index by right index: {report['max_strong_by_right_index']}")
        print(f"  violations: bound {len(report['bound_violations'])}, "
              f"sandwich {report['sandwich_violations']}, "
              f"filtration {report['filtration_violations']}")
        print(f"  report written to {out}")
        filtration_violations += report["filtration_violations"]
    return 1 if filtration_violations else 0


if __name__ == "__main__":
    sys.exit(main())
