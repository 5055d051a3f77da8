#!/usr/bin/env python3
"""Record golden `run_search` reports for the corpus_gf3 workload.

    python3 bench/record_golden.py --seeds 0-19

Writes one report per (search, seed) into bench/golden/, byte for byte as
`leibnil.files.dump_report` prints it. The corpus_gf3 workload then fails any
run whose report differs from the recorded one. Record only from a commit
whose search results are trusted, and never over a golden a run disagrees
with without finding out why.
"""

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from leibnil.files import dump_report  # noqa: E402
from leibnil.search import run_search  # noqa: E402
from workloads import FIELD_P, CorpusGF3, golden_path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    golden_path(0, 0, 0).parent.mkdir(exist_ok=True)
    for seed in range(int(first), int(last or first) + 1):
        for dim, samples in CorpusGF3.SEARCHES:
            path = golden_path(dim, samples, seed)
            path.write_text(dump_report(run_search(dim, FIELD_P, samples, seed)))
            print(f"wrote {path.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
