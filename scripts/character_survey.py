#!/usr/bin/env python3
"""Write character tables for a grid of monoid shapes and cross-check them.

Every table entry has a closed form (a product of binomial coefficients in
the vertical edge counts); with --verify each entry is recomputed as the
trace of the acting diagram on a representative module.

Usage:
    python3 scripts/character_survey.py --max-n 4 --max-c 2 --outdir out/ --verify
"""

from __future__ import annotations

import argparse
from pathlib import Path

from planar_rook.cli import integer
from planar_rook.representations import character_table_csv, verify_character_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=integer, default=4)
    parser.add_argument("--max-c", type=integer, default=2)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for c in range(1, args.max_c + 1):
        for n in range(args.max_n + 1):
            path = args.outdir / f"characters_n{n}_c{c}.csv"
            path.write_bytes(character_table_csv(n, c))
            note = ""
            if args.verify:
                outcome = verify_character_table(n, c)
                note = " [trace-checked]" if outcome else " [MISMATCH]"
                failures += 0 if outcome else 1
            print(f"wrote {path}{note}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
