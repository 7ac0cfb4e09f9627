#!/usr/bin/env python3
"""Reproduce the tower figures: simplex layers, vertex counts, exports.

Builds the restriction tower for a chosen color count, prints the level
dimensions (the Pascal-simplex layers) and the level-size table, and writes
DOT and JSON exports next to each other for rendering or exchange.

Usage:
    python3 scripts/tower_figures.py --colors 2 --levels 4 --outdir out/
"""

from __future__ import annotations

import argparse
from pathlib import Path

from planar_rook.bratteli import build, emit_dot, emit_json, vertex_count
from planar_rook.cli import integer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--colors", type=integer, default=2)
    parser.add_argument("--levels", type=integer, default=4)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args()

    graph = build(args.colors, args.levels)

    print(f"tower for c={args.colors}, levels 0..{args.levels}")
    for n, level in enumerate(graph.levels):
        dims = " ".join(str(label.dimension()) for label in level)
        print(f"  level {n:2d} ({len(level):4d} classes): {dims}")

    print("\nlevel sizes over color counts (rows n, columns c):")
    for n in range(args.levels + 1):
        row = " ".join(f"{vertex_count(n, c):6d}" for c in range(args.colors + 3))
        print(f"  n={n}: {row}")

    args.outdir.mkdir(parents=True, exist_ok=True)
    dot_path = args.outdir / f"tower_c{args.colors}_n{args.levels}.dot"
    json_path = args.outdir / f"tower_c{args.colors}_n{args.levels}.json"
    dot_path.write_bytes(emit_dot(graph))
    json_path.write_bytes(emit_json(graph))
    print(f"\nwrote {dot_path} and {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
