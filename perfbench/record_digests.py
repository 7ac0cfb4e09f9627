#!/usr/bin/env python3
"""Print the digests that ``expected.json`` records, computed by the engine.

    python3 perfbench/record_digests.py > perfbench/expected.json

Run it only on a commit whose outputs are known to be right: the benchmark
treats any later difference from these digests as a wrong output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planar_rook import bratteli, cli, representations  # noqa: E402

from workloads import Modules, Sweep, _cli, sha256  # noqa: E402


def main() -> int:
    engine = SimpleNamespace(cli=cli)
    sweep, modules = {}, {}
    for tiny in (False, True):
        for argv in Sweep(tiny).commands:
            code, text = _cli(engine, argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {code}")
            sweep[" ".join(argv)] = sha256(text.encode("utf-8"))
        for n, c in Modules(tiny).shapes:
            graph = bratteli.build(c, n)
            modules[f"{n},{c}"] = {
                "csv": sha256(representations.character_table_csv(n, c)),
                "dot": sha256(bratteli.emit_dot(graph)),
                "json": sha256(bratteli.emit_json(graph)),
            }
    json.dump({"sweep": sweep, "modules": modules}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
