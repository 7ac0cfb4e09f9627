"""Command-line surface: enumeration, arithmetic, tables, towers, verification.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
resource-cap errors and on any ``OSError`` (``i/o error:``), 3 on an internal
error (any other exception; for ``verify``, a check that raised, reported in
a complete report).  All data output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

from . import bratteli
from .algebra import format_element, from_diagram, to_x_coordinates, x_of
from .checks import VerifyConfig, _draws, run_verification
from .diagrams import (
    DEFAULT_DIAGRAM_CAP,
    CapExceededError,
    _binomial_exceeds,
    _clipped_power,
    cardinality,
    compositions,
    diagram_sort_key,
    enumerate_literals,
    enumerate_planar,
    format_diagram,
    format_matrix,
    multinomial,
    multiply,
    parse_diagram,
)
from .representations import character_table_csv, verify_character_table

ENV_DIAGRAM_CAP = "PLANAR_ROOK_CAP"
ENV_N_CAP = "PLANAR_ROOK_N_CAP"
ENV_C_CAP = "PLANAR_ROOK_C_CAP"


def integer(text: str) -> int:
    """An optional '-' and ASCII digits; ``int`` alone also takes "٣", "²", " 7", "+7" and "1_0"."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name, str(fallback))
    try:
        return integer(value)
    except ValueError:
        raise ValueError(f"environment variable {name}={value!r} is not an integer")


def _diagram_cap(option: int | None = None) -> int:
    """The diagram cap: the command's ``--cap``, else ``PLANAR_ROOK_CAP``, else the default."""
    return option if option is not None else _env_int(ENV_DIAGRAM_CAP, DEFAULT_DIAGRAM_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planar-rook",
        description="Exact computations in the colored planar rook monoid and its algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of planar diagrams")
    p.add_argument("-n", type=integer, required=True)
    p.add_argument("-c", type=integer, required=True)
    p.add_argument("--breakdown", action="store_true", help="also print one line per composition")

    p = sub.add_parser("enumerate", help="list all planar diagrams in canonical order")
    p.add_argument("-n", type=integer, required=True)
    p.add_argument("-c", type=integer, required=True)
    p.add_argument("--cap", type=integer, default=None, help="refuse if the monoid is larger than this")

    p = sub.add_parser("mul", help="multiply two diagram literals")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--as-matrix", action="store_true", help="print the product in matrix form")
    p.add_argument("--spot-check", type=integer, default=0, metavar="K",
                   help="also test associativity on K random triples of the same shape")
    p.add_argument("--seed", type=integer, default=12345)

    p = sub.add_parser("xbasis", help="expand a diagram's x-basis vector")
    p.add_argument("diagram")
    p.add_argument("--invert", action="store_true",
                   help="print the diagram's x-basis coordinates instead")

    p = sub.add_parser("chartable", help="write the character table as CSV")
    p.add_argument("-n", type=integer, required=True)
    p.add_argument("-c", type=integer, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true", help="recompute every entry as a trace")
    p.add_argument("--cap", type=integer, default=None)

    p = sub.add_parser("bratteli", help="emit the restriction tower")
    p.add_argument("-c", type=integer, required=True)
    p.add_argument("-n", type=integer, required=True, help="largest level to build")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--n-cap", type=integer, default=None)
    p.add_argument("--c-cap", type=integer, default=None)
    p.add_argument("--cap", type=integer, default=None, help="largest monoid to sweep exhaustively")
    p.add_argument("--samples", type=integer, default=VerifyConfig.samples)
    p.add_argument("--seed", type=integer, default=VerifyConfig.seed)
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p.add_argument("--out", default=None, help="write the JSON report to a file")

    return parser


def _write_bytes(path: str | None, payload: bytes) -> None:
    if path is None:
        sys.stdout.write(payload.decode("utf-8"))
    else:
        with open(path, "wb") as handle:
            handle.write(payload)


def _cmd_count(args) -> int:
    if _binomial_exceeds(args.n, args.c, cap := _diagram_cap()):  # one multinomial per composition of n
        raise CapExceededError(f"n={args.n} has more than {cap} compositions into {args.c + 1} parts")
    # A squared multinomial is at most (c+1)^(2n), so this bounds the digits of the breakdown's lines.
    digits = math.comb(args.n + args.c, args.c) * (math.floor(2 * args.n * math.log10(args.c + 1)) + 1)
    if args.breakdown and digits > cap:
        raise CapExceededError(f"the breakdown of n={args.n} may print {digits} digits, over the cap of {cap}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # counts print in full, past int's default digit limit, for this output only
    try:
        print(cardinality(args.n, args.c))
        if args.breakdown:
            for sizes in compositions(args.n, args.c):
                print(f"{sizes}: {multinomial(sizes) ** 2}")
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _cmd_enumerate(args) -> int:
    literals = enumerate_literals(args.n, args.c, _diagram_cap(args.cap))  # a refused cap prints nothing
    write = sys.stdout.write  # looked up per run, so a redirected stdout is used
    for literal in literals:
        write(literal)
        write("\n")
    return 0


def _cmd_mul(args) -> int:
    if args.spot_check < 0:
        print("mul needs --spot-check >= 0", file=sys.stderr)
        return 2
    left = parse_diagram(args.left)
    right = parse_diagram(args.right)
    product = multiply(left, right)
    if args.as_matrix and (cells := product.n ** 2) > (cap := _diagram_cap()):
        raise CapExceededError(f"the {product.n}x{product.n} matrix has {cells} cells, more than the cap of {cap}")
    if args.spot_check:  # K and the pool are refused before any output; K triples take 4K products
        if args.spot_check > (cap := _diagram_cap()):
            raise CapExceededError(f"--spot-check {args.spot_check} exceeds the cap of {cap} triples")
        pool = list(enumerate_planar(left.n, left.c, cap))
    if args.as_matrix:
        print(format_matrix(product))
    else:
        print(format_diagram(product))
    if args.spot_check:
        for a, b, d in _draws(pool, args.spot_check, args.seed, 3):
            if multiply(multiply(a, b), d) != multiply(a, multiply(b, d)):
                print(f"associativity failed on {format_diagram(a)}, {format_diagram(b)}, "
                      f"{format_diagram(d)}", file=sys.stderr)
                return 1
        print(f"associativity spot-check passed on {args.spot_check} triples")
    return 0


def _cmd_xbasis(args) -> int:
    d = parse_diagram(args.diagram)
    cap = _diagram_cap()
    if (count := _clipped_power(2, d.size, cap)) > cap:  # both directions build every subdiagram
        raise CapExceededError(f"at least {count} subdiagrams of a {d.size}-edge diagram exceed the cap of {cap}")
    if args.invert:
        coords = to_x_coordinates(from_diagram(d))
        terms = sorted(coords.items(), key=lambda item: diagram_sort_key(item[0]))
        print(" + ".join(f"{q} * x[{format_diagram(a)}]" for a, q in terms) or "0")
    else:
        print(format_element(x_of(d)))
    return 0


def _cmd_chartable(args) -> int:
    # C(n+c, c) rows by as many columns; --cap bounds the --verify modules, the environment the table.
    if _binomial_exceeds(args.n, args.c, math.isqrt(max(cap := _diagram_cap(), 0))):
        raise CapExceededError(f"the character table at (n={args.n}, c={args.c}) has more than {cap} cells")
    payload = character_table_csv(args.n, args.c)
    if args.verify:
        outcome = verify_character_table(args.n, args.c, _diagram_cap(args.cap))
        if not outcome:
            for failure in outcome.witnesses:
                print(failure, file=sys.stderr)
            return 1
    _write_bytes(args.out, payload)
    return 0


def _cmd_bratteli(args) -> int:
    bratteli.require_tower_cap(args.c, args.n, _diagram_cap())
    graph = bratteli.build(args.c, args.n)
    payload = getattr(bratteli, f"emit_{args.format}")(graph)  # read at call time, so a patched emitter is used
    _write_bytes(args.out, payload)
    return 0


def _cmd_verify(args) -> int:
    config = VerifyConfig(
        n_cap=args.n_cap if args.n_cap is not None else _env_int(ENV_N_CAP, VerifyConfig.n_cap),
        c_cap=args.c_cap if args.c_cap is not None else _env_int(ENV_C_CAP, VerifyConfig.c_cap),
        diagram_cap=_diagram_cap(args.cap),
        samples=args.samples,
        seed=args.seed,
    )
    if config.n_cap < 0 or config.c_cap < 1 or config.samples < 0:
        print("verify needs n-cap >= 0, c-cap >= 1 and --samples >= 0", file=sys.stderr)
        return 2
    results = run_verification(config)
    report = {
        "config": dataclasses.asdict(config),
        "ok": all(r.ok for r in results),
        "checks": [r.as_dict() for r in results],
    }
    payload = (json.dumps(report, indent=2) + "\n").encode("utf-8")
    if args.out is not None:
        _write_bytes(args.out, payload)
    if args.json:
        _write_bytes(None, payload)
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{status} {r.name} (checked {r.checked})")
            if r.error is not None:
                print(f"     error: {r.error}")
            for witness in r.witnesses[:5]:
                print(f"     witness: {witness}")
            if len(r.witnesses) > 5:
                print(f"     … and {len(r.witnesses) - 5} more")
    faults = [r for r in results if r.error is not None]
    for r in faults:
        print(f"internal error in {r.name}: {r.error}", file=sys.stderr)
    return 3 if faults else 0 if report["ok"] else 1


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "mul": _cmd_mul,
    "xbasis": _cmd_xbasis,
    "chartable": _cmd_chartable,
    "bratteli": _cmd_bratteli,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if hasattr(args, "n") and (args.n < 0 or args.c < 1):  # the commands with -n
        print(f"{args.command} needs n >= 0 and c >= 1", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault, never a usage error; 1 stays a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
