"""Reference computations the benchmark checks the engine's outputs against.

Nothing here imports the engine.  A diagram is a plain ``(n, c, edges)``
triple whose edges are sorted ``(top, bottom, color)`` tuples, and every
rule is written out again from its definition, so a defect in the engine's
code path cannot hide itself in the check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

Edges = tuple[tuple[int, int, int], ...]


def compositions(n: int, parts: int) -> list[tuple[int, ...]]:
    """Every composition of n into ``parts`` non-negative parts."""
    if parts == 1:
        return [(n,)]
    return [(head,) + tail for head in range(n + 1) for tail in compositions(n - head, parts - 1)]


def multinomial(sizes) -> int:
    out = math.factorial(sum(sizes))
    for s in sizes:
        out //= math.factorial(s)
    return out


def cardinality(n: int, c: int) -> int:
    """Number of planar diagrams: squared multinomials over class compositions."""
    return sum(multinomial(sizes) ** 2 for sizes in compositions(n, c + 1))


def random_parts(rng: random.Random, n: int, c: int, sizes=None) -> tuple[tuple[int, ...], ...]:
    """A random row profile as c + 1 sorted vertex tuples (isolated first)."""
    if sizes is None:
        owner = [rng.randint(0, c) for _ in range(n)]
    else:
        owner = [part for part, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(owner)
    return tuple(tuple(v + 1 for v in range(n) if owner[v] == part) for part in range(c + 1))


def profile_edges(top_parts, bottom_parts) -> Edges:
    """The planar diagram with the given row profiles.

    Same-colored edges may not cross, so for each color the r-th top
    endpoint joins the r-th bottom endpoint.
    """
    edges = []
    for color in range(1, len(top_parts)):
        edges.extend((t, b, color) for t, b in zip(top_parts[color], bottom_parts[color]))
    return tuple(sorted(edges))


def random_planar(rng: random.Random, n: int, c: int) -> Edges:
    top = random_parts(rng, n, c)
    return profile_edges(top, random_parts(rng, n, c, [len(p) for p in top]))


def literal(n: int, c: int, edges: Edges) -> str:
    """The diagram literal grammar: ``n=<n> c=<c> [t-b:k, ...]``, sorted by top."""
    return f"n={n} c={c} [" + ", ".join(f"{t}-{b}:{k}" for t, b, k in sorted(edges)) + "]"


def parse_literal(text: str) -> Edges:
    """The edges of a diagram literal, sorted."""
    body = text[text.index("[") + 1:text.index("]")]
    items = [item for item in body.split(", ") if item]
    return tuple(sorted(tuple(int(x) for x in item.replace("-", ":").split(":")) for item in items))


def compose(upper: Edges, lower: Edges) -> Edges:
    """Stack ``upper`` over ``lower`` and keep the monochromatic through-paths."""
    below = {t: (b, k) for t, b, k in lower}
    return tuple(sorted((t, below[m][0], k) for t, m, k in upper if m in below and below[m][1] == k))


def bilinear(left: dict, right: dict) -> dict:
    """Product of two ``{edges: Fraction}`` combinations in the diagram basis."""
    out: dict = {}
    for e1, q1 in left.items():
        for e2, q2 in right.items():
            key = compose(e1, e2)
            out[key] = out.get(key, Fraction(0)) + q1 * q2
    return {key: q for key, q in out.items() if q}


def embed(n: int, c: int, terms: dict) -> dict:
    """Append one column: each single vertical edge, minus (c - 1) times no edge."""
    out: dict = {}
    column = [(((n + 1, n + 1, k),), Fraction(1)) for k in range(1, c + 1)] + [((), Fraction(1 - c))]
    for edges, q in terms.items():
        for extra, weight in column:
            key = tuple(sorted(edges + extra))
            out[key] = out.get(key, Fraction(0)) + q * weight
    return {key: q for key, q in out.items() if q}


def character(c: int, edges: Edges, sizes) -> int:
    """Closed-form character: product over colors of C(vertical count, part size)."""
    verticals = [0] * (c + 1)
    for t, b, k in edges:
        if t == b:
            verticals[k] += 1
    return math.prod(math.comb(verticals[k], sizes[k]) for k in range(1, c + 1))


def restriction(sizes) -> list[tuple[int, ...]]:
    """Restriction summands: each nonzero part decremented once, in part order."""
    return [tuple(s - (i == j) for i, s in enumerate(sizes)) for j, size in enumerate(sizes) if size]
