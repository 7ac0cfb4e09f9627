"""The restriction tower of module classes and its Pascal-simplex structure.

Level n of the tower holds one vertex per isomorphism class (composition of
n into c+1 parts); a level-n vertex connects down to a level-(n-1) vertex
exactly when the smaller composition is the larger one with a single part
decremented.  Vertex dimensions are multinomial coefficients, so the graph
is the (c+1)-simplex analogue of Pascal's triangle and each level has
C(n+c, n) vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .diagrams import CapExceededError, _binomial_exceeds, require_color_cap, require_shape
from .representations import IrrepLabel, _decremented, all_labels

#: An edge joins (level, index) of a parent to (level - 1, index) of a child.
IndexPath = tuple[int, int]


@dataclass(frozen=True)
class BratteliGraph:
    c: int
    n_max: int
    levels: tuple[tuple[IrrepLabel, ...], ...]
    edges: tuple[tuple[IndexPath, IndexPath], ...]

    def level(self, n: int) -> tuple[IrrepLabel, ...]:
        return self.levels[n]

    def children_of(self, n: int, index: int) -> list[int]:
        """Indices of level-(n-1) vertices adjacent to vertex (n, index)."""
        return self._children.get((n, index), [])

    @cached_property
    def _children(self) -> dict[IndexPath, list[int]]:
        index: dict[IndexPath, list[int]] = {}
        for parent, child in self.edges:
            index.setdefault(parent, []).append(child[1])
        return index


def build(c: int, n_max: int) -> BratteliGraph:
    """Build the tower up to level ``n_max``; levels in colex order."""
    require_shape(n_max, c)
    levels = tuple(all_labels(n, c) for n in range(n_max + 1))
    edges, below = [], {}  # below: level n - 1's part sizes to their index
    for n, level in enumerate(levels):
        for i, label in enumerate(level):
            sizes = label.sizes
            edges.extend(((n, i), (n - 1, below[_decremented(sizes, j)])) for j, s in enumerate(sizes) if s)
        below = {label.sizes: i for i, label in enumerate(level)}
    edges.sort()
    return BratteliGraph(c, n_max, levels, tuple(edges))


def require_tower_cap(c: int, n_max: int, cap: int) -> None:
    """Raise :class:`CapExceededError` if c + 1, or the C(n_max+c+1, c+1) vertices of levels 0..n_max, pass the cap."""
    require_color_cap(c, cap)
    if _binomial_exceeds(n_max, c + 1, cap):
        raise CapExceededError(f"the tower to level {n_max} at c={c} has more than {cap} vertices")


def vertex_count(n: int, c: int) -> int:
    """Number of level-n vertices: compositions of n into c+1 parts."""
    if any(type(v) is not int or v < 0 for v in (n, c)):  # bools and floats too
        raise ValueError("need n >= 0 and c >= 0")
    return math.comb(n + c, n)


def adjacency_count(n: int, c: int, x: int) -> int:
    """How many level-n vertices have exactly x children.

    A vertex has x children iff x of its parts are nonzero: choose the
    nonzero positions, then a positive composition of n into x parts.
    """
    if any(type(v) is not int for v in (n, c, x)) or n < 1 or c < 0 or x < 1:  # bools and floats too
        raise ValueError("need n >= 1, c >= 0 and x >= 1")
    return math.comb(c + 1, x) * math.comb(n - 1, x - 1)


def down_degree_histogram(graph: BratteliGraph, n: int) -> dict[int, int]:
    """Histogram of child counts over the level-n vertices."""
    return dict(Counter(len(graph.children_of(n, idx)) for idx in range(len(graph.levels[n]))))


# ---------------------------------------------------------------------------
# Exchange formats.  Both byte streams are deterministic for a fixed graph.

def _node_id(n: int, label: IrrepLabel) -> str:
    return f"W_{n}_({','.join(str(s) for s in label.sizes)})"


def emit_dot(graph: BratteliGraph) -> bytes:
    """DOT rendering: one node per class with its dimension, ranked by level."""
    lines = ["digraph tower {", "  rankdir=TB;", '  node [shape=ellipse];']
    ids = [[_node_id(n, label) for label in level] for n, level in enumerate(graph.levels)]
    for level, nodes in zip(graph.levels, ids):
        for label, node in zip(level, nodes):
            dim = label.dimension()
            lines.append(f'  "{node}" [label="{node} dim={dim}", dim={dim}];')
    for nodes in ids:
        ranked = " ".join(f'"{node}";' for node in nodes)
        lines.append(f"  {{ rank=same; {ranked} }}")
    for (pn, pi), (cn, ci) in graph.edges:
        lines.append(f'  "{ids[pn][pi]}" -> "{ids[cn][ci]}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _int_list_template(width: int, indent: int) -> str:
    """A %-template of ``width`` ints laid out as by ``json.dumps(indent=2)``, its brackets at ``indent`` spaces."""
    pad = " " * indent
    return f"{pad}[\n" + ",\n".join([f"{pad}  %d"] * width) + f"\n{pad}]"


def emit_json(graph: BratteliGraph) -> bytes:
    """The bytes of ``json.dumps(indent=2)`` on {c, n_max, levels, edges}, one %-template per vertex and per edge."""
    label_template, path = _int_list_template(graph.c + 1, 6), _int_list_template(2, 6)
    edge_template = f"    [\n{path},\n{path}\n    ]"
    levels = ",\n".join(
        "    [\n" + ",\n".join([label_template % label.sizes for label in level]) + "\n    ]" for level in graph.levels
    )
    edges = ",\n".join([edge_template % (*parent, *child) for parent, child in graph.edges])
    edges = f"[\n{edges}\n  ]" if edges else "[]"
    head = f'{{\n  "c": {graph.c},\n  "n_max": {graph.n_max},\n  "levels": [\n'
    return f'{head}{levels}\n  ],\n  "edges": {edges}\n}}\n'.encode("utf-8")

