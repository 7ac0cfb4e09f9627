"""The restriction tower of module classes and its Pascal-simplex structure.

Level n of the tower holds one vertex per isomorphism class (composition of
n into c+1 parts); a level-n vertex connects down to a level-(n-1) vertex
exactly when the smaller composition is the larger one with a single part
decremented.  Vertex dimensions are multinomial coefficients, so the graph
is the (c+1)-simplex analogue of Pascal's triangle and each level has
C(n+c, n) vertices.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .diagrams import CapExceededError, _binomial_exceeds, require_shape
from .representations import IrrepLabel, all_labels

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
    index_at = [{label: i for i, label in enumerate(level)} for level in levels]
    edges = []
    for n in range(1, n_max + 1):
        for parent_idx, label in enumerate(levels[n]):
            for child in label.children():
                edges.append(((n, parent_idx), (n - 1, index_at[n - 1][child])))
    edges.sort()
    return BratteliGraph(c, n_max, levels, tuple(edges))


def require_tower_cap(c: int, n_max: int, cap: int) -> None:
    """Raise :class:`CapExceededError` if levels 0..n_max, C(n_max+c+1, c+1) vertices in all, exceed the cap."""
    if _binomial_exceeds(n_max, c + 1, cap):
        raise CapExceededError(f"the tower to level {n_max} at c={c} has more than {cap} vertices")


def vertex_count(n: int, c: int) -> int:
    """Number of level-n vertices: compositions of n into c+1 parts."""
    if n < 0 or c < 0:
        raise ValueError("need n >= 0 and c >= 0")
    return math.comb(n + c, n)


def adjacency_count(n: int, c: int, x: int) -> int:
    """How many level-n vertices have exactly x children.

    A vertex has x children iff x of its parts are nonzero: choose the
    nonzero positions, then a positive composition of n into x parts.
    """
    if n < 1 or x < 1:
        raise ValueError("need n >= 1 and x >= 1")
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


def emit_json(graph: BratteliGraph) -> bytes:
    payload = {
        "c": graph.c,
        "n_max": graph.n_max,
        "levels": [[list(label.sizes) for label in level] for level in graph.levels],
        "edges": [[list(parent), list(child)] for parent, child in graph.edges],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def graph_from_json(raw: bytes) -> BratteliGraph:
    """Rebuild a graph from its JSON byte stream (inverse of emit_json); refuse a payload that is not the tower."""
    payload = json.loads(raw.decode("utf-8"))
    c, n_max, levels = payload["c"], payload["n_max"], payload["levels"]
    parts = sum(len(sizes) for level in levels for sizes in level)  # checked first: build is no larger than the payload
    if len(levels) != n_max + 1 or parts != (c + 1) * math.comb(n_max + c + 1, c + 1):  # c + 1 parts per vertex
        raise ValueError(f"the payload's levels do not have the size of the tower to level {n_max} at c={c}")
    graph = build(c, n_max)
    if json.loads(emit_json(graph)) != payload:
        raise ValueError(f"the payload's levels or edges differ from the tower to level {n_max} at c={c}")
    return graph
