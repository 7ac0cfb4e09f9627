import json
import math
import re

import pytest

from planar_rook.bratteli import (
    BratteliGraph,
    adjacency_count,
    build,
    down_degree_histogram,
    emit_dot,
    emit_json,
    require_tower_cap,
    vertex_count,
)
from planar_rook.checks import check_tower_recursion
from planar_rook.diagrams import CapExceededError, InvalidDiagramError
from planar_rook.representations import IrrepLabel

# The two-color tower up to level 2: 1 + 3 + 6 vertices and 12 edges.
TETRAHEDRON_TOP = {
    ((1, 0, 0), (0, 0, 0)),
    ((0, 1, 0), (0, 0, 0)),
    ((0, 0, 1), (0, 0, 0)),
    ((2, 0, 0), (1, 0, 0)),
    ((1, 1, 0), (1, 0, 0)),
    ((1, 1, 0), (0, 1, 0)),
    ((0, 2, 0), (0, 1, 0)),
    ((1, 0, 1), (1, 0, 0)),
    ((1, 0, 1), (0, 0, 1)),
    ((0, 1, 1), (0, 1, 0)),
    ((0, 1, 1), (0, 0, 1)),
    ((0, 0, 2), (0, 0, 1)),
}


def _edge_labels(graph: BratteliGraph):
    return {
        (graph.levels[pn][pi].sizes, graph.levels[cn][ci].sizes)
        for (pn, pi), (cn, ci) in graph.edges
    }


def test_two_color_tower_levels():
    graph = build(2, 2)
    assert [len(level) for level in graph.levels] == [1, 3, 6]
    assert [label.sizes for label in graph.level(1)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(graph.edges) == 12
    assert _edge_labels(graph) == TETRAHEDRON_TOP


def test_mixed_label_has_two_children():
    graph = build(2, 2)
    idx = [label.sizes for label in graph.level(2)].index((1, 1, 0))
    children = {graph.level(1)[i].sizes for i in graph.children_of(2, idx)}
    assert children == {(1, 0, 0), (0, 1, 0)}


def test_trivial_tower():
    graph = build(3, 0)
    assert [len(level) for level in graph.levels] == [1]
    assert graph.edges == ()


VERTEX_TABLE = [
    [1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5],
    [1, 3, 6, 10, 15],
    [1, 4, 10, 20, 35],
    [1, 5, 15, 35, 70],
]


def test_vertex_count_table():
    for n, row in enumerate(VERTEX_TABLE):
        for c, expected in enumerate(row):
            assert vertex_count(n, c) == expected


def test_vertex_count_matches_built_levels():
    for c in (1, 2, 3):
        graph = build(c, 4)
        for n in range(5):
            assert len(graph.level(n)) == vertex_count(n, c)


def test_adjacency_count_examples():
    assert adjacency_count(2, 2, 1) == 3
    assert adjacency_count(2, 2, 2) == 3
    assert adjacency_count(2, 2, 3) == 0
    assert adjacency_count(5, 1, 3) == 0


def test_adjacency_count_matches_histogram():
    for c in (1, 2, 3):
        graph = build(c, 5)
        for n in range(1, 6):
            histogram = down_degree_histogram(graph, n)
            for x in range(1, c + 2):
                assert histogram.get(x, 0) == adjacency_count(n, c, x)


def test_multinomial_recursion_examples():
    graph = build(2, 2)
    idx = [label.sizes for label in graph.level(2)].index((1, 1, 0))
    children = graph.children_of(2, idx)
    assert IrrepLabel((1, 1, 0)).dimension() == 2 == sum(
        graph.level(1)[i].dimension() for i in children
    )
    assert check_tower_recursion((2, 2))


def test_multinomial_recursion_wide():
    outcome = check_tower_recursion((12, 4))
    assert outcome.ok, outcome.witnesses
    assert outcome.checked == sum(vertex_count(n, c) for c in range(1, 5) for n in range(1, 13))


def test_pascal_triangle_specialization():
    graph = build(1, 6)
    for n in range(7):
        assert len(graph.level(n)) == n + 1
        assert [label.dimension() for label in graph.level(n)] == [
            math.comb(n, k) for k in range(n + 1)
        ]


def test_emit_dot_counts():
    payload = emit_dot(build(2, 2)).decode("utf-8")
    assert payload.count(" -> ") == 12
    assert payload.count("dim=") == 2 * 10  # label text and attribute per node


def test_emit_json_trivial():
    payload = json.loads(emit_json(build(2, 0)))
    assert payload == {"c": 2, "n_max": 0, "levels": [[[0, 0, 0]]], "edges": []}


def _payload(graph: BratteliGraph) -> dict:
    return {
        "c": graph.c,
        "n_max": graph.n_max,
        "levels": [[list(label.sizes) for label in level] for level in graph.levels],
        "edges": [[list(parent), list(child)] for parent, child in graph.edges],
    }


@pytest.mark.parametrize("c, n_max", [(c, n) for c in range(1, 5) for n in range(7)] + [(1100, 1)])
def test_emit_json_writes_the_bytes_of_json_dumps(c, n_max):
    # The templates against the standard encoder; n_max = 0 has no edges, and c = 1100 has wide vertices.
    graph = build(c, n_max)
    assert emit_json(graph) == (json.dumps(_payload(graph), indent=2) + "\n").encode()


@pytest.mark.parametrize("c, n_max", [(2, 3), (3, 2), (1, 0)])
def test_emit_deterministic_and_rebuilt_from_its_parameters(c, n_max):
    # A saved tower is build of its own c and n_max: emit_json of that graph is its exact bytes.
    raw = emit_json(build(c, n_max))
    assert emit_json(build(c, n_max)) == raw
    payload = json.loads(raw)
    assert emit_json(build(payload["c"], payload["n_max"])) == raw
    assert emit_dot(build(c, n_max)) == emit_dot(build(c, n_max))


@pytest.mark.parametrize("edit, same_values", [
    pytest.param(lambda payload: payload["edges"].append([[2, 0], [1, 99]]), False, id="edge-to-no-vertex"),
    pytest.param(lambda payload: payload["levels"][1].__setitem__(0, [5, 0, 0]), False, id="relabelled-vertex"),
    # json.loads reads true as True == 1 and 1.0 == 1: only the bytes tell these from the tower.
    pytest.param(lambda payload: payload["levels"][1].__setitem__(0, [True, False, False]), True, id="bool-parts"),
    pytest.param(lambda payload: payload["edges"][0].__setitem__(0, [1.0, 0]), True, id="float-edge-path"),
])
def test_an_edited_tower_is_not_the_bytes_of_its_rebuild(edit, same_values):
    # Laid out as emit_json lays it out, an edited payload still differs from the rebuild of its c and n_max.
    payload = json.loads(emit_json(build(2, 2)))
    edit(payload)
    raw = (json.dumps(payload, indent=2) + "\n").encode()
    rebuilt = emit_json(build(payload["c"], payload["n_max"]))
    assert raw != rebuilt
    assert (json.loads(raw) == json.loads(rebuilt)) is same_values


@pytest.mark.parametrize("c, n_max", [(True, 2), (2, False), (0, 2), (2, -1), (2.0, 2)])
def test_build_refuses_a_bad_shape(c, n_max):
    with pytest.raises(ValueError):
        build(c, n_max)


@pytest.mark.parametrize("c, n_max, message", [
    pytest.param("2", 2, "c must be a positive int, got '2'", id="text-c"),
    pytest.param(2, "2", "n must be a non-negative int, got '2'", id="text-n-max"),
    pytest.param(2, 2.0, "n must be a non-negative int, got 2.0", id="float-n-max"),
    pytest.param(None, 2, "c must be a positive int, got None", id="no-c"),
    pytest.param(-1, 2, "c must be a positive int, got -1", id="negative-c"),
])
def test_build_names_the_bad_part_of_a_shape(c, n_max, message):
    with pytest.raises(InvalidDiagramError, match=f"^{re.escape(message)}$"):
        build(c, n_max)


def test_vertex_count_takes_zero_colors():
    assert [vertex_count(n, 0) for n in range(4)] == [1, 1, 1, 1]


@pytest.mark.parametrize("c, n_max", [(1, 1), (2, 2), (3, 4), (4, 1), (2, 10), (1100, 1)])
def test_tower_cap_is_the_vertex_count_of_the_built_tower(c, n_max):
    # The cap reads C(n_max+c+1, c+1) without building: exactly the vertices build makes, so a cap of one fewer refuses.
    vertices = sum(len(level) for level in build(c, n_max).levels)
    assert vertices == sum(vertex_count(n, c) for n in range(n_max + 1)) == math.comb(n_max + c + 1, c + 1)
    require_tower_cap(c, n_max, vertices)
    with pytest.raises(CapExceededError, match=f"^the tower to level {n_max} at c={c} has more than {vertices - 1} vertices$"):
        require_tower_cap(c, n_max, vertices - 1)


def test_tower_cap_counts_every_vertex_to_the_top_level():
    # Levels 0..n at c colors hold C(n+c+1, c+1) vertices: C(3002, 2) = 4,504,501 for the Pascal triangle to 3000.
    assert sum(vertex_count(n, 1) for n in range(11)) == math.comb(12, 2)
    require_tower_cap(1, 3000, 4504501)
    with pytest.raises(CapExceededError, match="the tower to level 3000 at c=1 has more than 4504500 vertices"):
        require_tower_cap(1, 3000, 4504500)
