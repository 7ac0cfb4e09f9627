"""Acceptance suite: one test per criterion, each at its full stated scope.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every comparison is exact.
"""

import math

from planar_rook.bratteli import build, vertex_count
from planar_rook.checks import (
    check_character,
    check_identity_unit,
    check_irreducibility,
    check_isomorphism_classification,
    check_left_action,
    check_matrix_algebra,
    check_restriction,
    check_right_action,
    check_tower_degrees,
    check_tower_recursion,
)
from planar_rook.cli import main
from planar_rook.diagrams import (
    cardinality,
    compositions,
    enumerate_planar,
    from_matrix,
    is_planar,
    multiply,
    to_matrix,
)
from planar_rook.representations import regular_decomposition

SEED = 20240810


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_acceptance_01_cardinality_matches_enumeration():
    for c in (1, 2, 3):
        for n in range(6):
            count = sum(1 for _ in enumerate_planar(n, c))
            assert count == cardinality(n, c), (n, c)
    _announce(1, "cardinality vs enumeration, n <= 5, c <= 3")


def test_acceptance_02_two_color_worked_example():
    d1 = from_matrix(2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    d2 = from_matrix(2, [[0, 1, 0], [0, 0, 0], [2, 0, 0]])
    product = multiply(d1, d2)
    assert to_matrix(product) == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert not is_planar(d1)
    assert is_planar(d2)
    assert is_planar(product)
    _announce(2, "three-vertex worked example")


def test_acceptance_03_identity_is_two_sided_unit():
    outcome = check_identity_unit((4, 3))
    assert outcome.ok, outcome.witnesses
    _announce(3, "unit element on all diagrams, n <= 4, c <= 3")


def test_acceptance_04_action_fast_paths_match_expansion():
    left = check_left_action((2, 2), (3, 2), samples=10_000, seed=SEED)
    assert left.ok, left.witnesses
    right = check_right_action((2, 2), (3, 2), samples=10_000, seed=SEED + 1)
    assert right.ok, right.witnesses
    _announce(4, "x-action oracles, exhaustive and 10^4 samples")


def _multinomial_by_factorials(sizes):
    out = math.factorial(sum(sizes))
    for s in sizes:
        out //= math.factorial(s)
    return out


def test_acceptance_05_matrix_units_and_dimension_count():
    blocks = check_matrix_algebra((2, 2))
    assert blocks.ok, blocks.witnesses
    for c in range(1, 5):
        for n in range(9):
            by_factorials = sum(
                _multinomial_by_factorials(sizes) ** 2 for sizes in compositions(n, c)
            )
            assert by_factorials == cardinality(n, c)
            decomposition = regular_decomposition(n, c)
            assert sum(m * label.dimension() for label, m in decomposition) == by_factorials
    _announce(5, "matrix-unit tables and squared-multinomial counts")


def test_acceptance_06_irreducibility_and_classification():
    irreducible = check_irreducibility((3, 2))
    assert irreducible.ok, irreducible.witnesses
    classified = check_isomorphism_classification((3, 2))
    assert classified.ok, classified.witnesses
    _announce(6, "irreducibility and isomorphism classification, n <= 3, c <= 2")


def test_acceptance_07_characters():
    one_color = check_character((4, 1))
    assert one_color.ok, one_color.witnesses
    two_colors = check_character((3, 2))
    assert two_colors.ok, two_colors.witnesses
    _announce(7, "characters: closed form vs trace, vertical reduction")


def test_acceptance_08_restriction():
    outcome = check_restriction((3, 2))
    assert outcome.ok, outcome.witnesses
    _announce(8, "restriction invariance, intertwiner, block dimensions")


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

VERTEX_TABLE = [
    [1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5],
    [1, 3, 6, 10, 15],
    [1, 4, 10, 20, 35],
    [1, 5, 15, 35, 70],
]


def test_acceptance_09_tower_is_pascals_simplex():
    graph = build(2, 2)
    assert sum(len(level) for level in graph.levels) == 10
    assert len(graph.edges) == 12
    edge_labels = {
        (graph.levels[pn][pi].sizes, graph.levels[cn][ci].sizes)
        for (pn, pi), (cn, ci) in graph.edges
    }
    assert edge_labels == TETRAHEDRON_TOP
    for n, row in enumerate(VERTEX_TABLE):
        for c, expected in enumerate(row):
            assert vertex_count(n, c) == expected
    degrees = check_tower_degrees((6, 4))
    assert degrees.ok, degrees.witnesses
    recursion = check_tower_recursion((12, 4))
    assert recursion.ok, recursion.witnesses
    _announce(9, "tower shape, vertex counts, degrees, recursion")


def test_acceptance_10_byte_identical_outputs(tmp_path):
    def run_twice(argv_tail, suffix):
        payloads = []
        for i in range(2):
            path = tmp_path / f"{suffix}{i}"
            assert main(argv_tail + ["--out", str(path)]) == 0
            payloads.append(path.read_bytes())
        return payloads

    for fmt in ("dot", "json"):
        first, second = run_twice(["bratteli", "-c", "2", "-n", "3", "--format", fmt], fmt)
        assert first == second
    first, second = run_twice(["chartable", "-n", "3", "-c", "2"], "csv")
    assert first == second
    _announce(10, "deterministic byte-identical outputs")
