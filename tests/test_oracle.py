"""Differential tests against the benchmark's oracle, which shares no code with the engine.

Each test builds its inputs as plain edge tuples, hands them to the engine
and to ``perfbench/oracle.py`` separately, and compares the results.
"""

import importlib.util
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planar_rook.algebra import AlgebraElement, embed
from planar_rook.bratteli import build
from planar_rook.diagrams import Diagram, format_diagram, multiply, parse_diagram
from planar_rook.representations import (
    IrrepLabel,
    action_trace,
    character,
    character_table,
    label_module,
    restriction_decomposition,
)

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

# Halves and quarters catch a coefficient path that rounds to integers.
COEFFICIENTS = st.sampled_from([Fraction(1, 2), Fraction(-3, 4)]) | st.fractions(-5, 5, max_denominator=4)


@st.composite
def planar_pair(draw, max_n: int = 7, max_c: int = 4):
    """(n, c, upper, lower): two random planar edge tuples of one shape."""
    n, c = draw(st.integers(0, max_n)), draw(st.integers(1, max_c))
    rng = draw(st.randoms(use_true_random=False))
    return n, c, oracle.random_planar(rng, n, c), oracle.random_planar(rng, n, c)


@st.composite
def combination_pair(draw, max_n: int = 4, max_c: int = 3):
    """(n, c, left, right): two lists of (edges, coefficient) terms of one shape."""
    n, c = draw(st.integers(0, max_n)), draw(st.integers(1, max_c))
    rng = draw(st.randoms(use_true_random=False))
    left, right = (draw(st.lists(COEFFICIENTS, max_size=4)) for _ in range(2))
    return n, c, *([(oracle.random_planar(rng, n, c), q) for q in side] for side in (left, right))


def _engine(n: int, c: int, terms: list) -> AlgebraElement:
    out: dict = {}
    for edges, q in terms:
        d = Diagram(n, c, edges)
        out[d] = out.get(d, 0) + q
    return AlgebraElement(n, c, out)


def _oracle(terms: list) -> dict:
    out: dict = {}
    for edges, q in terms:
        out[edges] = out.get(edges, Fraction(0)) + q
    return {edges: q for edges, q in out.items() if q}


def _edges(g: AlgebraElement) -> dict:
    return {d.edges: q for d, q in g.terms.items()}


HALF_TIMES_THREE_QUARTERS = (2, 1, [(((1, 1, 1),), Fraction(1, 2))], [((), Fraction(-3, 4))])


@settings(max_examples=200, deadline=None)
@given(planar_pair())
def test_multiply_matches_path_composition(case):
    n, c, upper, lower = case
    assert multiply(Diagram(n, c, upper), Diagram(n, c, lower)).edges == oracle.compose(upper, lower)


@settings(max_examples=100, deadline=None)
@given(planar_pair())
def test_literals_match_the_grammar(case):
    n, c, edges, _ = case
    text = oracle.literal(n, c, edges)
    assert format_diagram(Diagram(n, c, edges)) == text
    assert parse_diagram(text).edges == edges
    assert oracle.parse_literal(format_diagram(parse_diagram(text))) == edges


@settings(max_examples=60, deadline=None)
@given(combination_pair())
@example(HALF_TIMES_THREE_QUARTERS)
def test_element_products_match_the_bilinear_expansion(case):
    n, c, left, right = case
    assert _edges(_engine(n, c, left) * _engine(n, c, right)) == oracle.bilinear(_oracle(left), _oracle(right))


@settings(max_examples=60, deadline=None)
@given(combination_pair(max_n=3))
@example(HALF_TIMES_THREE_QUARTERS)
def test_embed_matches_the_appended_column(case):
    n, c, terms, _ = case
    assert _edges(embed(_engine(n, c, terms))) == oracle.embed(n, c, _oracle(terms))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_characters_and_restrictions_match_the_closed_forms(data):
    n, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    sizes = data.draw(st.sampled_from(oracle.compositions(n, c + 1)))
    edges = oracle.random_planar(data.draw(st.randoms(use_true_random=False)), n, c)
    label, d = IrrepLabel(sizes), Diagram(n, c, edges)
    space = label_module(label)
    assert character(d, label) == action_trace(d, space) == oracle.character(c, edges, sizes)
    assert [child.sizes for child in restriction_decomposition(space)] == oracle.restriction(sizes)


@pytest.mark.parametrize("n, c", [(n, c) for n in range(7) for c in range(1, 4)] + [(7, 3)])
def test_character_table_matches_the_closed_form_cell_by_cell(n, c):
    # Every cell, the zeros the table never evaluates included, against the oracle on the row's vertical edges.
    rows, labels, values = character_table(n, c)
    assert sorted(rows) == sorted(row for total in range(n + 1) for row in oracle.compositions(total, c))
    assert sorted(label.sizes for label in labels) == sorted(oracle.compositions(n, c + 1))
    for row, row_values in zip(rows, values):
        ends = (0, *accumulate(row))  # color k's vertical edges on consecutive vertices
        edges = tuple((v, v, k) for k, (a, b) in enumerate(zip(ends, ends[1:]), 1) for v in range(a + 1, b + 1))
        assert row_values == [oracle.character(c, edges, label.sizes) for label in labels]


@pytest.mark.parametrize("c", range(1, 5))
def test_tower_edges_match_the_restriction_rule(c):
    graph = build(c, 6)
    assert list(graph.edges) == sorted(graph.edges)
    for n in range(1, 7):
        for i, label in enumerate(graph.levels[n]):
            children = [graph.levels[n - 1][j].sizes for j in graph.children_of(n, i)]
            assert sorted(children) == sorted(oracle.restriction(label.sizes))
