"""Refusals of bad arguments: each raises its own exception type with its own message."""

import re
from fractions import Fraction

import pytest

from planar_rook import bratteli
from planar_rook.algebra import AlgebraElement, from_diagram, left_action_x, right_action_x
from planar_rook.diagrams import (
    Diagram,
    MismatchError,
    NonPlanarError,
    Profile,
    from_matrix,
    vertical_diagram,
)
from planar_rook.representations import IrrepLabel, are_isomorphic, character, label_module, module_space

CROSSED = Diagram(2, 1, ((1, 2, 1), (2, 1, 1)))  # two color-1 edges that cross
BLANK = Diagram(2, 1, ())


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: character(Diagram(3, 1, ()), IrrepLabel((1, 1))), MismatchError,
                 "diagram shape does not match label (1, 1)", id="character-shape"),
    pytest.param(lambda: character(CROSSED, IrrepLabel((1, 1))), NonPlanarError,
                 "n=2 c=1 [1-2:1, 2-1:1] is not planar", id="character-planarity"),
    pytest.param(lambda: module_space(3, 1, Profile(2, 1, ((1,), (2,)))), MismatchError,
                 "profile does not match (n, c)", id="module-space-shape"),
    pytest.param(lambda: are_isomorphic(label_module(IrrepLabel((1, 1))), label_module(IrrepLabel((1, 0, 1)))),
                 MismatchError, "modules live over different monoids", id="are-isomorphic-monoids"),
    pytest.param(lambda: AlgebraElement(3, 1, {BLANK: Fraction(1)}), MismatchError,
                 "term n=2 c=1 [] does not live in (n=3, c=1)", id="element-term-shape"),
    pytest.param(lambda: from_diagram(BLANK).tensor(from_diagram(Diagram(1, 2, ()))), MismatchError,
                 "color counts differ: 1 vs 2", id="tensor-colors"),
    pytest.param(lambda: left_action_x(Diagram(3, 1, ()), BLANK), MismatchError,
                 "diagrams live in different monoids", id="left-action-shape"),
    pytest.param(lambda: left_action_x(CROSSED, BLANK), NonPlanarError,
                 "x-basis actions are defined for planar diagrams only", id="left-action-planarity"),
    pytest.param(lambda: right_action_x(BLANK, Diagram(2, 2, ())), MismatchError,
                 "diagrams live in different monoids", id="right-action-shape"),
    pytest.param(lambda: right_action_x(BLANK, CROSSED), NonPlanarError,
                 "x-basis actions are defined for planar diagrams only", id="right-action-planarity"),
    pytest.param(lambda: vertical_diagram(2, (2, 1)), ValueError,
                 "3 vertical edges do not fit in n=2", id="vertical-diagram-overfull"),
    pytest.param(lambda: Profile(2, 1, ((1, 2),)), ValueError, "expected 2 parts, got 1", id="profile-parts"),
    pytest.param(lambda: from_matrix(1, [[0, 1], [0]]), ValueError, "matrix must be square", id="from-matrix-square"),
    pytest.param(lambda: bratteli.vertex_count(-1, 2), ValueError, "need n >= 0 and c >= 0", id="vertex-count-n"),
    pytest.param(lambda: bratteli.vertex_count(2, -1), ValueError, "need n >= 0 and c >= 0", id="vertex-count-c"),
    pytest.param(lambda: bratteli.adjacency_count(0, 2, 1), ValueError, "need n >= 1 and x >= 1",
                 id="adjacency-count-n"),
    pytest.param(lambda: bratteli.adjacency_count(2, 2, 0), ValueError, "need n >= 1 and x >= 1",
                 id="adjacency-count-x"),
])
def test_a_bad_argument_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is error
