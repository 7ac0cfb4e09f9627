"""Refusals of bad arguments: each raises its own exception type with its own message."""

import copy
import pickle
import re
import sys
from fractions import Fraction

import pytest

from planar_rook import bratteli, diagrams
from planar_rook.algebra import AlgebraElement, from_diagram, left_action_x, right_action_x, x_of
from planar_rook.checks import VerifyConfig, run_verification
from planar_rook.diagrams import (
    CapExceededError,
    Diagram,
    MismatchError,
    NonPlanarError,
    Profile,
    cardinality,
    compositions,
    from_matrix,
    from_profiles,
    is_planar,
    multiply,
    vertical_diagram,
)
from planar_rook.representations import (
    IrrepLabel,
    action_trace,
    all_labels,
    are_isomorphic,
    character,
    character_table_csv,
    diagram_action,
    label_module,
    module_space,
    verify_character_table,
)

CROSSED = Diagram(2, 1, ((1, 2, 1), (2, 1, 1)))  # two color-1 edges that cross
BLANK = Diagram(2, 1, ())


def _wide(c):
    return f"c={c} makes compositions of {c + 1} parts, more than a tuple holds"


def _verify(**setting):
    return run_verification(VerifyConfig(**{"n_cap": 2, "c_cap": 1, "samples": 3, **setting}))


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
    pytest.param(lambda: AlgebraElement(2, 1, {(2, 1, ()): 1}), TypeError,
                 "a term must be a Diagram, not (2, 1, ())", id="element-term-type"),
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
    pytest.param(lambda: Profile(0, -1, ()), ValueError, "expected a non-negative int, got -1", id="profile-c"),
    pytest.param(lambda: Profile(-1, 0, ((),)), ValueError, "expected a non-negative int, got -1", id="profile-n"),
    pytest.param(lambda: from_profiles(Profile(1, 1, ((1,), ())), Profile(1, 2, ((1,), (), ()))), MismatchError,
                 "profiles have different (n, c)", id="from-profiles-shape"),
    pytest.param(lambda: from_matrix(1, [[0, 1], [0]]), ValueError, "matrix must be square", id="from-matrix-square"),
    pytest.param(lambda: bratteli.vertex_count(-1, 2), ValueError, "need n >= 0 and c >= 0", id="vertex-count-n"),
    pytest.param(lambda: bratteli.vertex_count(2, -1), ValueError, "need n >= 0 and c >= 0", id="vertex-count-c"),
    pytest.param(lambda: bratteli.adjacency_count(0, 2, 1), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-n"),
    pytest.param(lambda: bratteli.adjacency_count(2, 2, 0), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-x"),
    # A negative c once counted 0 vertices (c = -1) or raised math.comb's message (c = -5), as vertex_count never did.
    pytest.param(lambda: bratteli.adjacency_count(2, -1, 1), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-c"),
    pytest.param(lambda: bratteli.adjacency_count(2, -5, 1), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-c-below-comb"),
    pytest.param(lambda: bratteli.vertex_count(True, 1), ValueError, "need n >= 0 and c >= 0",
                 id="vertex-count-bool-n"),
    pytest.param(lambda: bratteli.vertex_count(2.0, 1), ValueError, "need n >= 0 and c >= 0",
                 id="vertex-count-float-n"),
    pytest.param(lambda: bratteli.vertex_count(2, True), ValueError, "need n >= 0 and c >= 0",
                 id="vertex-count-bool-c"),
    pytest.param(lambda: bratteli.vertex_count(2, 1.0), ValueError, "need n >= 0 and c >= 0",
                 id="vertex-count-float-c"),
    pytest.param(lambda: bratteli.adjacency_count(True, 1, 1), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-bool-n"),
    pytest.param(lambda: bratteli.adjacency_count(2.0, 1, 1), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-float-n"),
    pytest.param(lambda: bratteli.adjacency_count(2, True, 1), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-bool-c"),
    pytest.param(lambda: bratteli.adjacency_count(2, 1.0, 1), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-float-c"),
    pytest.param(lambda: bratteli.adjacency_count(2, 1, True), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-bool-x"),
    pytest.param(lambda: bratteli.adjacency_count(2, 1, 1.0), ValueError, "need n >= 1, c >= 0 and x >= 1",
                 id="adjacency-count-float-x"),
    # A composition is a tuple of c + 1 ints, so a width of sys.maxsize or more is refused before any is built;
    # the character table builds its labels before its rows (compositions into c parts), so its refusal names c.
    pytest.param(lambda: cardinality(0, 10**20), ValueError, _wide(10**20), id="cardinality-width"),
    pytest.param(lambda: list(compositions(0, 10**20)), ValueError, _wide(10**20), id="compositions-width"),
    pytest.param(lambda: compositions(0, sys.maxsize), ValueError, _wide(sys.maxsize),
                 id="compositions-width-maxsize"),
    pytest.param(lambda: character_table_csv(0, 10**20), ValueError, _wide(10**20),
                 id="character-table-width"),
    pytest.param(lambda: all_labels(0, 10**20), ValueError, _wide(10**20), id="all-labels-width"),
    pytest.param(lambda: bratteli.build(10**20, 0), ValueError, _wide(10**20), id="bratteli-build-width"),
    # The library's character-table verifier applies the CLI's width rule: at n = 0 its basis bound is 1.
    pytest.param(lambda: verify_character_table(0, 2 * 10**6, cap=10), CapExceededError,
                 "c=2000000 gives each row profile 2000001 parts, more than the cap of 10",
                 id="verify-character-table-width"),
    # A cap is an int >= 0, refused by the width rule that every capped entry applies first (bools too), and by
    # run_verification before its samples rule: a float once raised AttributeError, -1 and True were named as caps.
    pytest.param(lambda: diagrams.enumerate_planar(1, 1, cap=2.5), ValueError,
                 "expected a non-negative int, got 2.5", id="enumerate-planar-float-cap"),
    pytest.param(lambda: verify_character_table(1, 1, cap=2.5), ValueError,
                 "expected a non-negative int, got 2.5", id="verify-character-table-float-cap"),
    pytest.param(lambda: bratteli.require_tower_cap(1, 0, 2.5), ValueError,
                 "expected a non-negative int, got 2.5", id="tower-float-cap"),
    pytest.param(lambda: diagrams.enumerate_planar(1, 1, cap=True), ValueError,
                 "expected a non-negative int, got True", id="enumerate-planar-bool-cap"),
    pytest.param(lambda: run_verification(VerifyConfig(diagram_cap=-1, samples=0)), ValueError,
                 "expected a non-negative int, got -1", id="run-verification-negative-cap"),
    # The n-cap, c-cap and sample count are ints, bools refused, by the first rule: a float sample count once faulted
    # the four sampled checks, True ran them, and a float or bool cap was refused by the shape rule as n or c.
    *(pytest.param(lambda name=name, value=value: _verify(**{name: value}), ValueError,
                   "verify needs n-cap >= 0, c-cap >= 1 and --samples >= 0", id=f"run-verification-{name}-{value}")
      for name, value in [("samples", True), ("samples", 2.0), ("n_cap", 1.5), ("n_cap", True), ("c_cap", True),
                          ("c_cap", 2.0)]),
])
def test_a_bad_argument_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is error


# A diagram marked planar by the constructor that built it, and the same mark forged on crossing edges: no route
# from either may hand a crossing diagram to an entry with the mark still on it.
MARKED = from_profiles(Profile(2, 1, ((), (1, 2))), Profile(2, 1, ((), (1, 2))))  # two straight color-1 edges
FORGED = tuple.__new__(diagrams._PlanarDiagram, tuple(CROSSED))


@pytest.mark.parametrize("route", [
    pytest.param(lambda: Diagram(2, 1, CROSSED.edges), id="user-built"),
    pytest.param(lambda: MARKED._replace(edges=CROSSED.edges), id="replace"),
    pytest.param(lambda: MARKED._make(CROSSED), id="make"),
    pytest.param(lambda: type(MARKED)(2, 1, CROSSED.edges), id="construct"),
    pytest.param(lambda: type(MARKED)(n=2, c=1, edges=CROSSED.edges), id="construct-keywords"),
    pytest.param(lambda: type(MARKED)._trusted(2, 1, CROSSED.edges), id="trusted"),
    pytest.param(lambda: multiply(CROSSED, MARKED), id="crossing-product"),
    pytest.param(lambda: copy.copy(FORGED), id="copy"),
    pytest.param(lambda: copy.deepcopy(FORGED), id="deepcopy"),
    *(pytest.param(lambda p=p: pickle.loads(pickle.dumps(FORGED, p)), id=f"pickle-{p}")
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda d: diagram_action(d, label_module(IrrepLabel((1, 1)))), id="diagram-action"),
    pytest.param(lambda d: action_trace(d, label_module(IrrepLabel((1, 1)))), id="action-trace"),
    pytest.param(lambda d: character(d, IrrepLabel((1, 1))), id="character"),
    pytest.param(x_of, id="x-of"),
    pytest.param(lambda d: left_action_x(d, BLANK), id="left-action-x-acting"),
    pytest.param(lambda d: left_action_x(MARKED, d), id="left-action-x-vector"),
    pytest.param(lambda d: right_action_x(BLANK, d), id="right-action-x-acting"),
    pytest.param(lambda d: right_action_x(d, MARKED), id="right-action-x-vector"),
    pytest.param(lambda d: AlgebraElement(2, 1, {d: 1}), id="element"),
])
def test_every_entry_refuses_a_crossing_diagram_on_every_route(route, entry):
    assert type(MARKED) is diagrams._PlanarDiagram  # else the routes below start from no mark
    d = route()
    assert type(d) is Diagram and d == CROSSED and not is_planar(d)
    with pytest.raises(NonPlanarError):
        entry(d)


def test_a_marked_diagram_is_its_plain_diagram_everywhere_it_shows():
    plain = Diagram(*MARKED)
    assert type(MARKED) is not type(plain)
    assert repr(MARKED) == repr(plain) == "Diagram(n=2, c=1, edges=((1, 1, 1), (2, 2, 1)))"
    assert str(MARKED) == str(plain) and hash(MARKED) == hash(plain) and MARKED == plain
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(MARKED, protocol) == pickle.dumps(plain, protocol)
    with pytest.raises(TypeError, match="^a Diagram is a record: it does not concatenate, repeat or order$"):
        MARKED + (1,)
