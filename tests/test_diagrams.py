import inspect
import math
import os
import random
import re
import subprocess
import sys
from itertools import combinations, permutations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planar_rook import diagrams
from planar_rook.algebra import AlgebraElement, subdiagrams
from planar_rook.diagrams import (
    CapExceededError,
    Diagram,
    InvalidDiagramError,
    MismatchError,
    NonPlanarError,
    ParseError,
    Profile,
    bottom_profile,
    cardinality,
    compositions,
    diagram_sort_key,
    enumerate_literals,
    enumerate_planar,
    format_diagram,
    format_matrix,
    from_matrix,
    from_profiles,
    is_planar,
    multinomial,
    multiply,
    parse_diagram,
    profiles_with_sizes,
    tensor,
    to_matrix,
    top_profile,
    vertical_color_counts,
    vertical_diagram,
    vertical_subdiagram,
)

from conftest import diagrams_st, pool

# Worked example with two colors on three vertices: the first factor has a
# same-color crossing, the second does not, and their product is one edge.
D1 = from_matrix(2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
D2 = from_matrix(2, [[0, 1, 0], [0, 0, 0], [2, 0, 0]])


def test_constructor_accepts_four_vertex_example():
    d = Diagram(4, 2, [(1, 2, 1), (2, 3, 2), (4, 1, 1)])
    assert d.edges == ((1, 2, 1), (2, 3, 2), (4, 1, 1))
    assert d.size == 3


def test_constructor_empty_diagram():
    d = Diagram(3, 1, [])
    assert d.edges == ()
    assert d.size == 0


@pytest.mark.parametrize(
    "edges, reason",
    [
        ([(1, 1, 1), (1, 2, 2)], "duplicate-top"),
        ([(1, 1, 1), (2, 1, 2)], "duplicate-bottom"),
        ([(0, 1, 1)], "vertex-range"),
        ([(1, 3, 1)], "vertex-range"),
        ([(1, 1, 3)], "color-range"),
        ([(1, 1, 0)], "color-range"),
        ([(1.5, 1, 1)], "vertex-range"),
        ([(True, 1, 1)], "vertex-range"),
        ([(1, 1.0, 1)], "vertex-range"),
        ([(1, 1, 1.0)], "color-range"),
        ([(1, 1, True)], "color-range"),
    ],
)
def test_constructor_rejections(edges, reason):
    with pytest.raises(InvalidDiagramError) as excinfo:
        Diagram(2, 2, edges)
    assert excinfo.value.reason == reason


@pytest.mark.parametrize(
    "n, c, reason",
    [(2.0, 1, "vertex-range"), (True, 1, "vertex-range"), (2, 1.0, "color-range"), (2, True, "color-range")],
)
def test_constructor_rejects_non_int_shape(n, c, reason):
    with pytest.raises(InvalidDiagramError) as excinfo:
        Diagram(n, c, [])
    assert excinfo.value.reason == reason


RECORDS = [Diagram(2, 1, [(1, 2, 1)]), Profile(2, 1, [(1,), (2,)])]


@pytest.mark.parametrize("record", RECORDS, ids=["diagram", "profile"])
@pytest.mark.parametrize(
    "op",
    [
        lambda r: r + (1,),
        lambda r: (1,) + r,
        lambda r: r + r,
        lambda r: 2 * r,
        lambda r: r < r,
        lambda r: r <= (1,),
        lambda r: (9,) > r,
        lambda r: r >= r,
    ],
    ids=["add", "radd", "add-self", "rmul", "lt", "le-tuple", "gt-reflected", "ge"],
)
def test_records_refuse_tuple_arithmetic_and_order(op, record):
    with pytest.raises(TypeError):
        op(record)


def test_a_profile_refuses_repetition():
    with pytest.raises(TypeError):
        RECORDS[1] * 2


def test_records_are_their_field_tuples():
    d, p = RECORDS
    assert hash(d) == hash((d.n, d.c, d.edges)) and d == (2, 1, ((1, 2, 1),))
    assert hash(p) == hash((p.n, p.c, p.parts)) and p == (2, 1, ((1,), (2,)))
    assert len(d) == 3 and tuple(d) == (d.n, d.c, d.edges)
    assert Diagram(n=2, c=1, edges=[(1, 2, 1)]) == Diagram._trusted(2, 1, ((1, 2, 1),)) == d


def test_replacing_a_field_validates():
    d, p = RECORDS
    assert d._replace(edges=[(2, 1, 1), (1, 2, 1)]).edges == ((1, 2, 1), (2, 1, 1))
    with pytest.raises(InvalidDiagramError):
        d._replace(edges=[(1, 1, 9)])
    with pytest.raises(ValueError):
        p._replace(parts=[(1,), (1,)])


def test_set_order_of_a_pool_is_pinned():
    # Sets and dicts order diagrams by the hash of (n, c, edges); this order is the frozen dataclass's too.
    assert [format_diagram(d) for d in set(pool(2, 1))] == [
        "n=2 c=1 []",
        "n=2 c=1 [1-1:1]",
        "n=2 c=1 [1-1:1, 2-2:1]",
        "n=2 c=1 [2-2:1]",
        "n=2 c=1 [1-2:1]",
        "n=2 c=1 [2-1:1]",
    ]


@pytest.mark.parametrize(
    "record",
    [*RECORDS, Diagram._trusted(1, 1, ()), Profile._trusted(1, 1, ((1,), ())), multiply(D1, D2)],
    ids=["diagram", "profile", "trusted-diagram", "trusted-profile", "product"],
)
def test_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.n = 3


def test_record_constructors_validate_keyword_calls_too():
    with pytest.raises(InvalidDiagramError):
        Diagram(n=2, c=1, edges=[(1.5, 1, 1)])
    with pytest.raises(ValueError):
        Profile(n=2, c=1, parts=[(1.5,), (2,)])


@st.composite
def rook_edge_lists(draw, min_size: int = 0, max_n: int = 6, max_c: int = 3):
    """(n, c, edges): a rook edge list in random order, planar or not."""
    n, c = draw(st.integers(max(1, min_size), max_n)), draw(st.integers(1, max_c))
    tops, bottoms = (draw(st.permutations(range(1, n + 1))) for _ in range(2))
    size = draw(st.integers(min_size, n))
    return n, c, [(t, b, draw(st.integers(1, c))) for t, b in zip(tops[:size], bottoms[:size])]


NON_INTS = st.sampled_from([1.0, 2.5, True, False, "1"])


@st.composite
def faulty_edge_lists(draw):
    """(n, c, edges, reason): a rook edge list with one injected fault, and the reason it must raise."""
    n, c, edges = draw(rook_edge_lists())
    fault = draw(st.sampled_from(["vertex-range", "color-range", "edge-shape", "duplicate-top", "duplicate-bottom"]))
    t, b, k = draw(st.integers(1, n)), draw(st.integers(1, n)), draw(st.integers(1, c))
    if fault.startswith("duplicate"):  # repeat a vertex of an earlier edge, at the end
        assume(edges)
        source = draw(st.sampled_from(edges))
        if fault == "duplicate-top":
            return n, c, edges + [(source[0], b, k)], fault
        free = sorted(set(range(1, n + 1)) - {e[0] for e in edges})
        assume(free)
        return n, c, edges + [(draw(st.sampled_from(free)), source[1], k)], fault
    if fault == "vertex-range":
        bad = draw(NON_INTS | st.sampled_from([0, -1, n + 1]))
        edge = draw(st.sampled_from([(bad, b, k), (t, bad, k)]))
    elif fault == "color-range":
        edge = (t, b, draw(NON_INTS | st.sampled_from([0, -1, c + 1])))
    else:
        edge = draw(st.sampled_from([(t, b), (t, b, k, k), None, t]))
    edges.insert(draw(st.integers(0, len(edges))), edge)  # every edge before it is valid
    return n, c, edges, fault


@st.composite
def crossing_edge_lists(draw):
    """(n, c, edges): a rook edge list in which two edges of one color cross."""
    n, c, edges = draw(rook_edge_lists(min_size=2))
    i, j = draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2, unique=True))
    (t1, b1, _), (t2, b2, _) = sorted([edges[i], edges[j]])
    k = draw(st.integers(1, c))
    edges[i], edges[j] = (t1, max(b1, b2), k), (t2, min(b1, b2), k)
    return n, c, edges


@settings(max_examples=60, deadline=None)
@given(rook_edge_lists())
def test_fuzzed_edge_lists_are_stored_whole(case):
    n, c, edges = case
    assert Diagram(n, c, edges).edges == tuple(sorted(edges))


@settings(max_examples=120, deadline=None)
@given(faulty_edge_lists())
def test_fuzzed_faults_raise_their_reason(case):
    n, c, edges, reason = case
    with pytest.raises(InvalidDiagramError) as excinfo:
        Diagram(n, c, edges)
    assert excinfo.value.reason == reason


@settings(max_examples=40, deadline=None)
@given(crossing_edge_lists())
def test_fuzzed_same_color_crossings_are_accepted_but_not_planar(case):
    n, c, edges = case
    d = Diagram(n, c, edges)
    assert d.edges == tuple(sorted(edges))
    assert not is_planar(d)
    with pytest.raises(NonPlanarError):
        AlgebraElement(n, c, {d: 1})


def test_width_zero_permits_only_empty():
    assert Diagram(0, 3, []).size == 0
    with pytest.raises(InvalidDiagramError):
        Diagram(0, 3, [(1, 1, 1)])


def test_edges_stored_sorted_by_top():
    d = Diagram(3, 2, [(3, 1, 2), (1, 3, 1)])
    assert d.edges == ((1, 3, 1), (3, 1, 2))
    assert d == Diagram(3, 2, [(1, 3, 1), (3, 1, 2)])


def test_planarity_of_worked_example():
    assert not is_planar(D1)  # two solid edges cross
    assert is_planar(D2)
    assert is_planar(multiply(D1, D2))


def test_single_edge_per_color_is_planar():
    # crossing edges of different colors are allowed
    assert is_planar(Diagram(2, 2, [(1, 2, 1), (2, 1, 2)]))
    assert not is_planar(Diagram(2, 1, [(1, 2, 1), (2, 1, 1)]))


def test_product_of_worked_example():
    assert multiply(D1, D2) == Diagram(3, 2, [(1, 2, 1)])


def test_multiplying_by_empty_annihilates():
    empty = Diagram(3, 2, [])
    for d in pool(3, 2):
        assert multiply(d, empty) == empty
        assert multiply(empty, d) == empty


def test_nonplanar_operands_may_have_nonplanar_products():
    crossed = Diagram(2, 1, [(1, 2, 1), (2, 1, 1)])
    straight = Diagram(2, 1, [(1, 1, 1), (2, 2, 1)])
    assert multiply(crossed, straight) == crossed
    assert multiply(straight, crossed) == crossed
    assert multiply(crossed, crossed) == straight


def test_multiply_shape_mismatch():
    with pytest.raises(MismatchError):
        multiply(Diagram(2, 1, []), Diagram(3, 1, []))
    with pytest.raises(MismatchError):
        multiply(Diagram(2, 1, []), Diagram(2, 2, []))


def test_size_monotonicity_exhaustive():
    for a in pool(3, 2):
        for b in pool(3, 2):
            assert multiply(a, b).size <= min(a.size, b.size)


def test_associativity_exhaustive_small():
    diagrams = pool(2, 2)
    for a in diagrams:
        for b in diagrams:
            ab = multiply(a, b)
            for d in diagrams:
                assert multiply(ab, d) == multiply(a, multiply(b, d))


@settings(max_examples=150, deadline=None)
@given(diagrams_st(4, 3), diagrams_st(4, 3), diagrams_st(4, 3))
def test_associativity_sampled_wide(a, b, d):
    assert multiply(multiply(a, b), d) == multiply(a, multiply(b, d))


FIVE_VERTEX = Diagram(5, 2, [(1, 2, 2), (2, 1, 1), (3, 3, 2), (5, 5, 1)])


def test_profiles_of_five_vertex_example():
    assert top_profile(FIVE_VERTEX).parts == ((4,), (2, 5), (1, 3))
    assert bottom_profile(FIVE_VERTEX).parts == ((4,), (1, 5), (2, 3))


def test_profiles_of_empty_diagram():
    assert top_profile(Diagram(3, 2, [])).parts == ((1, 2, 3), (), ())


def test_row_part_sizes_agree():
    for d in pool(3, 2):
        assert top_profile(d).sizes == bottom_profile(d).sizes


def test_from_profiles_reconstructs_five_vertex_example():
    top = Profile(5, 2, ((4,), (2, 5), (1, 3)))
    bottom = Profile(5, 2, ((4,), (1, 5), (2, 3)))
    assert from_profiles(top, bottom) == FIVE_VERTEX


def test_from_profiles_all_isolated_gives_empty():
    p = Profile(3, 1, ((1, 2, 3), ()))
    assert from_profiles(p, p) == Diagram(3, 1, [])


def test_from_profiles_size_mismatch():
    top = Profile(2, 1, ((2,), (1,)))
    bottom = Profile(2, 1, ((1, 2), ()))
    with pytest.raises(MismatchError):
        from_profiles(top, bottom)


def test_profile_roundtrip_exhaustive():
    for c in (1, 2):
        for n in range(5):
            for d in pool(n, c):
                assert from_profiles(top_profile(d), bottom_profile(d)) == d


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(2, 1, ((1,), (1,)))  # overlap
    with pytest.raises(ValueError):
        Profile(2, 1, ((1,), ()))  # misses vertex 2
    with pytest.raises(ValueError):
        Profile(2, 1, ((1, 2, 3), ()))  # out of range
    with pytest.raises(ValueError):
        Profile(2, 1, ((1.0,), (2,)))  # not an int
    with pytest.raises(ValueError):
        Profile(2, 1, ((True,), (2,)))
    with pytest.raises(ValueError):
        Profile(2.0, 1, ((1,), (2,)))


def test_module_basis_profiles_are_valid():
    for c in (1, 2):
        for n in range(5):
            for sizes in compositions(n, c):
                for p in profiles_with_sizes(n, c, sizes):
                    assert Profile(p.n, p.c, p.parts) == p
                    assert p.sizes == sizes


def _exit_code_under_optimization(script: str) -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env).returncode


def test_invariants_survive_optimized_mode():
    # A corrupt bottom profile, its color part out of order, matches to a crossing: from_profiles must still refuse
    # it under -O.
    script = (
        "from planar_rook import diagrams\n"
        "top = diagrams.Profile(2, 1, ((), (1, 2)))\n"
        "bottom = diagrams.Profile._trusted(2, 1, ((), (2, 1)))\n"
        "try:\n"
        "    diagrams.from_profiles(top, bottom)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert _exit_code_under_optimization(script) == 0


def test_multiply_invariant_survives_optimized_mode():
    # A corrupt operand, its edges out of top order, passes is_planar and composes to a crossing.
    script = (
        "from planar_rook import diagrams\n"
        "straight = diagrams.Diagram(2, 1, ((1, 1, 1), (2, 2, 1)))\n"
        "corrupt = diagrams.Diagram._trusted(2, 1, ((2, 1, 1), (1, 2, 1)))\n"
        "try:\n"
        "    diagrams.multiply(straight, corrupt)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0 if diagrams.is_planar(corrupt) else 2)\n"
        "raise SystemExit(1)\n"
    )
    assert _exit_code_under_optimization(script) == 0


@pytest.mark.parametrize("cancels", [False, True])
def test_element_product_invariant_survives_optimized_mode(cancels):
    # The corrupt term (edges out of top order) passes is_planar; straight columns over it compose to a crossing.
    # When it cancels, two left terms give the crossing key with coefficients 1 and -1: the product is zero,
    # and the pairs must still be tested.
    script = (
        "from planar_rook import diagrams\n"
        "from planar_rook.algebra import AlgebraElement\n"
        "D = diagrams.Diagram\n"
        "corrupt = D._trusted(3, 1, ((2, 1, 1), (1, 2, 1)))\n"
        "two, three = D(3, 1, ((1, 1, 1), (2, 2, 1))), D(3, 1, ((1, 1, 1), (2, 2, 1), (3, 3, 1)))\n"
        f"left = AlgebraElement(3, 1, {{two: 1, three: -1}} if {cancels} else {{two: 1}})\n"
        "lower = {e[0]: e for e in corrupt.edges}\n"
        "keys = {diagrams.compose_edges(d.edges, lower) for d in left.terms}\n"
        "if keys != {(((1, 2, 1), (2, 1, 1)), False)} or not diagrams.is_planar(corrupt):\n"
        "    raise SystemExit(2)\n"
        "try:\n"
        "    left * AlgebraElement(3, 1, {corrupt: 1})\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert _exit_code_under_optimization(script) == 0


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_enumerate_width_one(c):
    assert len(pool(1, c)) == c + 1


def test_enumerate_width_zero():
    assert pool(0, 2) == (Diagram(0, 2, []),)


def test_enumerate_two_by_one():
    assert len(pool(2, 1)) == 6


def test_enumeration_is_deterministic_unique_planar():
    first = list(enumerate_planar(3, 2))
    second = list(enumerate_planar(3, 2))
    assert first == second
    assert len(set(first)) == len(first)
    assert all(is_planar(d) for d in first)
    assert first == sorted(first, key=diagram_sort_key)


def _profile_sort_key(d):
    top, bottom = top_profile(d), bottom_profile(d)
    return (tuple(reversed(top.sizes)), top.parts, bottom.parts)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_sort_key_orders_as_the_profiles_do(c):
    for n in range(6):
        shuffled = list(pool(n, c))
        random.Random(n).shuffle(shuffled)
        assert sorted(shuffled, key=diagram_sort_key) == sorted(shuffled, key=_profile_sort_key) == list(pool(n, c))


def test_sort_key_builds_no_profile(profile_builds):
    key = diagram_sort_key(Diagram(10**6, 1, [(3, 5, 1)]))
    assert key[0] == (1, 10**6 - 1)
    assert profile_builds == []


@pytest.mark.parametrize("call", [lambda: enumerate_planar(-1, 2), lambda: cardinality(-1, 2)])
def test_enumeration_refuses_a_negative_width(call):
    with pytest.raises(ValueError, match="n must be a non-negative int"):
        call()


def test_enumeration_cap_refuses_at_the_call():
    for enumerate_ in (enumerate_planar, enumerate_literals):
        with pytest.raises(CapExceededError, match=r"\|P_\{4,3\}\| = 2716 exceeds the cap of 2715"):
            enumerate_(4, 3, cap=2715)  # no next(): the refusal comes before any diagram exists
        with pytest.raises(CapExceededError, match=r"\|P_\{4,3\}\| >= 256 exceeds the cap of 10"):
            enumerate_(4, 3, cap=10)
        assert sum(1 for _ in enumerate_(4, 3, cap=2716)) == 2716


@pytest.mark.parametrize("c", [1, 2, 3])
def test_literal_stream_is_the_formatted_enumeration(c):
    for n in range(6):
        assert list(enumerate_literals(n, c)) == [format_diagram(d) for d in enumerate_planar(n, c)]


def _corrupt_profiles(walk=diagrams.profiles_with_sizes):
    """A ``profiles_with_sizes`` whose profiles have every part decreasing: same-color edges all cross."""
    def corrupt(n, c, sizes):
        return [diagrams.Profile._trusted(n, c, tuple(x[::-1] for x in p.parts)) for p in walk(n, c, sizes)]
    return corrupt


@pytest.mark.parametrize("stream", ["enumerate_planar", "enumerate_literals"])
def test_every_enumerated_profile_is_checked_for_planarity(monkeypatch, stream):
    # Reversed parts decrease, so the r-th color-k vertex lies right of the (r+1)-th, on the top row and on the
    # bottom row, and their edges cross: one profile list serves as both, so one check per profile sees it.
    monkeypatch.setattr(diagrams, "profiles_with_sizes", _corrupt_profiles())
    with pytest.raises(AssertionError, match="^increasing matchings cannot cross$"):
        list(getattr(diagrams, stream)(2, 1))


def test_enumeration_checks_planarity_per_profile_not_per_diagram(monkeypatch):
    def refuse(d):
        raise AssertionError("tested a built diagram")

    monkeypatch.setattr(diagrams, "is_planar", refuse)
    assert sum(1 for _ in enumerate_planar(4, 3)) == sum(1 for _ in enumerate_literals(4, 3)) == 2716


@pytest.mark.parametrize("stream", ["enumerate_planar", "enumerate_literals"])
def test_enumeration_invariant_survives_optimized_mode(stream):
    script = "from planar_rook import diagrams\n" + inspect.getsource(_corrupt_profiles) + (
        "diagrams.profiles_with_sizes = _corrupt_profiles()\n"
        "try:\n"
        f"    list(diagrams.{stream}(2, 1))\n"
        "except AssertionError as exc:\n"
        "    if 'cannot cross' not in str(exc):\n"
        "        raise SystemExit(2)\n"
        "else:\n"
        "    raise SystemExit(1)\n"
    )
    assert _exit_code_under_optimization(script) == 0


def test_enumeration_cap_refuses_on_the_lower_bound_without_counting(monkeypatch):
    def refuse(n, c):
        raise AssertionError("summed the multinomials")

    monkeypatch.setattr(diagrams, "cardinality", refuse)
    for n in (200, 400, 10**9):  # the bound is 4^min(n, 5) for a cap of 10
        with pytest.raises(CapExceededError, match=rf"^\|P_\{{{n},3\}}\| >= 1024 exceeds the cap of 10$"):
            enumerate_planar(n, 3, cap=10)


def test_cardinality_small_values():
    assert cardinality(2, 1) == 6
    assert cardinality(0, 3) == 1
    assert cardinality(1, 4) == 5


def test_one_color_cardinality_is_the_central_binomial():
    for n in range(61):
        assert cardinality(n, 1) == sum(multinomial(sizes) ** 2 for sizes in compositions(n, 1))


def test_cardinality_matches_enumeration_small():
    for c in (1, 2):
        for n in range(4):
            assert cardinality(n, c) == len(pool(n, c))


def test_compositions_colex_order():
    assert list(compositions(2, 2)) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)
    ]


@pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
def test_compositions_are_every_composition_in_colex_order(c):
    for n in range(7):
        every = [sizes for sizes in product(range(n + 1), repeat=c + 1) if sum(sizes) == n]
        assert list(compositions(n, c)) == sorted(every, key=lambda sizes: sizes[::-1])


@pytest.mark.parametrize("n, c", [(2, -1), (-1, 1), (True, 1), (2, 1.0)])
def test_compositions_refuse_bad_counts(n, c):
    with pytest.raises(ValueError):
        list(compositions(n, c))


def test_multinomial():
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((2, 0, 2)) == 6
    assert multinomial(()) == 1
    with mock.patch.object(math, "comb", wraps=math.comb) as comb:  # a zero part is skipped, not a factor of 1
        assert multinomial((0,) * 2000 + (1,)) == 1
    assert comb.call_count == 1
    for length in range(5):
        for parts in product(range(4), repeat=length):
            expected = math.factorial(sum(parts)) // math.prod(math.factorial(p) for p in parts)
            assert multinomial(parts) == expected, parts


def test_profiles_with_sizes_lex_order():
    parts = [p.parts for p in profiles_with_sizes(2, 1, (1, 1))]
    assert parts == [((1,), (2,)), ((2,), (1,))]


@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_profiles_with_sizes_are_every_profile_in_lex_order(c):
    for n in range(6):
        for sizes in compositions(n, c):
            # Every assignment of the vertices to parts that has these part sizes, as sorted parts.
            every = {tuple(tuple(v for v in range(1, n + 1) if where[v - 1] == k) for k in range(c + 1))
                     for where in product(range(c + 1), repeat=n)}
            every = sorted(parts for parts in every if tuple(map(len, parts)) == sizes)
            assert [p.parts for p in profiles_with_sizes(n, c, sizes)] == every


@pytest.mark.parametrize("n, c, sizes", [(3, 1, (4, -1)), (-1, 1, (0, -1)), (2, 1, (True, 1)), (2, True, (1, 1))])
def test_profiles_with_sizes_refuse_bad_counts(n, c, sizes):
    with pytest.raises(ValueError):
        list(profiles_with_sizes(n, c, sizes))


@pytest.mark.parametrize("n, c, sizes", [(2, 1, (4, -1)), (2, 1, (1, 0)), (2, 1, (True, 1))])
def test_profiles_with_sizes_refuse_at_the_call(n, c, sizes):
    with pytest.raises(ValueError):
        profiles_with_sizes(n, c, sizes)


def _all_rook_diagrams(n, c):
    """Every rook diagram, planar or not, built through the public constructor."""
    for size in range(n + 1):
        for tops in combinations(range(1, n + 1), size):
            for bottoms in permutations(range(1, n + 1), size):
                for colors in product(range(1, c + 1), repeat=size):
                    yield Diagram(n, c, list(zip(tops, bottoms, colors)))


def test_planarity_matches_the_pairwise_crossing_rule():
    for n in range(4):
        for c in (1, 2):
            planar = 0
            for d in _all_rook_diagrams(n, c):
                crossing = any(
                    k1 == k2 and (t1 - t2) * (b1 - b2) < 0
                    for (t1, b1, k1), (t2, b2, k2) in combinations(d.edges, 2)
                )
                assert is_planar(d) is not crossing, d
                planar += not crossing
            assert planar == cardinality(n, c)


def _assert_canonical(r):
    assert r == Diagram(r.n, r.c, r.edges), r  # equal fields: the same sorted tuple of edge tuples


def test_engine_built_diagrams_are_canonical():
    for a in pool(3, 2):
        _assert_canonical(vertical_subdiagram(a))
        _assert_canonical(from_profiles(top_profile(a), bottom_profile(a)))
        for sub in subdiagrams(a):
            _assert_canonical(sub)
        for b in pool(3, 2):
            _assert_canonical(multiply(a, b))
    for a in pool(2, 2):
        for b in pool(2, 2):
            _assert_canonical(tensor(a, b))


def test_matching_refuses_colorless_profiles():
    p = Profile(1, 0, ((1,),))  # a Profile may have c = 0, a Diagram may not
    with pytest.raises(InvalidDiagramError) as info:
        from_profiles(p, p)
    assert info.value.reason == "color-range"


def test_tensor_with_width_zero_is_neutral():
    empty0 = Diagram(0, 2, [])
    for d in pool(2, 2):
        assert tensor(d, empty0) == d
        assert tensor(empty0, d) == d


def test_tensor_single_edges():
    i1 = Diagram(1, 1, [(1, 1, 1)])
    i0 = Diagram(1, 1, [])
    assert tensor(i1, i0) == Diagram(2, 1, [(1, 1, 1)])


def test_tensor_planarity_exhaustive():
    for a in pool(2, 2):
        for b in pool(2, 2):
            assert is_planar(tensor(a, b)) == (is_planar(a) and is_planar(b))


def test_tensor_color_mismatch():
    with pytest.raises(MismatchError):
        tensor(Diagram(1, 1, []), Diagram(1, 2, []))


def test_vertical_subdiagram():
    ident = Diagram(2, 1, [(1, 1, 1), (2, 2, 1)])
    assert vertical_subdiagram(ident) == ident
    assert vertical_subdiagram(Diagram(2, 1, [(1, 2, 1)])) == Diagram(2, 1, [])
    assert vertical_subdiagram(FIVE_VERTEX) == Diagram(5, 2, [(3, 3, 2), (5, 5, 1)])


@pytest.mark.parametrize("n, counts", [(3, (-1, 2)), (-1, ()), (3, (False, 1)), (3, (1.0,)), (3.0, (1,))])
def test_vertical_diagram_refuses_bad_counts(n, counts):
    with pytest.raises(ValueError):
        vertical_diagram(n, counts)


def test_vertical_color_counts():
    assert vertical_color_counts(FIVE_VERTEX) == (1, 1)
    assert vertical_color_counts(Diagram(2, 2, [])) == (0, 0)


def test_parse_format_roundtrip_literal():
    text = "n=3 c=2 [1-2:1, 3-1:2]"
    assert format_diagram(parse_diagram(text)) == text
    assert parse_diagram("n=3c=2[1-2:1,3-1:2]") == parse_diagram(text)
    assert parse_diagram("  n = 3  c = 2  [ 1 - 2 : 1 ]".replace(" = ", "=")) == parse_diagram(
        "n=3 c=2 [1-2:1]"
    )


def test_parse_empty_diagram():
    assert parse_diagram("n=3 c=2 []") == Diagram(3, 2, [])


@settings(max_examples=200, deadline=None)
@given(diagrams_st(3, 2))
def test_parse_inverts_format(d):
    assert parse_diagram(format_diagram(d)) == d


@pytest.mark.parametrize(
    "text",
    ["", "n=", "n=3 c=", "n=3 c=2", "n=3 c=2 [1-2]", "n=3 c=2 [1-2:1", "n=3 c=2 [] trailing"],
)
def test_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as excinfo:
        parse_diagram(text)
    assert 0 <= excinfo.value.position <= len(text)


@pytest.mark.parametrize(
    "text, message, position",
    [
        pytest.param("", "expected 'n='", 0, id="n=-at-end"),
        pytest.param("n = 3 c=2 []", "expected 'n='", 0, id="n="),
        pytest.param("n=x", "expected an integer", 2, id="n"),
        pytest.param("n=", "expected an integer", 2, id="n-at-end"),
        pytest.param("n=3 x", "expected 'c='", 4, id="c="),
        pytest.param("n=3 c=x", "expected an integer", 6, id="c"),
        pytest.param("n=3 c=", "expected an integer", 6, id="c-at-end"),
        pytest.param("n=3 c=2 x", "expected '['", 8, id="["),
        pytest.param("n=3 c=2", "expected '['", 7, id="[-at-end"),
        pytest.param("n=3 c=2\u200b[]", "expected '['", 7, id="[-after-zero-width-space"),
        pytest.param("n=3 c=2 [x", "expected an integer", 9, id="top"),
        pytest.param("n=3 c=2 [", "expected an integer", 9, id="top-at-end"),
        pytest.param("n=3 c=2 [1x", "expected '-'", 10, id="-"),
        pytest.param("n=3 c=2 [1-x", "expected an integer", 11, id="bottom"),
        pytest.param("n=3 c=2 [1-2x", "expected ':'", 12, id=":"),
        pytest.param("n=3 c=2 [1-2", "expected ':'", 12, id=":-at-end"),
        pytest.param("n=3 c=2 [1-2:x", "expected an integer", 13, id="color"),
        pytest.param("n=3 c=2 [1-2:1x", "expected ','", 14, id=","),
        pytest.param("n=3 c=2 [1-2:1 3-1:2]", "expected ','", 15, id=",-before-an-edge"),
        pytest.param("n=3 c=2 [1-2:1", "expected ','", 14, id=",-at-end"),
        pytest.param("n=3 c=2 [1-2:1, x", "expected an integer", 16, id="next-top"),
        pytest.param("n=3 c=2 [1-2:1,]", "expected an integer", 15, id="next-top-before-]"),
        pytest.param("n=3 c=2 [1-2:1,  ", "expected an integer", 17, id="next-top-at-end"),
        pytest.param("n=3 c=2 [] trailing", "unexpected trailing input 'trailing'", 11, id="trailing"),
        pytest.param("n=3 c=2 [1-2:1]]", "unexpected trailing input ']'", 15, id="trailing-]"),
        pytest.param("n=\u00b22 c=1 []", "expected an integer", 2, id="superscript-two"),
        pytest.param("n=3 c=2 [1-\u0663:1]", "expected an integer", 11, id="arabic-indic-three"),
        pytest.param("n=3 c=\uff12 []", "expected an integer", 6, id="fullwidth-two"),
        pytest.param("\u3000n=3\u3000c=\u3000", "expected an integer", 8, id="ideographic-space-at-end"),
        pytest.param("n=3\u3000c=2 [\u30001-2:\u3000x]", "expected an integer", 15, id="ideographic-space-color"),
        pytest.param("n=3 c=2 []\u3000x ", "unexpected trailing input 'x '", 11, id="ideographic-space-trailing"),
        pytest.param("n=2 c=1 [1-" + "2" * 4301 + ":1]", "integer of 4301 digits is too long", 11, id="bottom-too-long"),
    ],
)
def test_parse_errors_name_the_grammar_position(text, message, position):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # int's default
    try:
        assert _outcome(text) == (ParseError, f"{message} (at position {position})", position)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", ["n=\u00b22 c=1 []", "n=\u0663 c=1 []"])
def test_parse_accepts_ascii_digits_only(text):
    # A superscript two and an Arabic-Indic three: both are str.isdigit().
    with pytest.raises(ParseError) as excinfo:
        parse_diagram(text)
    assert excinfo.value.position == 2


def _outcome(text):
    try:
        return parse_diagram(text)
    except ValueError as exc:  # ParseError and InvalidDiagramError
        return type(exc), str(exc), getattr(exc, "position", None)


def _scanned(text):
    """The outcome with every text sent to the scanner: a pattern that never matches."""
    with mock.patch.object(diagrams, "_CANONICAL", re.compile("(?!)")):
        return _outcome(text)


@st.composite
def mutated_literals(draw):
    n, c = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    edges = [list(e) for e in draw(diagrams_st(n, c)).edges]
    for _ in range(draw(st.integers(0, 2))):  # edge mutations: unsorted, duplicate, out of range
        kind = draw(st.sampled_from(["shuffle", "duplicate", "range"]))
        if kind == "shuffle":
            edges = draw(st.permutations(edges))
        elif kind == "duplicate" and edges:
            edges.append(list(draw(st.sampled_from(edges))))
        elif edges:
            draw(st.sampled_from(edges))[draw(st.integers(0, 2))] = draw(st.sampled_from([0, n + 1, c + 1, 99]))
    text = f"n={n} c={c} [{', '.join(f'{t}-{b}:{k}' for t, b, k in edges)}]"
    for _ in range(draw(st.integers(0, 2))):  # text mutations
        kind = draw(st.sampled_from(["space", "digit", "zeros", "truncate"]))
        if kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
            continue
        spots = [i for i, ch in enumerate(text) if (ch == " " if kind == "space" else ch in "0123456789")]
        if spots:
            i = draw(st.sampled_from(spots))
            new = {
                "space": draw(st.sampled_from(["", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000"])),
                "digit": draw(st.sampled_from(["\u00b2", "\u0663", "\uff13"])),
                "zeros": "0" * draw(st.integers(1, 3)) + text[i],
            }[kind]
            text = text[:i] + new + text[i + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_literals())
def test_both_parse_paths_agree_on_mutated_literals(text):
    assert _outcome(text) == _scanned(text)


@pytest.mark.parametrize(
    "text", ["n=3 c=2 []", "n=3 c=2 [1-2:1, 3-1:2]", "n=03 c=2 [1-02:1]", "n=3 c=2 [2-1:1, 1-2:1]"]
)
def test_canonical_literals_take_the_pattern(text):
    with mock.patch.object(diagrams, "_TOKEN", mock.Mock(**{"finditer.side_effect": AssertionError("scanned")})):
        fast = parse_diagram(text)
    assert fast == _scanned(text)


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("n=3  c=2 []", "n=3 c=2 []"),
        ("n=3\tc=2 []", "n=3 c=2 []"),
        ("n=3 c=2[]", "n=3 c=2 []"),
        (" n=3 c=2 []", "n=3 c=2 []"),
        ("n=3 c=2 [1-2:1,3-1:2]", "n=3 c=2 [1-2:1, 3-1:2]"),
        ("n=3 c=2 [1-2:1,\u00a03-1:2]", "n=3 c=2 [1-2:1, 3-1:2]"),
    ],
)
def test_other_spacings_take_the_scanner(text, canonical):
    with mock.patch.object(diagrams, "_TOKEN", mock.Mock(**{"finditer.side_effect": AssertionError("scanned")})):
        with pytest.raises(AssertionError, match="scanned"):
            parse_diagram(text)
    assert parse_diagram(text) == parse_diagram(canonical)


@pytest.mark.parametrize(
    "text, digits, position",
    [
        ("n=" + "1" * 5000 + " c=1 []", 5000, 2),
        ("n=2 c=1 [" + "0" * 4400 + "1-1:1]", 4401, 9),
        ("n=2 c=1 [1-1:1, 2-2:" + "3" * 4301 + "]", 4301, 20),
    ],
    ids=["header", "leading-zeros", "color"],
)
def test_integers_past_the_digit_limit_are_parse_errors(text, digits, position):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # int's default
    try:
        for parse in (_outcome, _scanned):
            assert parse(text) == (
                ParseError, f"integer of {digits} digits is too long (at position {position})", position
            )
    finally:
        sys.set_int_max_str_digits(limit)


def test_operator_sugar():
    assert D1 * D2 == multiply(D1, D2)
    a = Diagram(1, 2, [(1, 1, 2)])
    b = Diagram(2, 2, [(1, 2, 1)])
    assert a @ b == tensor(a, b)
    assert str(a) == "n=1 c=2 [1-1:2]"


def test_matrix_roundtrip():
    for d in pool(2, 2):
        assert from_matrix(2, to_matrix(d)) == d


def test_format_matrix():
    assert format_matrix(multiply(D1, D2)) == "0 u1 0\n0 0 0\n0 0 0"
