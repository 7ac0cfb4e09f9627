import hashlib
import math
import random
import re
import sys
from collections import Counter

import pytest

from planar_rook import algebra, diagrams, representations
from planar_rook.algebra import embed, from_diagram, identity, left_action_x
from planar_rook.checks import (
    check_irreducibility,
    check_isomorphism_classification,
    check_matrix_algebra,
    check_regular_decomposition,
    check_restriction,
)
from planar_rook.diagrams import (
    CapExceededError,
    Diagram,
    MismatchError,
    NonPlanarError,
    Profile,
    bottom_profile,
    cardinality,
    compositions,
    format_diagram,
    from_profiles,
    multinomial,
    multiply,
    profiles_with_sizes,
    top_profile,
    vertical_subdiagram,
)
from planar_rook.representations import (
    IrrepLabel,
    ModuleSpace,
    action_trace,
    all_bottom_profiles,
    all_labels,
    are_isomorphic,
    character,
    character_table,
    character_table_csv,
    compose_column_maps,
    diagram_action,
    fixed_points,
    label_module,
    module_space,
    regular_decomposition,
    restriction_decomposition,
    restriction_groups,
    verify_character_table,
    verify_irreducible,
    weighted_columns,
)

from conftest import pool


def test_label_basics():
    label = IrrepLabel((1, 2, 0))
    assert label.n == 3
    assert label.c == 2
    assert label.dimension() == 3
    assert label.encode() == "1|2|0"
    assert label.representative().parts == ((1,), (2, 3), ())


def test_label_takes_any_iterable_of_sizes():
    assert IrrepLabel(iter((1, 1))) == IrrepLabel((1, 1))
    assert type(IrrepLabel([2, 0]).sizes) is tuple


def test_label_rejects_non_int_sizes():
    for sizes in ((1.5, 1), (True, 1), (1, 1.0)):
        with pytest.raises(ValueError):
            IrrepLabel(sizes)


def test_character_table_cap_refuses_without_the_full_power():
    # 4^100000 has 60,206 digits, past Python's int-to-string limit; 4^5 already exceeds a cap of 10.
    with pytest.raises(CapExceededError, match=r"^at least 1024 module basis vectors at \(n=100000, c=3\) exceed"):
        verify_character_table(10**5, 3, cap=10)


def test_character_table_verifier_refuses_a_width_over_its_cap_before_building(monkeypatch):
    # At n = 0 the (c+1)^n basis bound is 1, so only the width rule stops labels of 2,000,001 parts.
    monkeypatch.setattr(representations, "character_table", lambda n, c: pytest.fail("built the table"))
    with pytest.raises(CapExceededError, match=r"^c=2000000 gives each row profile 2000001 parts, more than"):
        verify_character_table(0, 2 * 10**6, cap=10)
    monkeypatch.undo()
    assert verify_character_table(0, 9, cap=10)  # 10 parts fit the cap


def test_module_space_dimension_one():
    space = module_space(1, 1, Profile(1, 1, ((), (1,))))
    assert space.dimension == 1
    assert top_profile(space.basis[0]).parts == ((), (1,))


def test_module_space_dimension_two():
    space = module_space(2, 1, Profile(2, 1, ((2,), (1,))))
    assert space.dimension == math.comb(2, 1)


def test_module_dimensions_are_multinomials():
    for c in (1, 2):
        for n in range(5):
            for profile in all_bottom_profiles(n, c):
                assert module_space(n, c, profile).dimension == multinomial(profile.sizes)


def test_unit_acts_as_identity_matrix():
    for c in (1, 2):
        for n in range(3):
            unit = identity(n, c)
            for profile in all_bottom_profiles(n, c):
                space = module_space(n, c, profile)
                weighted = ((q, diagram_action(d, space)) for d, q in unit.terms.items())
                assert weighted_columns(weighted, space.dimension) == [{j: 1} for j in range(space.dimension)]


def test_action_columns_drop_cancelled_entries():
    # On the module with no edges every diagram acts as the identity, so d - d' acts as zero.
    space = ModuleSpace(Profile(2, 1, ((1, 2), ())))
    for d in pool(2, 1):
        for other in pool(2, 1):
            if d != other:
                weighted = [(1, diagram_action(d, space)), (-1, diagram_action(other, space))]
                assert weighted_columns(weighted, space.dimension) == [{}]


def test_empty_diagram_acts_as_zero_on_colored_modules():
    space = module_space(2, 2, Profile(2, 2, ((2,), (1,), ())))
    assert diagram_action(Diagram(2, 2, []), space) == (None,) * space.dimension


def test_action_is_multiplicative_exhaustive_small():
    for profile in all_bottom_profiles(2, 2):
        space = module_space(2, 2, profile)
        for d1 in pool(2, 2):
            m1 = diagram_action(d1, space)
            for d2 in pool(2, 2):
                assert compose_column_maps(m1, diagram_action(d2, space)) == diagram_action(multiply(d1, d2), space)


def test_composition_sends_zero_to_zero_and_refuses_an_index_outside_the_outer_map():
    assert compose_column_maps((1, None), (None, 0, 1, 0)) == (None, 1, None, 1)
    # Read as zero, an index past the outer map could let a wrong map pass: it raises, as outer[j] did.
    with pytest.raises(KeyError):
        compose_column_maps((0, 1), (2,))


def test_action_rejects_nonplanar():
    space = module_space(2, 1, Profile(2, 1, ((1, 2), ())))
    with pytest.raises(NonPlanarError):
        diagram_action(Diagram(2, 1, [(1, 2, 1), (2, 1, 1)]), space)


def test_action_columns_are_unit_or_zero():
    for profile in all_bottom_profiles(2, 2):
        space = module_space(2, 2, profile)
        for d in pool(2, 2):
            column_map = diagram_action(d, space)
            assert len(column_map) == space.dimension
            assert all(i is None or (type(i) is int and 0 <= i < space.dimension) for i in column_map)


def test_irreducibility_of_all_small_modules():
    for c in (1, 2):
        for n in range(3):
            for profile in all_bottom_profiles(n, c):
                assert verify_irreducible(module_space(n, c, profile))


def test_fixed_size_span_is_reducible():
    for n, expected_failures in ((2, 48), (3, 270)):
        span = [d for d in pool(n, 2) if d.size == 1]
        # Exhaustive search over the monoid fails exactly on pairs with
        # different bottom profiles.
        unreachable = [
            (a, b)
            for a in span
            for b in span
            if not any(left_action_x(d, a) == b for d in pool(n, 2))
        ]
        assert unreachable == [(a, b) for a in span for b in span if bottom_profile(a) != bottom_profile(b)]
        assert len(unreachable) == expected_failures


def test_homogeneous_irreducibility_ignores_the_monoid_cap(monkeypatch):
    # The constructive branch builds projectors and transporters from
    # profiles; it never enumerates |P_{4,2}| = 639 diagrams.
    def refuse(n, c):
        raise CapExceededError(f"the homogeneous branch enumerated P_{{{n},{c}}}")

    monkeypatch.setattr(diagrams, "_enumerate_planar", refuse)
    outcome = verify_irreducible(label_module(IrrepLabel((2, 1, 1))))
    assert outcome.ok
    assert outcome.checked == 12 + 12 * 12


def test_homogeneous_irreducibility_builds_one_column_map_per_basis_vector(monkeypatch):
    # Only the 12 projectors need whole columns; each of the 144 transporters
    # is checked on the one vector it must move.
    real = representations.diagram_action
    calls = []
    monkeypatch.setattr(representations, "diagram_action", lambda d, space: calls.append(d) or real(d, space))
    outcome = verify_irreducible(label_module(IrrepLabel((2, 1, 1))))
    assert outcome.ok
    assert len(calls) == 12


def test_lonely_full_matching_span_is_irreducible(monkeypatch):
    # With one color the only planar full matching is the identity, so the
    # span of all size-n vectors is one-dimensional and irreducible.
    outcome = check_irreducibility((2, 1))
    assert outcome.ok
    assert outcome.checked == 9
    # With every action zero that span is no longer transitive, and only it is misjudged.
    monkeypatch.setattr(algebra, "left_action_x", lambda d, a: None)
    outcome = check_irreducibility((2, 1))
    assert outcome.witnesses == ["span of all size-2 vectors at (n=2, c=1) has the wrong reducibility"]


def test_module_space_takes_only_a_profile():
    for bottom in (None, (2, 1)):
        with pytest.raises(TypeError):
            ModuleSpace(bottom)
        with pytest.raises(TypeError):
            module_space(2, 1, bottom)


def test_module_space_builds_its_basis_from_the_bottom_profile():
    for c in (1, 2):
        for n in range(5):
            for p in all_bottom_profiles(n, c):
                space = ModuleSpace(p)
                assert space.basis == tuple(from_profiles(s, p) for s in profiles_with_sizes(n, c, p.sizes))
                assert (space.n, space.c) == (p.n, p.c)
                twin = ModuleSpace(Profile(n, c, p.parts))
                assert twin == space
                assert hash(twin) == hash(space)


def test_an_action_leaving_the_basis_is_an_engine_fault():
    # Built without validation, d joins top vertex 1 to both bottom vertices, so it carries the
    # one basis vector of the (0, 2) module, top profile {1, 2}, to {1}: outside the module.
    space = label_module(IrrepLabel((0, 2)))
    d = Diagram._trusted(2, 1, ((1, 1, 1), (1, 2, 1)))
    with pytest.raises(AssertionError, match="leaves the span"):
        diagram_action(d, space)


def _action_by_definition(d, space):
    """The column map read off the diagram-level action ``left_action_x(d, a)`` on each basis diagram."""
    return tuple(None if (image := left_action_x(d, a)) is None else space.index_of(image) for a in space.basis)


def _random_profile(rng, n, sizes):
    colors = [k for k, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(colors)
    parts = tuple(tuple(v for v in range(1, n + 1) if colors[v - 1] == k) for k in range(len(sizes)))
    return Profile(n, len(sizes) - 1, parts)


def test_diagram_action_matches_the_diagram_level_action():
    for n, c in [(n, c) for n in range(5) for c in (1, 2)] + [(3, 3)]:
        spaces = [ModuleSpace(p) for p in all_bottom_profiles(n, c)]
        for d in pool(n, c):
            for space in spaces:
                assert diagram_action(d, space) == _action_by_definition(d, space)
    rng = random.Random(20121)
    spaces = {}  # per class, the module at a random bottom profile: d acts on its own class, so not only as zero
    for _ in range(200):
        sizes = tuple(map(Counter(rng.randrange(4) for _ in range(7)).__getitem__, range(4)))
        d = from_profiles(_random_profile(rng, 7, sizes), _random_profile(rng, 7, sizes))
        if sizes not in spaces:
            spaces[sizes] = ModuleSpace(_random_profile(rng, 7, sizes))
        assert diagram_action(d, spaces[sizes]) == _action_by_definition(d, spaces[sizes])


def test_diagram_action_is_zero_exactly_when_a_color_has_too_few_edges():
    # Both sides of the rule: all None when d has fewer color-k edges than n_k for some k, some column otherwise.
    outcomes = Counter()
    for n, c in [(n, c) for n in range(5) for c in (1, 2)] + [(3, 3)]:
        spaces = [label_module(label) for label in all_labels(n, c)]
        for d in pool(n, c):
            edges = Counter(k for _, _, k in d.edges)
            for space in spaces:
                short = any(edges[k] < len(space.bottom.parts[k]) for k in range(1, c + 1))
                zero = set(diagram_action(d, space)) == {None}
                assert zero == short, (format_diagram(d), space.bottom.sizes)
                outcomes[zero] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("n, c", [(4, 3), (5, 2)])
def test_the_class_projector_holds_exactly_enough_edges_for_both_count_rules(n, c):
    # from_profiles(T, T) has n_k color-k edges, all vertical: trace 1, its own column kept.
    for label in all_labels(n, c):
        space, rep = label_module(label), label.representative()
        projector = from_profiles(rep, rep)
        j = space.index_of(projector)
        assert action_trace(projector, space) == 1
        assert diagram_action(projector, space)[j] == j


@pytest.mark.parametrize("n, c", [(4, 3), (5, 2)])
def test_one_color_edge_short_of_the_class_is_zero_for_both_count_rules(n, c):
    for label in all_labels(n, c):
        space, rep = label_module(label), label.representative()
        projector = from_profiles(rep, rep)
        for edge in projector.edges:  # one color-k edge fewer than n_k, for each color k with n_k >= 1
            d = Diagram(n, c, [e for e in projector.edges if e != edge])
            assert action_trace(d, space) == 0, (format_diagram(d), label)
            assert diagram_action(d, space) == (None,) * space.dimension, (format_diagram(d), label)


@pytest.mark.parametrize("n, c", [(4, 3), (5, 2)])
def test_enough_color_edges_off_the_vertical_act_with_trace_zero(n, c):
    # n_k color-k edges, one of them not vertical: the trace's vertical count falls short, the action's edge
    # count does not, so the action keeps the representative's column (a rule on vertical edges would not).
    built = 0
    for label in all_labels(n, c):
        space, rep = label_module(label), label.representative()
        j = space.index_of(from_profiles(rep, rep))
        for k in range(1, c + 1):
            for other in range(c + 1):
                if not rep.parts[k] or not rep.parts[other] or other == k:
                    continue  # at n_k = n, n planar color-k edges are all vertical: no such diagram
                parts = [list(part) for part in rep.parts]
                parts[k][0], parts[other][0] = parts[other][0], parts[k][0]
                d = from_profiles(Profile(n, c, parts), rep)
                assert sum(1 for e in d.edges if e[2] == k) == label.sizes[k]
                assert any(e[2] == k and e[0] != e[1] for e in d.edges)
                assert action_trace(d, space) == 0, (format_diagram(d), label)
                assert diagram_action(d, space)[j] == space.index_of(d), (format_diagram(d), label)
                built += 1
    assert built > 0


def test_the_representative_is_the_validated_profile():
    for n in range(7):
        for c in (1, 2, 3):
            for label in all_labels(n, c):
                colors = [k for k, size in enumerate(label.sizes) for _ in range(size)]
                parts = [tuple(v for v in range(1, n + 1) if colors[v - 1] == k) for k in range(c + 1)]
                representative = label.representative()
                assert type(representative) is Profile and representative == Profile(n, c, parts)


def test_module_tops_follow_the_profile_order():
    for c in (1, 2, 3):
        for n in range(7):
            for sizes in compositions(n, c):
                packed = tuple(
                    sum(1 << ((k - 1) * n + v - 1) for k in range(1, c + 1) for v in s.parts[k])
                    for s in profiles_with_sizes(n, c, sizes)
                )
                assert ModuleSpace(IrrepLabel(sizes).representative()).tops == packed


def test_module_basis_is_unpacked_from_tops(monkeypatch):
    # basis reads the module's own packed walk, tops, so reading it walks the profiles no second time.
    bottom = Profile(4, 2, ((2,), (1, 4), (3,)))
    expected = tuple(from_profiles(s, bottom) for s in profiles_with_sizes(4, 2, bottom.sizes))
    space = ModuleSpace(bottom)
    for module in (diagrams, representations):
        monkeypatch.setattr(module, "_packed_profiles", lambda *args: pytest.fail("walked the profiles again"))
    assert space.basis == expected


@pytest.fixture
def class_memo():
    """The per-class record memo, empty before and after the test: a warm entry neither hides a fault nor leaks one."""
    representations._class_record.cache_clear()
    yield representations._class_record
    representations._class_record.cache_clear()


def test_modules_of_one_class_share_its_record(class_memo):
    label = IrrepLabel((1, 1, 1))
    first, second = label_module(label), label_module(label)
    assert first is not second
    assert first.tops is second.tops and first._slot is second._slot
    # Another bottom profile with the same sizes shares the packed record, not the diagram view.
    t1, t2 = Profile(3, 2, ((1,), (2,), (3,))), Profile(3, 2, ((3,), (1,), (2,)))
    m1, m2 = ModuleSpace(t1), ModuleSpace(t2)
    assert m1.tops is m2.tops is first.tops and m1._slot is m2._slot is first._slot
    for space, bottom in ((m1, t1), (m2, t2)):
        assert space.basis == tuple(from_profiles(s, bottom) for s in profiles_with_sizes(3, 2, (1, 1, 1)))
        assert [space.index_of(a) for a in space.basis] == list(range(6))
    assert set(m1.basis).isdisjoint(m2.basis)
    with pytest.raises(KeyError):
        m1.index_of(m2.basis[0])
    assert are_isomorphic(m1, m2).intertwiner == Diagram(3, 2, [(2, 1, 1), (3, 2, 2)])
    assert are_isomorphic(m2, m1).intertwiner == Diagram(3, 2, [(1, 2, 1), (2, 3, 2)])


def test_the_class_memo_is_bounded(class_memo):
    maxsize = class_memo.cache_info().maxsize
    assert maxsize is not None and maxsize >= 345
    for label in all_labels(1, 600):  # 601 classes of dimension 1
        label_module(label)
    info = class_memo.cache_info()
    assert info.misses == 601 and info.currsize <= maxsize
    # The modules workload's classes, n 5-7 and c 2-3, fit: a second pass evicts nothing.
    class_memo.cache_clear()
    labels = [label for n in (5, 6, 7) for c in (2, 3) for label in all_labels(n, c)]
    assert len(labels) == 345
    for _ in range(2):
        for label in labels:
            label_module(label)
    info = class_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (345, 345, 345)


def test_a_module_query_proves_planarity_once_per_acting_diagram(monkeypatch):
    # from_profiles checks the diagram it builds and marks it planar; the three queries on it read the mark.
    checked = []
    real = diagrams.is_planar
    for name, module in list(sys.modules.items()):
        if (name == "planar_rook" or name.startswith("planar_rook.")) and vars(module).get("is_planar") is real:
            monkeypatch.setattr(module, "is_planar", lambda d: checked.append(d) or real(d))
    rng = random.Random(7)
    acting = []
    for _ in range(40):
        n, c = rng.randint(1, 5), rng.randint(1, 3)
        label = rng.choice(all_labels(n, c))
        space = label_module(label)
        profiles = list(profiles_with_sizes(n, c, rng.choice(list(compositions(n, c)))))
        for _ in range(3):
            d = from_profiles(rng.choice(profiles), rng.choice(profiles))
            acting.append(d)
            assert fixed_points(diagram_action(d, space)) == action_trace(d, space) == character(d, label)
    assert checked == acting


def test_callers_cannot_corrupt_the_class_memo(class_memo):
    space = label_module(IrrepLabel((1, 1, 1)))
    assert type(space.tops) is tuple
    expected = [(0, [4, 5]), (1, [1, 3]), (2, [0, 2])]
    groups = restriction_groups(space)
    assert groups == expected
    groups[0][1].clear()
    groups[1][1].append(0)
    groups.append((3, [6]))
    assert restriction_groups(space) == expected
    groups.clear()
    assert restriction_groups(label_module(IrrepLabel((1, 1, 1)))) == expected
    children = [IrrepLabel((0, 1, 1)), IrrepLabel((1, 0, 1)), IrrepLabel((1, 1, 0))]
    summands = restriction_decomposition(space)
    assert summands == children
    summands.append(IrrepLabel((2, 0, 0)))
    summands.reverse()
    assert restriction_decomposition(space) == children
    summands.clear()
    assert restriction_decomposition(label_module(IrrepLabel((1, 1, 1)))) == children
    assert class_memo(3, 2, (1, 1, 1))[3] == tuple(children)


def test_the_basis_count_is_checked_when_a_class_is_filled(class_memo, monkeypatch):
    real = representations._packed_profiles
    monkeypatch.setattr(representations, "_packed_profiles", lambda n, c, sizes: real(n, c, sizes)[1:])
    with pytest.raises(AssertionError, match=r"^a module basis has multinomially many vectors$"):
        ModuleSpace(Profile(3, 2, ((1,), (2,), (3,))))
    assert class_memo.cache_info().currsize == 0


def test_the_restriction_groups_are_checked_when_a_class_is_filled(class_memo, monkeypatch):
    # Every color's bit of vertex n read as its color-1 bit: the basis count holds, but vertex n is grouped wrong.
    real = representations._bit
    monkeypatch.setattr(representations, "_bit", lambda n, v, k: real(n, v, 1))
    with pytest.raises(AssertionError, match=r"^a restriction group must span its child class$"):
        label_module(IrrepLabel((1, 1, 2)))
    assert class_memo.cache_info().currsize == 0


def test_refusals_leave_the_class_memo_untouched(class_memo):
    space = module_space(0, 1, Profile(0, 1, ((), ())))
    filled = class_memo.cache_info()
    with pytest.raises(TypeError):
        ModuleSpace((2, 1))
    with pytest.raises(ValueError, match="c must be a positive int"):
        ModuleSpace(Profile(2, 0, ((1, 2),)))
    for restriction in (restriction_groups, restriction_decomposition):
        with pytest.raises(ValueError, match="restriction needs n >= 1"):
            restriction(space)
    assert class_memo.cache_info() == filled


def test_isomorphism_same_module():
    space = module_space(2, 1, Profile(2, 1, ((2,), (1,))))
    result = are_isomorphic(space, space)
    assert result.isomorphic
    assert result.intertwiner == Diagram(2, 1, [(1, 1, 1)])  # identity-shaped on part 1


def test_isomorphism_detects_size_mismatch():
    m1 = module_space(1, 1, Profile(1, 1, ((1,), ())))
    m2 = module_space(1, 1, Profile(1, 1, ((), (1,))))
    result = are_isomorphic(m1, m2)
    assert not result.isomorphic
    assert result.distinguisher is not None


def test_isomorphism_iff_sizes_with_validated_witnesses():
    profiles = list(all_bottom_profiles(2, 2))
    for p1 in profiles:
        for p2 in profiles:
            m1, m2 = module_space(2, 2, p1), module_space(2, 2, p2)
            assert are_isomorphic(m1, m2).isomorphic == (p1.sizes == p2.sizes)
    assert check_isomorphism_classification((2, 2))


def test_regular_decomposition_width_zero():
    assert regular_decomposition(0, 2) == [(IrrepLabel((0, 0, 0)), 1)]


def test_regular_decomposition_two_by_one():
    decomposition = regular_decomposition(2, 1)
    assert decomposition == [
        (IrrepLabel((2, 0)), 1),
        (IrrepLabel((1, 1)), 2),
        (IrrepLabel((0, 2)), 1),
    ]
    assert sum(mult * label.dimension() for label, mult in decomposition) == 6


def _multinomial_by_factorials(sizes):
    out = math.factorial(sum(sizes))
    for s in sizes:
        out //= math.factorial(s)
    return out


def test_squared_multinomials_sum_to_cardinality():
    for c in (1, 2, 3):
        for n in range(6):
            total = sum(
                _multinomial_by_factorials(sizes) ** 2 for sizes in compositions(n, c)
            )
            assert total == cardinality(n, c)


def test_regular_blocks_partition_the_basis():
    assert check_regular_decomposition((3, 2))


def test_matrix_algebra_trivial_label():
    label = IrrepLabel((2, 0, 0))
    assert label.dimension() == 1
    outcome = check_matrix_algebra((label.n, label.c))
    assert outcome.ok, outcome.witnesses


def test_matrix_algebra_two_by_two():
    label = IrrepLabel((1, 1))
    assert label.dimension() == 2
    outcome = check_matrix_algebra((label.n, label.c))
    assert outcome.ok, outcome.witnesses
    assert outcome.checked == 6  # the labels of every shape up to (2, 1)


def test_matrix_algebra_all_labels_small():
    outcome = check_matrix_algebra((2, 2))
    assert outcome.ok, outcome.witnesses
    assert outcome.checked == 16


def test_character_zero_without_verticals():
    d = Diagram(2, 1, [(1, 2, 1)])
    assert character(d, IrrepLabel((1, 1))) == 0


def test_character_of_two_verticals():
    d = Diagram(2, 1, [(1, 1, 1), (2, 2, 1)])
    label = IrrepLabel((1, 1))
    assert character(d, label) == 2
    assert action_trace(d, label_module(label)) == 2


def test_character_matches_trace_and_vertical_drop():
    labels = all_labels(2, 2)
    spaces = [label_module(label) for label in labels]
    for d in pool(2, 2):
        for label, space in zip(labels, spaces):
            assert character(d, label) == action_trace(d, space)
            assert action_trace(vertical_subdiagram(d), space) == action_trace(d, space)


@pytest.mark.parametrize("n, c", [(n, c) for n in range(5) for c in (1, 2)] + [(3, 3)])
def test_action_trace_is_the_fixed_point_count_of_the_action(n, c):
    for label in all_labels(n, c):
        space = label_module(label)
        for d in pool(n, c):
            assert action_trace(d, space) == fixed_points(diagram_action(d, space)), (format_diagram(d), label)


def test_action_trace_refuses_as_the_action_does():
    space = module_space(2, 1, Profile(2, 1, ((1, 2), ())))
    refused = [
        Diagram(2, 1, [(1, 2, 1), (2, 1, 1)]),  # not planar
        Diagram(2, 2, [(1, 1, 2)]),  # another c
        Diagram(3, 1, [(1, 1, 1)]),  # another n
    ]
    for d in refused:
        with pytest.raises((MismatchError, NonPlanarError)) as by_action:
            diagram_action(d, space)
        with pytest.raises(by_action.type, match=f"^{re.escape(str(by_action.value))}$"):
            action_trace(d, space)


def test_character_table_two_by_one():
    rows, labels, values = character_table(2, 1)
    assert rows == [(0,), (1,), (2,)]
    assert [label.sizes for label in labels] == [(2, 0), (1, 1), (0, 2)]
    column = [row[1] for row in values]
    assert column == [0, 1, 2]
    trivial_column = [row[0] for row in values]
    assert trivial_column == [1, 1, 1]


def test_character_table_csv_frozen():
    expected = b"verticals,2|0,1|1,0|2\n0,1,0,0\n1,1,1,0\n2,1,2,1\n"
    assert character_table_csv(2, 1) == expected
    assert character_table_csv(2, 1) == character_table_csv(2, 1)


@pytest.mark.parametrize("n, c, digest", [
    (4, 3, "3aaefa89680dad23e2985c5b66a2d2b2136d12799e14b751563fff3e8d6c4fe9"),
    (7, 3, "eb3a5c733316a69c181dee09bd97133c59ec9040c8420f751d25337a608c4519"),
])
def test_character_table_csv_digest(n, c, digest):
    assert hashlib.sha256(character_table_csv(n, c)).hexdigest() == digest


def test_character_table_builds_no_vertical_diagram(monkeypatch):
    # A row is its own vertical color counts: the table reads them off the row.
    calls = []
    monkeypatch.setattr(representations, "vertical_diagram", lambda n, row: calls.append(row))
    rows, labels, _ = character_table(5, 3)
    assert calls == [] and len(rows) > 1 and len(labels) > 1


def test_character_table_refuses_zero_colors():
    with pytest.raises(ValueError, match="c must be a positive int"):
        character_table_csv(2, 0)


def test_character_table_verifies_by_trace():
    assert verify_character_table(3, 2)
    assert verify_character_table(4, 1)


def test_restriction_of_width_one():
    space = label_module(IrrepLabel((1, 0, 0)))
    assert [label.sizes for label in restriction_decomposition(space)] == [(0, 0, 0)]


def test_restriction_drops_and_orders():
    space = label_module(IrrepLabel((0, 1, 1)))
    assert [label.sizes for label in restriction_decomposition(space)] == [(0, 0, 1), (0, 1, 0)]
    assert space.dimension == 2 == 1 + 1


def test_restriction_dimension_recursion():
    for label in all_labels(3, 2):
        children = restriction_decomposition(label_module(label))
        assert label.dimension() == sum(child.dimension() for child in children)


def test_restriction_verifies_small():
    outcome = check_restriction((2, 2))
    assert outcome.ok, outcome.witnesses
    assert outcome.checked == sum(1 for c in (1, 2) for n in (1, 2) for _ in all_bottom_profiles(n, c))


def test_restriction_adapted_blocks():
    space = label_module(IrrepLabel((1, 1, 1)))
    groups = restriction_groups(space)
    assert sorted(i for _, indices in groups for i in indices) == list(range(space.dimension))
    assert [len(indices) for _, indices in groups] == [2, 2, 2]
    group_of = {i: j for j, indices in groups for i in indices}
    for d in pool(2, 2):
        weighted = ((q, diagram_action(e, space)) for e, q in embed(from_diagram(d)).terms.items())
        for col_index, column in enumerate(weighted_columns(weighted, space.dimension)):
            assert all(group_of[i] == group_of[col_index] for i in column)


def test_restriction_requires_positive_width():
    space = module_space(0, 1, Profile(0, 1, ((), ())))
    with pytest.raises(ValueError):
        restriction_decomposition(space)


def test_last_edge_and_profiles_match_their_definitions():
    for n, c in [(n, c) for n in range(5) for c in (1, 2)] + [(3, 3)]:
        for a in pool(n, c):
            for profile, row in ((top_profile(a), 0), (bottom_profile(a), 1)):
                ends = {e[row]: e[2] for e in a.edges}
                expected = tuple(tuple(v for v in range(1, n + 1) if ends.get(v, 0) == k) for k in range(c + 1))
                assert (profile.n, profile.c, profile.parts) == (n, c, expected)
        for bottom in all_bottom_profiles(n, c) if n else ():
            space = ModuleSpace(bottom)
            groups = restriction_groups(space)
            assert [j for j, _ in groups] == sorted({j for j, _ in groups})
            assert sorted(i for _, indices in groups for i in indices) == list(range(space.dimension))
            for j, indices in groups:
                assert all(n in top_profile(space.basis[i]).parts[j] for i in indices)


def test_module_references_read_the_top_profiles_off_the_module(profile_builds):
    # Each basis diagram was built from its top profile, so neither reference reads a profile back from a diagram.
    outcome = verify_irreducible(label_module(IrrepLabel((1, 1, 1))))
    assert outcome.ok and outcome.checked == 42
    outcome = check_restriction((3, 2))
    assert outcome.ok and outcome.checked == 53
    assert profile_builds == []


def test_products_and_module_queries_leave_the_diagram_caches_empty(profile_builds):
    for a in pool(3, 2):
        for b in pool(3, 2):
            multiply(a, b)
    g = sum((from_diagram(d, k - 3) for k, d in enumerate(pool(3, 2)[::9])), algebra.zero(3, 2))
    for h in (identity(3, 2) * g, g * g, embed(g), algebra.x_of(pool(3, 2)[-1])):
        algebra.to_x_coordinates(h)
    space = label_module(IrrepLabel((3, 1, 1)))
    for top, bottom in [
        (((1, 2, 3), (4,), (5,)), ((1, 2, 3), (4,), (5,))),
        (((1, 5, 3), (2,), (4,)), ((2, 3, 4), (5,), (1,))),
        (((2, 3, 4), (1,), (5,)), ((1, 4, 5), (3,), (2,))),
    ]:
        d = from_profiles(Profile(5, 2, top), Profile(5, 2, bottom))
        diagram_action(d, space)
        action_trace(d, space)
    restriction_decomposition(space)
    assert profile_builds == []
