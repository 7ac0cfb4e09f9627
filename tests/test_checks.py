import dataclasses
import functools
import inspect
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from planar_rook import algebra, bratteli, checks, diagrams, representations
from planar_rook.algebra import AlgebraElement, subdiagrams, unit_diagram
from planar_rook.checks import VerifyConfig, run_verification
from planar_rook.diagrams import CapExceededError, Diagram, Profile, from_profiles, is_planar
from planar_rook.representations import IrrepLabel, IsoResult, all_bottom_profiles, all_labels, label_module

# Per-check case counts of the default caps with 200 samples.
DEFAULT_CHECKED = {
    "algebra.block-preservation": 9325,
    "algebra.embed-homomorphism": 126,
    "algebra.identity-unit": 141,
    "algebra.x-action-left": 476,
    "algebra.x-action-right": 476,
    "algebra.x-basis-inversion": 341,
    "bratteli.degree-histogram": 15,
    "bratteli.level-sizes": 8,
    "bratteli.pascal-triangle": 13,
    "bratteli.recursion": 28,
    "bratteli.restriction-consistency": 28,
    "diagram.associativity": 3828,
    "diagram.enumeration-count": 8,
    "diagram.matrix-semantics": 9325,
    "diagram.planarity-closure": 9325,
    "diagram.profile-roundtrip": 141,
    "diagram.rook-closure": 9325,
    "diagram.size-monotonicity": 9325,
    "modules.character-trace": 1133,
    "modules.column-structure": 1133,
    "modules.irreducibility": 65,
    "modules.isomorphism-classification": 905,
    "modules.matrix-algebra": 16,
    "modules.multiplicity-count": 30,
    "modules.regular-decomposition": 8,
    "modules.restriction-blocks": 53,
    "modules.rho-homomorphism": 89640,
}


def test_default_suite_passes():
    results = run_verification(VerifyConfig(samples=200))
    assert results == sorted(results, key=lambda r: r.name)
    failing = [r.name for r in results if not r.ok]
    assert failing == []
    assert {r.name: r.checked for r in results} == DEFAULT_CHECKED


def test_zero_cap_is_vacuously_green():
    results = run_verification(VerifyConfig(n_cap=0, c_cap=1, samples=20))
    assert all(r.ok for r in results)


def test_tiny_diagram_cap_raises_distinct_error():
    with pytest.raises(CapExceededError, match="exceeds the cap of 3$"):  # the monoid's cap; 3 samples fit it
        run_verification(VerifyConfig(diagram_cap=3, samples=3))


@pytest.mark.parametrize("config, error, message", [
    (VerifyConfig(samples=-1), ValueError, "verify needs n-cap >= 0, c-cap >= 1 and --samples >= 0"),
    (VerifyConfig(n_cap=-1), ValueError, "verify needs n-cap >= 0, c-cap >= 1 and --samples >= 0"),
    (VerifyConfig(c_cap=0), ValueError, "verify needs n-cap >= 0, c-cap >= 1 and --samples >= 0"),
    # The sampled checks' work is linear in the samples, so more than the diagram cap is refused.
    (VerifyConfig(n_cap=1, c_cap=1, diagram_cap=10, samples=11), CapExceededError,
     "--samples 11 exceeds the cap of 10 draws"),
    # A setting that is not an int is refused by the first rule, before the samples rule would read it.
    (VerifyConfig(n_cap=1, c_cap=1, diagram_cap=10, samples=11.0), ValueError,
     "verify needs n-cap >= 0, c-cap >= 1 and --samples >= 0"),
])
def test_verification_refuses_its_arguments_before_any_check(monkeypatch, config, error, message):
    monkeypatch.setattr(checks, "_rows", lambda: pytest.fail("read the table of checks"))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        run_verification(config)
    assert type(refused.value) is error
    monkeypatch.undo()
    assert all(r.ok for r in run_verification(dataclasses.replace(config, n_cap=1, c_cap=1, samples=10)))


@pytest.mark.parametrize("n_cap, c_cap, largest", [(3, 2, 93), (2, 2, 15)])
def test_verification_refuses_its_cap_before_building(monkeypatch, n_cap, c_cap, largest):
    # |P| at the largest swept shape, the enumeration row's (5, 3) clipped to the caps, bounds the whole run.
    # The samples stay under both caps, so that the refusal is the monoid's, not the samples rule's.
    real = diagrams._enumerate_planar
    built = []

    def counting(n, c):
        for d in real(n, c):
            built.append(d)
            yield d

    monkeypatch.setattr(diagrams, "_enumerate_planar", counting)
    config = VerifyConfig(n_cap=n_cap, c_cap=c_cap, diagram_cap=largest - 1, samples=10)
    with pytest.raises(CapExceededError, match=rf"\|P_\{{{n_cap},{c_cap}\}}\| = {largest} exceeds"):
        run_verification(config)
    assert built == []
    assert all(r.ok for r in run_verification(dataclasses.replace(config, diagram_cap=largest)))


def test_verification_refuses_its_cap_under_a_lazy_enumeration(monkeypatch):
    # A wrapper that defers enumerate_planar's body to the first item must not defer the refusal.
    real = diagrams.enumerate_planar
    built = []

    def lazy(*args, **kwargs):
        for d in real(*args, **kwargs):
            built.append(d)
            yield d

    monkeypatch.setattr(checks, "enumerate_planar", lazy)
    monkeypatch.setattr(diagrams, "enumerate_planar", lazy)
    with pytest.raises(CapExceededError, match=r"^\|P_\{3,2\}\| = 93 exceeds the cap of 92$"):
        run_verification(VerifyConfig(diagram_cap=92, samples=20))
    assert built == []


@pytest.mark.parametrize("n_cap, c_cap", [(3, 2), (4, 3)])
def test_each_check_sweeps_the_scopes_of_its_row(monkeypatch, n_cap, c_cap):
    # Each check's exhaustive shapes or towers are its row's first scope clipped to the caps, and a second scope
    # is the shape its draws come from; the monoid cap is held at the componentwise largest clipped monoid scope.
    running, seen, draws, capped = [], {}, {}, []
    real_shapes, real_towers, real_draws = checks._shapes, checks._towers, checks._draws

    def shapes(scope):
        for n, c in real_shapes(scope):
            seen[running[-1]].append((n, c))
            yield n, c

    def towers(scope):
        for c, graph in real_towers(scope):
            seen[running[-1]].append((graph.n_max, c))
            yield c, graph

    def sampled(pool, *args):
        draws[running[-1]].append((pool[0].n, pool[0].c))
        return real_draws(pool, *args)

    def entered(check):
        @functools.wraps(check)
        def run(*args):
            running.append(check.__name__)
            seen[check.__name__], draws[check.__name__] = [], []
            return check(*args)
        return run

    for name in [name for name in dir(checks) if name.startswith("check_")]:
        monkeypatch.setattr(checks, name, entered(getattr(checks, name)))
    monkeypatch.setattr(checks, "_shapes", shapes)
    monkeypatch.setattr(checks, "_towers", towers)
    monkeypatch.setattr(checks, "_draws", sampled)
    monkeypatch.setattr(checks, "require_monoid_cap", lambda n, c, cap: capped.append((n, c)))
    assert all(r.ok for r in run_verification(VerifyConfig(n_cap=n_cap, c_cap=c_cap, samples=5)))
    rows = checks._rows()
    assert len(rows) == len(running) == len(set(running)) == 27
    monoids = []
    for row in rows:
        name = row.check.__name__
        (n_max, c_max), *rest = [(min(n, n_cap), min(c, c_cap)) for n, c in row.scopes]
        if row.towers:
            assert seen[name] == [(n_max, c) for c in range(1, c_max + 1)], name
        else:
            assert seen[name] == [(n, c) for c in range(1, c_max + 1) for n in range(n_max + 1)], name
            monoids += [(n_max, c_max), *rest]
        assert draws[name] == rest, name
    assert capped == [(max(n for n, _ in monoids), max(c for _, c in monoids))] == [(min(5, n_cap), min(3, c_cap))]


def test_every_check_is_a_tallied_generator():
    made = [getattr(checks, name) for name in dir(checks) if name.startswith("check_")]
    made += [representations.verify_irreducible, representations.verify_character_table]
    assert len(made) == 29
    assert all(inspect.isgeneratorfunction(f.__wrapped__) for f in made)


@pytest.mark.parametrize("item", [True, None, (1, "witness")])
def test_tallied_refuses_anything_but_counts_and_witnesses(item):
    @representations.tallied("stream")
    def stream():
        yield 1
        yield "witness"
        yield item

    with pytest.raises(TypeError, match="int case counts and str witnesses"):
        stream()


def _sign_flipped_x_of(d):
    # Mutant: drops the alternation entirely.
    if not is_planar(d):
        raise ValueError
    terms = {sub: Fraction(1) for sub in subdiagrams(d)}
    return AlgebraElement(d.n, d.c, terms)


def test_suite_catches_sign_mutant(monkeypatch):
    monkeypatch.setattr(algebra, "x_of", _sign_flipped_x_of)
    outcome = checks.check_x_inversion((2, 1), samples=0, seed=1)
    assert not outcome.ok
    assert outcome.witnesses


def test_suite_catches_action_mutant(monkeypatch):
    # Mutant: ignore the containment condition and always act.
    monkeypatch.setattr(algebra, "left_action_x", lambda d, a: algebra.multiply(d, a))
    outcome = checks.check_left_action((1, 1), (1, 1), samples=0, seed=1)
    assert not outcome.ok
    assert outcome.witnesses


def _frozen_draws(rng, pool):
    # The sampler's rule pinned in full: each term a coefficient, a Fraction of two randint draws, and a diagram.
    return [(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.choice(pool)) for _ in range(rng.randint(1, 3))]


def _frozen_random_element(rng, pool, n, c):
    # Repeats summed, through the validating constructor.
    terms = {}
    for coeff, d in _frozen_draws(rng, pool):
        terms[d] = terms.get(d, Fraction(0)) + coeff
    return AlgebraElement(n, c, terms)


def _assert_sampler_follows_the_frozen_rule(n, c, seed):
    pool = tuple(diagrams.enumerate_planar(n, c))
    rng, frozen = random.Random(seed), random.Random(seed)
    for _ in range(200):
        g, expected = checks._random_element(rng, pool, n, c), _frozen_random_element(frozen, pool, n, c)
        assert g == expected
        assert [(d, type(q)) for d, q in g.terms.items()] == [(d, type(q)) for d, q in expected.terms.items()]
    assert rng.getstate() == frozen.getstate()


@pytest.mark.parametrize("n, c", [(3, 2), (2, 2)])
def test_sampler_draws_the_frozen_rule_elements_from_the_same_stream(n, c):
    _assert_sampler_follows_the_frozen_rule(n, c, 12345)


@pytest.mark.parametrize("seed", [0, 7, 9301])
@pytest.mark.parametrize("n, c", [(3, 2), (2, 2), (1, 1), (0, 1)])
def test_sampler_draws_as_randint_on_every_seed_and_shape(n, c, seed):
    # randrange(b - a + 1) + a makes randint(a, b)'s one draw, so elements and the stream's state match the rule.
    _assert_sampler_follows_the_frozen_rule(n, c, seed)


def test_sampler_stores_cancelled_and_integral_sums_as_the_validating_constructor_does():
    # On the one-diagram pool of (0, 1) every term repeats: sums of non-integral draws cancel to 0 (the term drops)
    # or come to a nonzero integral Fraction (stored as its int), and the sampler stores both as the constructor does.
    pool, rng = tuple(diagrams.enumerate_planar(0, 1)), random.Random(2)
    kinds = set()
    for _ in range(300):
        state = rng.getstate()
        g = checks._random_element(rng, pool, 0, 1)
        frozen, replay = random.Random(), random.Random()
        frozen.setstate(state)
        replay.setstate(state)
        expected = _frozen_random_element(frozen, pool, 0, 1)
        assert (g, [type(q) for q in g.terms.values()]) == (expected, [type(q) for q in expected.terms.values()])
        assert rng.getstate() == frozen.getstate()
        coeffs = [q for q, _ in _frozen_draws(replay, pool)]
        if len(coeffs) > 1 and all(q.denominator > 1 for q in coeffs) and sum(coeffs).denominator == 1:
            kinds.add("zero" if sum(coeffs) == 0 else "integral")
    assert kinds == {"zero", "integral"}


def test_report_dicts_are_json_ready():
    import json

    results = run_verification(VerifyConfig(n_cap=1, c_cap=1, samples=10))
    payload = json.dumps([r.as_dict() for r in results])
    assert "diagram.associativity" in payload


def _patch_classification(monkeypatch, mutate):
    real = checks.are_isomorphic
    monkeypatch.setattr(checks, "are_isomorphic", lambda s1, s2: mutate(s1, real(s1, s2)))


def test_classification_names_an_intertwiner_that_leaves_the_basis(monkeypatch):
    # Mutant: the projector onto the source profile, whose right action keeps
    # the source bottom profile instead of landing in the target module.
    _patch_classification(
        monkeypatch,
        lambda s1, r: IsoResult(True, intertwiner=from_profiles(s1.bottom, s1.bottom)) if r else r,
    )
    outcome = checks.check_isomorphism_classification((2, 2))
    assert not outcome.ok
    assert outcome.witnesses
    assert all("intertwiner leaves the target basis" in w for w in outcome.witnesses)


def test_classification_catches_swapped_distinguisher(monkeypatch):
    # Mutant: report the wrong module as the annihilated one.
    def swap(s1, r):
        return r if r else IsoResult(False, distinguisher=r.distinguisher, annihilated=3 - r.annihilated)

    _patch_classification(monkeypatch, swap)
    outcome = checks.check_isomorphism_classification((2, 2))
    assert not outcome.ok
    assert len(outcome.witnesses) == 168


def test_classification_refuses_a_reordering_intertwiner(monkeypatch):
    # One action table per class serves every module of the class, in the one basis order of the
    # walk, so an intertwiner commutes with the table only as the identity index map: list the basis
    # of each module with vertex 1 isolated in reverse, and exactly the pairs of one reversed and one
    # unreversed module of a class get an index map that is not the identity.
    real = checks.module_space
    reversed_bottoms = set()

    def reordered(n, c, bottom):
        space = real(n, c, bottom)
        if 1 in bottom.parts[0] and space.dimension > 1:
            object.__setattr__(space, "basis", space.basis[::-1])  # index_of follows the basis
            reversed_bottoms.add(bottom)
        return space

    monkeypatch.setattr(checks, "module_space", reordered)
    outcome = checks.check_isomorphism_classification((2, 2))
    mixed = [
        f"{p1.parts} vs {p2.parts}"
        for c in (1, 2) for n in range(3)
        for p1 in all_bottom_profiles(n, c) for p2 in all_bottom_profiles(n, c)
        if p1.sizes == p2.sizes and (p1 in reversed_bottoms) != (p2 in reversed_bottoms)
    ]
    assert len(mixed) == 6  # the two orders of each class 1|1, 1|1|0 and 1|0|1
    assert outcome.checked == 112
    assert outcome.witnesses == [f"intertwiner's index map is not the identity: {pair}" for pair in mixed]


def test_only_the_identity_permutation_commutes_with_a_class_table():
    # The classification check's argument: at every class of n <= 3, c <= 2, a permutation of the basis commutes
    # with every map of the class's table exactly when it is the identity, and already with the projectors alone.
    classes, compose = 0, representations.compose_column_maps
    for c in (1, 2):
        for n in range(4):
            pool = checks._all_planar(n, c)
            for sizes, (space, maps) in checks._actions(n, c).items():
                classes += 1
                dim = space.dimension
                projectors = [maps[from_profiles(top, top)] for top in diagrams.profiles_with_sizes(n, c, sizes)]
                assert projectors == [tuple(j if j == i else None for j in range(dim)) for i in range(dim)]
                for perm in permutations(range(dim)):
                    verdicts = [compose(perm, m) == compose(m, perm) for m in projectors + [maps[d] for d in pool]]
                    assert all(verdicts) == all(verdicts[:dim]) == (perm == tuple(range(dim)))
    assert classes == 30


def test_action_tables_hold_one_table_per_class(monkeypatch):
    # A column map never reads the bottom profile, so (3, 2) needs C(5, 2) = 10 tables of |P_{3,2}| = 93 maps,
    # not one per bottom profile, 27.
    real = checks.diagram_action
    calls = []
    monkeypatch.setattr(checks, "diagram_action", lambda d, space: calls.append(d) or real(d, space))
    tables = checks._actions(3, 2)
    assert list(tables) == [label.sizes for label in all_labels(3, 2)]
    assert len(calls) == 10 * 93
    assert all(space == label_module(IrrepLabel(sizes)) for sizes, (space, _) in tables.items())


def test_a_default_run_enumerates_each_shape_once(monkeypatch):
    # The largest monoid scope, (5, 3) clipped, holds the 8 shapes n <= 3, c <= 2; every check reads the run's pools.
    real = diagrams._enumerate_planar
    shapes = []

    def counting(n, c):
        shapes.append((n, c))
        yield from real(n, c)

    monkeypatch.setattr(diagrams, "_enumerate_planar", counting)
    assert all(r.ok for r in run_verification())
    assert len(shapes) <= 8


def _counting_x_of(monkeypatch) -> Counter:
    real, calls = algebra.x_of, Counter()
    monkeypatch.setattr(algebra, "x_of", lambda d: calls.update([d]) or real(d))
    return calls


def test_a_default_run_expands_each_x_basis_element_once(monkeypatch):
    # The x-inversion, x-action and matrix-block checks read one x-basis table per shape, and every subdiagram,
    # product and fast image is a pool diagram: one x_of per diagram of the shapes n <= 3, c <= 2, 141.
    calls = _counting_x_of(monkeypatch)
    assert all(r.ok for r in run_verification(VerifyConfig(samples=10)))
    shapes = [(n, c) for c in (1, 2) for n in range(4)]
    assert calls == Counter(d for n, c in shapes for d in diagrams.enumerate_planar(n, c))
    assert calls.total() == DEFAULT_CHECKED["algebra.identity-unit"] == 141


@pytest.mark.parametrize("check", [checks.check_left_action, checks.check_right_action])
def test_a_lone_action_check_expands_each_x_basis_element_once_per_shape(monkeypatch, check):
    # Outside a run a table is built afresh at each call, so the check fetches it once per shape, not per pair.
    calls = _counting_x_of(monkeypatch)
    assert check((2, 2), (3, 2), 50, 1).ok
    shapes = [(n, c) for c in (1, 2) for n in range(3)] + [(3, 2)]
    assert calls == Counter(d for n, c in shapes for d in diagrams.enumerate_planar(n, c))


@pytest.mark.parametrize("x_of", [algebra.from_diagram, _sign_flipped_x_of])
@pytest.mark.parametrize("check, count", [(checks.check_left_action, 344), (checks.check_right_action, 347)])
def test_action_checks_count_the_pairs_a_wrong_x_basis_breaks(monkeypatch, x_of, check, count):
    # Plain diagrams as x-elements, or the x-basis without its signs: the table is built from the x_of in force.
    monkeypatch.setattr(algebra, "x_of", x_of)
    outcome = check((2, 2), (3, 2), 200, 12345)
    assert (outcome.checked, len(outcome.witnesses), outcome.error) == (476, count, None)


def test_a_default_run_builds_each_column_map_once(monkeypatch):
    # One column map per class and diagram of the shapes n <= 3, c <= 2, read by the rho, column
    # structure, character and classification checks: as many as column_structure checks, 1,133.
    real = checks.diagram_action
    calls = []
    monkeypatch.setattr(checks, "diagram_action", lambda d, space: calls.append(d) or real(d, space))
    assert all(r.ok for r in run_verification(VerifyConfig(samples=10)))
    assert len(calls) == DEFAULT_CHECKED["modules.column-structure"] == 1133


def test_a_default_run_reads_the_restriction_columns_off_the_class_tables(monkeypatch):
    # Beside the 1,133 maps of the action tables, the only column maps are verify_irreducible's projectors, one per
    # basis vector of every bottom profile's module, 141: the restriction check sums its columns from the tables.
    calls = []
    for module in (checks, representations):
        real = module.diagram_action
        monkeypatch.setattr(module, "diagram_action", lambda d, space, real=real: calls.append(d) or real(d, space))
    assert all(r.ok for r in run_verification(VerifyConfig(samples=10)))
    assert len(calls) == 1133 + 141


def test_restriction_sums_columns_per_class_and_reads_every_bottom_profile_in_order(monkeypatch):
    # Each embedded width-(n-1) diagram's columns are summed once per class, not once per bottom profile (203 sums,
    # not 493), and the witnesses are listed once per class, on its table's own module (28 runs, no module built),
    # then reported for each bottom profile of the class in all_bottom_profiles order.
    runs, sums = [], []
    real_run, real_sum = checks._restriction_witnesses, checks.weighted_columns
    monkeypatch.setattr(checks, "module_space", lambda *args: pytest.fail("built a module per bottom profile"))
    monkeypatch.setattr(checks, "_restriction_witnesses", lambda *args: runs.append(args[0]) or real_run(*args))
    monkeypatch.setattr(checks, "weighted_columns", lambda *args: sums.append(args) or real_sum(*args))
    outcome = checks.check_restriction((3, 2))
    shapes = [(n, c) for c in (1, 2) for n in range(1, 4)]
    assert len(sums) == sum(len(all_labels(n, c)) * diagrams.cardinality(n - 1, c) for n, c in shapes) == 203
    assert runs == [label_module(label) for n, c in shapes for label in all_labels(n, c)] and len(runs) == 28
    assert outcome.ok and outcome.checked == DEFAULT_CHECKED["modules.restriction-blocks"]
    assert outcome.checked == sum(1 for n, c in shapes for _ in all_bottom_profiles(n, c))


def test_restriction_witnesses_list_every_group_that_a_column_leaves():
    # Listed to its end, each column that leaves its group is named once and the listing goes on past it, without
    # reading the foreign index in the child module.
    space = label_module(IrrepLabel((1, 1)))
    pool = checks._all_planar(1, 1)
    maps = checks._actions(2, 1)[(1, 1)][1]
    embedded = [algebra.embed(algebra.from_diagram(d)).terms for d in pool]
    past = _past_the_basis(checks.weighted_columns)
    columns = [past(((q, maps[e]) for e, q in g.items()), space.dimension) for g in embedded]
    witnesses = list(checks._restriction_witnesses(space, pool, columns))
    assert witnesses == [
        f"group {j} of 1|1 is not invariant under {diagrams.format_diagram(d)}"
        for d in pool for j, indices in representations.restriction_groups(space) for _ in indices
    ]
    assert len(witnesses) == len(pool) * space.dimension == 4


def test_restriction_catches_one_color_embedding(monkeypatch):
    # Mutant: append only a color-1 vertical edge instead of the width-1 unit.
    monkeypatch.setattr(algebra, "embed", lambda g: g.tensor(algebra.from_diagram(unit_diagram(g.c, 1))))
    outcome = checks.check_restriction((2, 2))
    assert outcome.checked == 18
    assert len(outcome.witnesses) == 6
    assert outcome.witnesses[0] == (
        "bottom ((), (), (1,)): ['column drop does not intertwine n=0 c=2 [] on 0|0|1 group 2 basis 0']"
    )


def test_matrix_algebra_catches_plain_diagrams_as_x_elements(monkeypatch):
    # Mutant: x_d is d itself, so products that should vanish do not.
    monkeypatch.setattr(algebra, "x_of", algebra.from_diagram)
    outcome = checks.check_matrix_algebra((2, 2))
    assert outcome.checked == 16
    assert len(outcome.witnesses) == 14  # all but the two empty-diagram classes at n = 0
    assert outcome.witnesses[0] == (
        "label 1|0 at (n=1, c=1): ['x_a * x_b is not 0 at a = n=1 c=1 [], b = n=1 c=1 [1-1:1]']"
    )


def test_matrix_algebra_catches_a_color_blind_composition(monkeypatch):
    # Mutant: a middle vertex joins edges of any two colors, and the product keeps the upper edge's color.
    real = diagrams.compose_edges

    def blind(upper, lower):
        colors = {m: k for _, m, k in upper}
        return real(upper, {m: (t, b, colors.get(m, k)) for m, (t, b, k) in lower.items()})

    monkeypatch.setattr(diagrams, "compose_edges", blind)
    monkeypatch.setattr(algebra, "compose_edges", blind)
    outcome = checks.check_matrix_algebra((2, 2))
    assert outcome.checked == 16
    assert len(outcome.witnesses) == 7
    assert outcome.witnesses[0] == (
        "label 0|1|0 at (n=1, c=2): ['x_a * x_b is not 0 at a = n=1 c=2 [1-1:1], b = n=1 c=2 [1-1:2]']"
    )


def test_matrix_algebra_catches_a_dropped_cross_term(monkeypatch):
    # Mutant: the product of two sums loses the pair of their first terms.
    real = AlgebraElement.__mul__

    def dropped(g, h):
        if not isinstance(h, AlgebraElement) or min(len(g.terms), len(h.terms)) < 2:
            return real(g, h)
        (d1, p1), (d2, p2) = next(iter(g.terms.items())), next(iter(h.terms.items()))
        return real(g, h) - real(algebra.from_diagram(d1, p1), algebra.from_diagram(d2, p2))

    monkeypatch.setattr(AlgebraElement, "__mul__", dropped)
    outcome = checks.check_matrix_algebra((2, 2))
    assert outcome.checked == 16
    assert len(outcome.witnesses) == 10
    assert outcome.witnesses[0] == (
        "label 0|1 at (n=1, c=1): ['x_a * x_b is not x_ab at a = n=1 c=1 [1-1:1], b = n=1 c=1 [1-1:1]']"
    )


def _drop_first_child(monkeypatch):
    real = bratteli.BratteliGraph.children_of
    monkeypatch.setattr(bratteli.BratteliGraph, "children_of", lambda graph, n, idx: real(graph, n, idx)[1:])


def test_tower_recursion_catches_a_missing_child(monkeypatch):
    _drop_first_child(monkeypatch)
    outcome = checks.check_tower_recursion((4, 2))
    assert outcome.checked == 48
    assert outcome.witnesses == [
        "c=1: ['vertex 1|0 at level 1: dimension 1 but children sum to 0']",
        "c=2: ['vertex 1|0|0 at level 1: dimension 1 but children sum to 0']",
    ]


def test_pascal_triangle_names_every_vertex_missing_a_child(monkeypatch):
    _drop_first_child(monkeypatch)
    outcome = checks.check_pascal_triangle((4, 1))
    assert outcome.checked == 19
    assert len(outcome.witnesses) == 14
    assert outcome.witnesses[0] == "vertex 1|0 at level 1: dimension 1 but children sum to 0"


def _stacked(a, b):
    # Mutant product: keeps the edges of both operands, unvalidated, so it
    # grows, crosses itself and can put two edges on one vertex.
    return Diagram._trusted(a.n, a.c, tuple(sorted(a.edges + b.edges)))


@pytest.mark.parametrize(
    "check",
    [
        checks.check_rook_closure,
        checks.check_planarity_closure,
        checks.check_size_monotonicity,
        checks.check_matrix_semantics,
    ],
)
def test_product_sweeps_catch_stacking_mutant(monkeypatch, check):
    monkeypatch.setattr(checks, "multiply", _stacked)
    outcome = check((2, 1))
    assert not outcome.ok
    assert outcome.witnesses


def _swapped_factors(real):
    return lambda a, b: real(b, a)


def _first_edge_dropped(real):
    def product(a, b):
        p = real(a, b)
        return Diagram._trusted(p.n, p.c, p.edges[1:])
    return product


def test_packed_rows_multiply_as_the_entry_loop_over_the_color_ring():
    # The reference the packed rows replaced: entry by entry, AND for the ring's product and XOR for its sum.
    for n, c in [(n, c) for c in (1, 2) for n in range(4)] + [(2, 3)]:
        pool = tuple(diagrams.enumerate_planar(n, c))
        bits = {d: [[0 if k == 0 else 1 << (k - 1) for k in row] for row in diagrams.to_matrix(d)] for d in pool}
        packed = {d: checks._packed_matrix(d) for d in pool}
        for a in pool:
            for b in pool:
                m1, m2 = bits[a], bits[b]
                expected = [[functools.reduce(operator.xor, (m1[i][m] & m2[m][j] for m in range(n)), 0)
                             for j in range(n)] for i in range(n)]
                rows = checks._packed_product(packed[a][1], packed[b][0])
                assert [[row >> (c * j) & (1 << c) - 1 for j in range(n)] for row in rows] == expected


@pytest.mark.parametrize("fault, count", [(_swapped_factors, 5346), (_first_edge_dropped, 5027)])
def test_matrix_semantics_counts_the_products_a_wrong_multiply_breaks(monkeypatch, fault, count):
    # The packed-row oracle reads to_matrix alone, so a wrong product fails it on as many pairs as the entry loop.
    monkeypatch.setattr(checks, "multiply", fault(checks.multiply))
    outcome = checks.check_matrix_semantics((3, 2))
    assert (outcome.checked, len(outcome.witnesses)) == (DEFAULT_CHECKED["diagram.matrix-semantics"], count)


def test_rho_unit_check_reads_the_action_table(monkeypatch):
    def recomputed(d, space):
        raise AssertionError(f"recomputed the action of {d}")

    monkeypatch.setattr(representations, "diagram_action", recomputed)
    outcome = checks.check_rho_homomorphism((2, 1))
    assert outcome.ok and outcome.checked == 124


def test_rho_unit_check_catches_a_wrong_unit(monkeypatch):
    monkeypatch.setattr(algebra, "identity", lambda n, c: algebra.from_diagram(Diagram(n, c, [])))
    outcome = checks.check_rho_homomorphism((2, 1))
    assert outcome.checked == 124
    # The empty diagram is the unit only on the modules whose bottom profile has no edge.
    assert outcome.witnesses == [
        f"unit does not act as identity on bottom {parts}"
        for parts in (((), (1,)), ((1,), (2,)), ((2,), (1,)), ((), (1, 2)))
    ]


def test_rho_product_check_names_each_pair_a_wrong_map_breaks(monkeypatch):
    # Mutant action: one diagram's column map on the representative of class 1|1 is reversed.
    real = representations.diagram_action
    planted = Diagram(2, 1, [(1, 2, 1)])
    bottom = representations.IrrepLabel((1, 1)).representative()

    def reversed_once(d, space):
        columns = real(d, space)
        return columns[::-1] if d == planted and space.bottom == bottom else columns

    monkeypatch.setattr(checks, "diagram_action", reversed_once)
    outcome = checks.check_rho_homomorphism((2, 1))
    assert outcome.checked == 124
    assert outcome.witnesses == [
        f"action of product differs from composed actions: n=2 c=1 [{d1}], n=2 c=1 [{d2}] on 1|1"
        for d1, d2 in (("2-1:1", "1-2:1"), ("1-2:1", "2-2:1"), ("1-2:1", "2-1:1"), ("1-2:1", "1-2:1"), ("1-2:1", "1-1:1"))
    ]


def test_rho_check_counts_the_pairs_one_nulled_entry_breaks(monkeypatch):
    # Entry 0 of the map of 3-3:1, a term of the unit, on class 2|1|0: 3 unit witnesses and 212 product witnesses.
    real = checks.diagram_action
    planted = Diagram(3, 2, [(3, 3, 1)])

    def nulled(d, space):
        columns = real(d, space)
        return (None, *columns[1:]) if d == planted and space.bottom.sizes == (2, 1, 0) else columns

    monkeypatch.setattr(checks, "diagram_action", nulled)
    outcome = checks.check_rho_homomorphism((3, 2))
    assert (outcome.checked, len(outcome.witnesses)) == (DEFAULT_CHECKED["modules.rho-homomorphism"], 215)
    assert sum(w.startswith("unit does not act as identity") for w in outcome.witnesses) == 3


def test_rho_check_raises_on_an_index_outside_the_outer_map(monkeypatch):
    # An image past the basis is no column: composing through it raises, and a run reports the check's error.
    real = checks.diagram_action
    planted = Diagram(2, 1, [(1, 2, 1)])

    def overshooting(d, space):
        columns = real(d, space)
        return tuple(None if i is None else i + space.dimension for i in columns) if d == planted else columns

    monkeypatch.setattr(checks, "diagram_action", overshooting)
    with pytest.raises(LookupError):
        checks.check_rho_homomorphism((2, 1))
    rho = {r.name: r for r in run_verification(VerifyConfig(n_cap=2, c_cap=1, samples=10))}["modules.rho-homomorphism"]
    assert (rho.ok, rho.checked, rho.witnesses) == (False, 0, [])
    assert rho.error.startswith("KeyError: ")


def _rho_reference(scope):
    """The product half of the rho check as a per-triple loop: each triple's own composition, compared as maps."""
    for n, c in checks._shapes(scope):
        pool = tuple(diagrams.enumerate_planar(n, c))
        for label in all_labels(n, c):
            space = label_module(label)
            maps = {d: checks.diagram_action(d, space) for d in pool}
            for a in pool:
                for b in pool:
                    if representations.compose_column_maps(maps[a], maps[b]) != maps[diagrams.multiply(a, b)]:
                        yield (
                            f"action of product differs from composed actions: "
                            f"{diagrams.format_diagram(a)}, {diagrams.format_diagram(b)} on {label.encode()}"
                        )


def _witnesses_until_error(stream):
    """The witnesses of a check's raw stream, and the error that ends it as run_verification reports one, if any."""
    witnesses = []
    try:
        witnesses.extend(item for item in stream if type(item) is str)
    except Exception as exc:
        return witnesses, f"{type(exc).__name__}: {exc}"
    return witnesses, None


def test_rho_check_composes_each_distinct_pair_of_maps_once(monkeypatch):
    # The 89,585 triples of the shapes n <= 3, c <= 2 meet only 4,965 distinct (outer, inner) pairs of a class's maps.
    # Each distinct map's lookup is built once, and each composition reads its outer lookup once per column.
    tables = [maps for n, c in checks._shapes((3, 2)) for _, maps in checks._actions(n, c).values()]
    distinct_maps = sum(len(set(maps.values())) for maps in tables)
    distinct_pairs = sum(len({(maps[a], maps[b]) for a in maps for b in maps}) for maps in tables)
    real, built, reads = checks.column_lookup, [], Counter()

    def counting(outer):
        built.append(outer)
        lookup = real(outer)
        return lambda j: reads.update([len(outer)]) or lookup(j)

    monkeypatch.setattr(checks, "column_lookup", counting)
    rho = {r.name: r for r in run_verification(VerifyConfig(samples=10))}["modules.rho-homomorphism"]
    assert rho.ok and rho.checked == DEFAULT_CHECKED["modules.rho-homomorphism"]
    assert len(built) == distinct_maps
    assert all(count % dimension == 0 for dimension, count in reads.items())
    assert sum(count // dimension for dimension, count in reads.items()) == distinct_pairs == 4965


# A class and a diagram, not a term of the unit, whose map on the class has one image, so reversing it changes it.
_PLANTED_MAPS = [
    ((2, 1, 0), Diagram(3, 2, [(3, 1, 1)])),
    ((1, 2, 0), Diagram(3, 2, [(2, 1, 1), (3, 2, 1)])),
    ((1, 1, 1), Diagram(3, 2, [(2, 3, 1), (3, 2, 2)])),
]


@pytest.mark.parametrize("sizes, planted", _PLANTED_MAPS)
def test_rho_check_names_the_pairs_of_the_per_triple_loop(monkeypatch, sizes, planted):
    # One diagram's map on one class reversed: every triple that breaks is named, in the per-triple loop's order.
    real = checks.diagram_action

    def reversed_once(d, space):
        columns = real(d, space)
        return columns[::-1] if d == planted and space.bottom.sizes == sizes else columns

    monkeypatch.setattr(checks, "diagram_action", reversed_once)
    expected = list(_rho_reference((3, 2)))
    outcome = checks.check_rho_homomorphism((3, 2))
    assert expected and outcome.witnesses == expected
    assert outcome.checked == DEFAULT_CHECKED["modules.rho-homomorphism"]


@pytest.mark.parametrize("sizes, planted", _PLANTED_MAPS)
def test_rho_check_raises_where_the_per_triple_loop_raises(monkeypatch, sizes, planted):
    # A map past its module, on one class: the same witnesses come first, then the same KeyError at the same triple.
    real = checks.diagram_action

    def overshooting(d, space):
        columns = real(d, space)
        if d == planted and space.bottom.sizes == sizes:
            return tuple(None if i is None else i + j + space.dimension for j, i in enumerate(columns))
        return columns

    monkeypatch.setattr(checks, "diagram_action", overshooting)
    witnesses, error = _witnesses_until_error(checks.check_rho_homomorphism.__wrapped__((3, 2)))
    assert error is not None and error.startswith("KeyError: ")
    assert (witnesses, error) == _witnesses_until_error(_rho_reference((3, 2)))
    rho = {r.name: r for r in run_verification(VerifyConfig(samples=10))}["modules.rho-homomorphism"]
    assert (rho.ok, rho.checked, rho.witnesses, rho.error) == (False, 0, [], error)


def test_associativity_reads_the_run_product_table(monkeypatch):
    # Inside a run the exhaustive sweep reads every product off _products: no multiply beyond the table's own.
    monkeypatch.setattr(checks, "_tables", {})
    shapes = list(checks._shapes((2, 2)))
    for n, c in shapes:
        checks._products(n, c)
    real, calls = checks.multiply, []
    monkeypatch.setattr(checks, "multiply", lambda a, b: calls.append((a, b)) or real(a, b))
    outcome = checks.check_associativity((2, 2), (0, 1), 0, 1)
    assert outcome.ok and outcome.checked == sum(len(checks._all_planar(n, c)) ** 3 for n, c in shapes) == 3628
    assert calls == []


def test_associativity_multiplies_a_product_that_leaves_the_pool(monkeypatch):
    # Identity times identity made a crossing: the table holds it, so each product through it is computed as it stands.
    real = checks.multiply
    identity, crossing = Diagram(2, 1, [(1, 1, 1), (2, 2, 1)]), Diagram(2, 1, [(1, 2, 1), (2, 1, 1)])

    def crossed(a, b):
        return crossing if (a, b) == (identity, identity) else real(a, b)

    monkeypatch.setattr(checks, "multiply", crossed)
    pool = tuple(diagrams.enumerate_planar(2, 1))
    expected = [
        f"({diagrams.format_diagram(a)}) * ({diagrams.format_diagram(b)}) * ({diagrams.format_diagram(d)})"
        for a in pool for b in pool for d in pool if crossed(crossed(a, b), d) != crossed(a, crossed(b, d))
    ]
    outcome = checks.check_associativity((2, 1), (0, 1), 0, 1)
    assert outcome.error is None and outcome.checked == 1 + 2 ** 3 + 6 ** 3
    assert expected and outcome.witnesses == expected


def test_character_check_reads_the_vertical_drop_off_the_action(monkeypatch):
    # Mutant action: a diagram with no vertical edge fixes basis vector 0 of every module.
    real = representations.diagram_action

    def fixing(d, space):
        columns = real(d, space)
        return (0, *columns[1:]) if d.edges and all(t != b for t, b, _ in d.edges) else columns

    monkeypatch.setattr(checks, "diagram_action", fixing)
    outcome = checks.check_character((2, 1))
    assert "trace of n=2 c=1 [1-2:1] changes when non-vertical edges drop" in outcome.witnesses
    assert "character of n=2 c=1 [1-2:1] at 1|1" in outcome.witnesses


def test_character_table_check_compares_each_entry_with_the_fixed_points(monkeypatch):
    # Every row's diagram is the one edge 1-2 with no vertical edge: its trace is 1 on 2|0 and 0 elsewhere.
    monkeypatch.setattr(representations, "vertical_diagram", lambda n, row: Diagram(n, len(row), [(1, 2, 1)]))
    outcome = representations.verify_character_table(2, 1)
    assert outcome.checked == 9
    assert outcome.witnesses == [
        "entry ((1,), 1|1) differs from the trace",
        "entry ((2,), 1|1) differs from the trace",
        "entry ((2,), 0|2) differs from the trace",
    ]


def test_character_table_check_catches_a_vertical_diagram_that_swaps_colors(monkeypatch):
    # The table reads each row's counts off the row itself, so a vertical_diagram that builds the wrong diagram shows.
    real = representations.vertical_diagram
    monkeypatch.setattr(representations, "vertical_diagram", lambda n, row: real(n, row[::-1]))
    outcome = representations.verify_character_table(3, 2)
    assert outcome.checked == 100
    assert len(outcome.witnesses) == 36
    assert outcome.witnesses[:2] == [
        "entry ((1, 0), 2|1|0) differs from the trace",
        "entry ((1, 0), 2|0|1) differs from the trace",
    ]


def test_column_structure_catches_out_of_range_images(monkeypatch):
    # Mutant action: every nonzero column points one past the last basis index.
    real = representations.diagram_action

    def overshooting(d, space):
        return tuple(None if i is None else space.dimension for i in real(d, space))

    monkeypatch.setattr(checks, "diagram_action", overshooting)
    monkeypatch.setattr(representations, "diagram_action", overshooting)
    outcome = checks.check_column_structure((2, 2))
    assert not outcome.ok
    assert outcome.witnesses


def test_verification_drops_its_tables():
    run_verification(VerifyConfig(n_cap=2, c_cap=1, samples=10))
    assert checks._tables is None


def test_a_lone_check_keeps_no_table(monkeypatch):
    # A table kept from the first call would hand the second the real products.
    assert checks.check_rook_closure((2, 1)).ok
    monkeypatch.setattr(checks, "multiply", _stacked)
    assert not checks.check_rook_closure((2, 1)).ok


def test_a_fault_inside_a_verifier_is_an_engine_fault(monkeypatch):
    # verify_irreducible runs inside the irreducibility check; its exception must not become a
    # witness of that check but the check's error, while every other check still runs and passes.
    def planted(d, a):
        raise AssertionError("planted fault")

    monkeypatch.setattr(representations, "left_action_x", planted)
    results = {r.name: r for r in run_verification(VerifyConfig(n_cap=2, c_cap=1, samples=10))}
    fault = results.pop("modules.irreducibility")
    assert (fault.ok, fault.checked, fault.witnesses, fault.error) == (False, 0, [], "AssertionError: planted fault")
    assert fault.as_dict()["error"] == "AssertionError: planted fault"
    assert len(results) == 26
    assert all(r.ok and r.error is None and "error" not in r.as_dict() for r in results.values())


# ---------------------------------------------------------------------------
# Every witness text a passing suite never yields, pinned by a planted fault.

def _plus_one(real):
    return lambda *args: real(*args) + 1


_COLOR_1, _COLOR_2 = Diagram(1, 2, [(1, 1, 1)]), Diagram(1, 2, [(1, 1, 2)])


def _skewed_product(real):
    # Color 1 times color 2 keeps color 1, not the empty diagram: (1·2)·1 is 1, but 1·(2·1) is empty.
    return lambda a, b: a if (a, b) == (_COLOR_1, _COLOR_2) else real(a, b)


def _isolated_bottom(real):
    # Every bottom row read as all isolated vertices.
    return lambda d: Profile(d.n, d.c, (tuple(range(1, d.n + 1)),) + ((),) * d.c)


def _doubled_unit(real):
    return lambda g: real(g).scale(2) if g == algebra.identity(g.n, g.c) else real(g)


def _isolated_weight_minus_c(real):
    # The unit's isolated column state weighs -c, not 1 - c: identity and embed are both built from it.
    return lambda v, c: [(edges, -c if edges == () else w) for edges, w in real(v, c)]


def _without_empty_coordinate(real):
    # The coordinate at the empty diagram is lost whenever another coordinate is left.
    def coordinates(g):
        coords = real(g)
        return {a: q for a, q in coords.items() if a.size or len(coords) == 1}
    return coordinates


def _first_coordinate_lost_past_three_terms(real):
    # An element of four or more terms loses its first x-coordinate, the empty diagram's; every other value is kept.
    def coordinates(g):
        coords = real(g)
        return dict(list(coords.items())[1:]) if len(g.terms) > 3 else coords
    return coordinates


def _scale_by_the_numerator(real):
    # The scalar's denominator is ignored: g.scale(p / q) comes out as g.scale(p).
    return lambda g, scalar: real(g, Fraction(scalar).numerator)


def _denominator(g):
    return math.lcm(*(Fraction(q).denominator for q in g.terms.values()))


def _sum_over_the_left_denominator(real):
    # Both numerator sides scaled by den // den1: the right summand comes out times den2 / den1.
    return lambda g1, g2: real(g1, g2.scale(Fraction(_denominator(g2), _denominator(g1))))


def _doubled_at_width_one(real):
    # Width-1 products come out doubled: width 0 is right, so only an embedded product sees it.
    return lambda g1, g2: real(g1, g2).scale(2) if g1.n == 1 else real(g1, g2)


def _past_the_basis(real):
    # Every column also reaches an index past the basis, which lies in no restriction group.
    return lambda weighted, dimension: [{**col, dimension: 1} for col in real(weighted, dimension)]


def _swapped_groups(real):
    # Each group keeps its part index but holds the basis indices of the group opposite it.
    def restriction_groups(space):
        groups = real(space)
        return [(j, indices) for (j, _), (_, indices) in zip(groups, groups[::-1])]
    return restriction_groups


def _collapsed_index(real):
    # Every module reads each basis vector's index as 0.
    def module_space(n, c, bottom):
        space = real(n, c, bottom)
        space.__dict__["_index"] = dict.fromkeys(space.basis, 0)
        return space
    return module_space


def _shifted_level(real):
    # Level 2's last vertex sits on level 1: the non-root vertex count is kept.
    def build(c, n_max):
        graph = real(c, n_max)
        levels = list(graph.levels)
        levels[1], levels[2] = levels[1] + levels[2][-1:], levels[2][:-1]
        return dataclasses.replace(graph, levels=tuple(levels))
    return build


_WITNESS_CASES = [
    pytest.param(lambda: checks.check_enumeration_count((1, 1)),
                 [(checks, "is_planar", lambda real: lambda d: real(d) and d.size != 1)],
                 ["(n=1, c=1): enumeration produced a non-planar diagram"],
                 id="enumeration-non-planar"),
    pytest.param(lambda: checks.check_enumeration_count((1, 1)),
                 [(checks, "_all_planar", lambda real: lambda n, c: real(n, c)[:-1] + real(n, c)[:1])],
                 ["(n=1, c=1): enumeration repeated a diagram"],
                 id="enumeration-repeated"),
    pytest.param(lambda: checks.check_enumeration_count((1, 1)),
                 [(checks, "cardinality", _plus_one)],
                 [f"(n={n}, c=1): enumerated {n + 1} diagrams, formula gives {n + 2}" for n in (0, 1)],
                 id="enumeration-count"),
    pytest.param(lambda: checks.check_associativity((1, 2), (0, 2), 0, 1),
                 [(checks, "multiply", _skewed_product)],
                 ["(n=1 c=2 [1-1:1]) * (n=1 c=2 [1-1:2]) * (n=1 c=2 [1-1:1])"],
                 id="associativity"),
    pytest.param(lambda: checks.check_associativity((0, 2), (1, 2), 12, 2),
                 [(checks, "multiply", _skewed_product)],
                 ["sampled (n=1 c=2 [1-1:1]) * (n=1 c=2 [1-1:2]) * (n=1 c=2 [1-1:1])"],
                 id="associativity-sampled"),
    pytest.param(lambda: checks.check_profile_roundtrip((1, 1)),
                 # The round trip then reads the top row twice, so only the part sizes differ.
                 [(checks, "bottom_profile", _isolated_bottom),
                  (checks, "from_profiles", lambda real: lambda top, bottom: real(top, top))],
                 ["n=1 c=1 [1-1:1]: row part sizes differ"],
                 id="profile-sizes"),
    pytest.param(lambda: checks.check_profile_roundtrip((2, 1)),
                 [(checks, "from_profiles", lambda real: lambda top, bottom: real(bottom, top))],
                 ["n=2 c=1 [2-1:1]: profile round trip failed", "n=2 c=1 [1-2:1]: profile round trip failed"],
                 id="profile-roundtrip"),
    pytest.param(lambda: checks.check_identity_unit((1, 1)),
                 [(algebra, "identity", lambda real: lambda n, c: algebra.from_diagram(Diagram(n, c, [])))],
                 ["unit fails on n=1 c=1 [1-1:1]"],
                 id="identity-unit"),
    pytest.param(lambda: checks.check_x_inversion((1, 1), 0, 1),
                 [(algebra, "to_x_coordinates", _without_empty_coordinate)],
                 ["x-coordinates of n=1 c=1 [1-1:1] are not its subdiagram indicators"],
                 id="x-indicators"),
    pytest.param(lambda: checks.check_x_inversion((1, 1), 5, 1),
                 [(algebra, "to_x_coordinates", lambda real: lambda g: {a: q * q for a, q in real(g).items()})],
                 ["x-coordinates are not linear on a sampled pair"] * 5,
                 id="x-linearity"),
    pytest.param(lambda: checks.check_x_inversion((1, 1), 5, 1),
                 [(algebra.AlgebraElement, "scale", _scale_by_the_numerator)],
                 ["x-coordinates are not linear on a sampled pair"] * 3,
                 id="x-linearity-scale-numerator"),
    pytest.param(lambda: checks.check_x_inversion((1, 1), 5, 1),
                 [(algebra.AlgebraElement, "__add__", _sum_over_the_left_denominator)],
                 ["x-coordinates are not linear on a sampled pair"] * 4,
                 id="x-linearity-add-left-denominator"),
    pytest.param(lambda: checks.check_x_inversion((2, 1), 10, 1),
                 [(algebra, "to_x_coordinates", _first_coordinate_lost_past_three_terms)],
                 ["x-coordinates of x_d differ from a unit vector at n=2 c=1 [1-1:1, 2-2:1]"]
                 + ["x-coordinates are not linear on a sampled pair"] * 3,
                 id="x-linearity-lost-coordinate"),
    pytest.param(lambda: checks.check_block_preservation((1, 1)),
                 [(algebra, "left_action_x", lambda real: algebra.multiply)],
                 ["d=n=1 c=1 [], a=n=1 c=1 [1-1:1]"],
                 id="block-preservation"),
    pytest.param(lambda: checks.check_embed((1, 2), 0, 2),
                 [(algebra, "embed", _doubled_unit)],
                 [f"embedding does not preserve the unit at (n={n}, c={c})" for c in (1, 2) for n in (0, 1)],
                 id="embed-unit"),
    pytest.param(lambda: checks.check_embed((2, 2), 0, 2),
                 [(algebra, "_column_states", _isolated_weight_minus_c)],
                 [
                     text.format(n)
                     for n in range(3)
                     for text in ("embedding does not preserve the unit at (n={}, c=2)",
                                  "embedding differs from tensoring the unit column at (n={}, c=2)")
                 ],
                 id="embed-unit-column-states"),
    pytest.param(lambda: checks.check_embed((0, 1), 10, 1),
                 [(algebra.AlgebraElement, "__mul__", _doubled_at_width_one)],
                 ["embedding is not multiplicative at (n=0, c=1)"],
                 id="embed-product"),
    pytest.param(lambda: checks.check_embed((0, 2), 10, 1),
                 # The unit check compares with a power of the same wrong column, so it fails too.
                 [(algebra, "unit_diagram", lambda real: lambda c, color: real(c, 0))],
                 [
                     text.format(c)
                     for c in (1, 2)
                     for text in ("embedding does not preserve the unit at (n=0, c={})",
                                  "embedding differs from tensoring the unit column at (n=0, c={})")
                 ],
                 id="embed-tensor"),
    pytest.param(lambda: checks.check_multiplicity_count((1, 1)),
                 [(checks, "multinomial", _plus_one)],
                 ["label 0|0: 1 profiles", "label 1|0: 1 profiles", "label 0|1: 1 profiles"],
                 id="multiplicity-count"),
    pytest.param(lambda: checks.check_irreducibility((1, 1)),
                 [(representations, "left_action_x", lambda real: lambda d, a: None)],
                 [
                     "module at bottom ((), ()): ['transport n=0 c=1 [] fails to map n=0 c=1 [] to n=0 c=1 []']",
                     "module at bottom ((1,), ()): ['transport n=1 c=1 [] fails to map n=1 c=1 [] to n=1 c=1 []']",
                     "module at bottom ((), (1,)): "
                     "['transport n=1 c=1 [1-1:1] fails to map n=1 c=1 [1-1:1] to n=1 c=1 [1-1:1]']",
                 ],
                 id="irreducibility"),
    pytest.param(lambda: representations.verify_irreducible(label_module(IrrepLabel((1, 1)))),
                 [(representations, "diagram_action", lambda real: lambda d, space: (None,) * space.dimension)],
                 [
                     "projector n=2 c=1 [2-2:1] is not the unit projection at n=2 c=1 [2-2:1]",
                     "projector n=2 c=1 [1-1:1] is not the unit projection at n=2 c=1 [1-2:1]",
                 ],
                 id="irreducible-projector"),
    pytest.param(lambda: checks.check_isomorphism_classification((1, 1)),
                 [(checks, "are_isomorphic", lambda real: lambda s1, s2: real(s2, s2))],
                 [
                     "classification differs from size criterion: ((1,), ()) vs ((), (1,))",
                     "classification differs from size criterion: ((), (1,)) vs ((1,), ())",
                 ],
                 id="classification"),
    pytest.param(lambda: checks.check_isomorphism_classification((2, 1)),
                 [(checks, "module_space", _collapsed_index)],
                 [
                     f"intertwiner's index map is not the identity: {p1} vs {p2}"
                     for p1 in (((1,), (2,)), ((2,), (1,))) for p2 in (((1,), (2,)), ((2,), (1,)))
                 ],
                 id="intertwiner-bijection"),
    pytest.param(lambda: checks.check_regular_decomposition((1, 1)),
                 [(checks, "multinomial", _plus_one)],
                 [
                     "(n=0, c=1): bottom profile ((), ()) spans 1 vectors, expected 2",
                     "(n=1, c=1): bottom profile ((1,), ()) spans 1 vectors, expected 2",
                     "(n=1, c=1): bottom profile ((), (1,)) spans 1 vectors, expected 2",
                 ],
                 id="decomposition-blocks"),
    pytest.param(lambda: checks.check_regular_decomposition((1, 1)),
                 [(checks, "cardinality", _plus_one)],
                 [f"(n={n}, c=1): multiplicity-weighted dimensions sum to {n + 1}, |P| = {n + 2}" for n in (0, 1)],
                 id="decomposition-count"),
    pytest.param(lambda: checks.check_regular_decomposition((1, 1)),
                 [(checks, "all_bottom_profiles", lambda real: lambda n, c: list(real(n, c))[:-1])],
                 [
                     "(n=0, c=1): unexpected bottom profiles [((), ())]",
                     "(n=1, c=1): unexpected bottom profiles [((), (1,))]",
                 ],
                 id="decomposition-unexpected"),
    pytest.param(lambda: checks.check_restriction((1, 1)),
                 [(checks, "weighted_columns", _past_the_basis)],
                 [
                     "bottom ((1,), ()): ['group 0 of 1|0 is not invariant under n=0 c=1 []']",
                     "bottom ((), (1,)): ['group 1 of 0|1 is not invariant under n=0 c=1 []']",
                 ],
                 id="restriction-invariance"),
    pytest.param(lambda: checks.check_restriction((2, 1)),
                 # A failing class's first witness names each of its bottom profiles, in all_bottom_profiles order.
                 [(checks, "weighted_columns", _past_the_basis)],
                 [
                     "bottom ((1,), ()): ['group 0 of 1|0 is not invariant under n=0 c=1 []']",
                     "bottom ((), (1,)): ['group 1 of 0|1 is not invariant under n=0 c=1 []']",
                     "bottom ((1, 2), ()): ['group 0 of 2|0 is not invariant under n=1 c=1 []']",
                     "bottom ((1,), (2,)): ['group 0 of 1|1 is not invariant under n=1 c=1 []']",
                     "bottom ((2,), (1,)): ['group 0 of 1|1 is not invariant under n=1 c=1 []']",
                     "bottom ((), (1, 2)): ['group 1 of 0|2 is not invariant under n=1 c=1 []']",
                 ],
                 id="restriction-invariance-per-profile"),
    pytest.param(lambda: checks.check_restriction((2, 1)),
                 # Only class 1|1 has two groups; its first witness names both of its bottom profiles.
                 [(checks, "restriction_groups", _swapped_groups)],
                 [
                     f"bottom {parts}: ['group 0 of 1|1 holds basis 0, whose top vertex 2 is not in part 0']"
                     for parts in (((1,), (2,)), ((2,), (1,)))
                 ],
                 id="restriction-last-vertex"),
    pytest.param(lambda: checks.check_tower_levels((1, 1)),
                 [(bratteli, "vertex_count", _plus_one)],
                 ["level 0 at c=1 has 1 vertices", "level 1 at c=1 has 2 vertices"],
                 id="tower-levels"),
    pytest.param(lambda: checks.check_tower_degrees((1, 1)),
                 [(bratteli, "adjacency_count", _plus_one)],
                 ["c=1, level 1, degree 1", "c=1, level 1, degree 2"],
                 id="tower-degrees"),
    pytest.param(lambda: checks.check_tower_degrees((1, 1)),
                 [(bratteli, "down_degree_histogram", lambda real: lambda graph, n: {**real(graph, n), 0: 1})],
                 ["c=1, level 1: histogram does not cover the level"],
                 id="tower-histogram"),
    pytest.param(lambda: checks.check_tower_restriction_consistency((1, 1)),
                 [(checks, "restriction_decomposition", lambda real: lambda space: real(space)[1:])],
                 ["c=1, label 1|0", "c=1, label 0|1"],
                 id="tower-restriction"),
    pytest.param(lambda: checks.check_pascal_triangle((2, 1)),
                 [(bratteli, "build", _shifted_level)],
                 [
                     "level 1 is not a triangle row",
                     "level 1 dimensions are not binomials",
                     "level 2 is not a triangle row",
                     "level 2 dimensions are not binomials",
                     "vertex 0|2 at level 1: dimension 1 but children sum to 0",
                 ],
                 id="pascal-triangle"),
]


@pytest.mark.parametrize("run, faults, expected", _WITNESS_CASES)
def test_every_witness_text_is_pinned(monkeypatch, run, faults, expected):
    # Each fault is built from the function it replaces; the faulty run keeps the passing run's case count.
    passing = run()
    assert passing.ok
    for owner, name, fault in faults:
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    outcome = run()
    assert (outcome.witnesses, outcome.error) == (expected, None)
    assert outcome.checked == passing.checked


def test_a_misplaced_last_vertex_is_the_last_witness_of_its_class(monkeypatch):
    # Read on, the column-drop map would strip vertex n from a part that does not hold it.
    monkeypatch.setattr(checks, "restriction_groups", _swapped_groups(checks.restriction_groups))
    space = label_module(IrrepLabel((1, 1)))
    assert list(checks._restriction_witnesses(space, [], [])) == [
        "group 0 of 1|1 holds basis 0, whose top vertex 2 is not in part 0"
    ]
