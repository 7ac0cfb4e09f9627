"""Finite verification suite for every structural claim the engine relies on.

Each check sweeps the shapes of an exhaustive range (clipped by the
configured caps) or a seeded random sample and reports an explicit witness
for every failure; a check that verifies one object at a time keeps the first
witness of each failing object.  Every claim is verified in one place, by a
generator of case counts (``int``) and witnesses (``str``) that ``@tallied``
runs at the call into its :class:`CheckResult`.  All arithmetic is exact, so
a check either passes identically or names a counterexample.

No check takes a diagram cap: :func:`run_verification` compares its cap
with |P| at the largest shape it sweeps and with the Pascal-triangle tower
once, before any check runs.  It runs each check in a guard, so a check
that raises is reported as a failed result with its error.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from typing import Iterator

from . import algebra, bratteli, representations
from .diagrams import (
    DEFAULT_DIAGRAM_CAP,
    Diagram,
    Profile,
    bottom_profile,
    cardinality,
    enumerate_planar,
    format_diagram,
    from_profiles,
    is_planar,
    multinomial,
    multiply,
    profiles_with_sizes,
    require_monoid_cap,
    to_matrix,
    top_profile,
    vertical_color_counts,
    vertical_subdiagram,
)
from .representations import (
    CheckResult,
    ModuleSpace,
    all_bottom_profiles,
    all_labels,
    are_isomorphic,
    compose_column_maps,
    diagram_action,
    fixed_points,
    label_module,
    module_space,
    regular_decomposition,
    restriction_decomposition,
    restriction_groups,
    tallied,
    verify_irreducible,
    weighted_columns,
)


@dataclass(frozen=True)
class VerifyConfig:
    """Caps and sampling parameters for one verification run."""

    n_cap: int = 3
    c_cap: int = 2
    diagram_cap: int = DEFAULT_DIAGRAM_CAP
    samples: int = 1000
    seed: int = 12345


Scope = tuple[int, int]


_tables: dict | None = None  # keyed by (builder, *args); None outside run_verification


def _per_run(build):
    """Memoize a table builder for the length of one run_verification; outside a run, build afresh."""
    def table(*args):
        if _tables is None:
            return build(*args)
        if (key := (build, *args)) not in _tables:
            _tables[key] = build(*args)
        return _tables[key]
    return table


@_per_run
def _all_planar(n: int, c: int) -> tuple[Diagram, ...]:
    return tuple(enumerate_planar(n, c))


@_per_run
def _products(n: int, c: int) -> dict[tuple[Diagram, Diagram], Diagram]:
    """Every product ``a * b`` in the monoid, ``a`` outer and ``b`` inner, for the |P|^2 sweeps."""
    pool = _all_planar(n, c)
    return {(a, b): multiply(a, b) for a in pool for b in pool}


@_per_run
def _actions(n: int, c: int) -> dict[tuple[int, ...], tuple[ModuleSpace, dict[Diagram, tuple]]]:
    """Each class's module and the column map of every monoid diagram on it, by part sizes: T is never read."""
    pool = _all_planar(n, c)
    spaces = (label_module(label) for label in all_labels(n, c))
    return {space.bottom.sizes: (space, {d: diagram_action(d, space) for d in pool}) for space in spaces}


def _draws(pool, samples: int, seed: int, k: int) -> list[tuple[Diagram, ...]]:
    """``samples`` seeded draws of ``k`` diagrams each from ``pool``; ``mul --spot-check`` draws here too."""
    rng = random.Random(seed)
    return [tuple(rng.choice(pool) for _ in range(k)) for _ in range(samples)]


def _shapes(scope: Scope):
    n_max, c_max = scope
    for c in range(1, c_max + 1):
        for n in range(n_max + 1):
            yield n, c


def _towers(scope: Scope):
    n_max, c_max = scope
    for c in range(1, c_max + 1):
        yield c, bratteli.build(c, n_max)


# Fraction(p, q) for every draw p in -5..5, q in 1..3, in storage form: an integral value as its int.
_DRAWN = {(p, q): p // q if p % q == 0 else Fraction(p, q) for p in range(-5, 6) for q in range(1, 4)}


def _random_element(rng: random.Random, pool, n: int, c: int) -> algebra.AlgebraElement:
    """One to three terms, each a drawn coefficient ``Fraction(randint(-5, 5), randint(1, 3))`` and ``choice(pool)``."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        coeff = _DRAWN[rng.randint(-5, 5), rng.randint(1, 3)]
        d = rng.choice(pool)
        terms[d] = terms[d] + coeff if d in terms else coeff
    return algebra.AlgebraElement(n, c, terms)


# ---------------------------------------------------------------------------
# Diagram-level checks.

@tallied("diagram.enumeration-count")
def check_enumeration_count(scope: Scope) -> CheckResult:
    """Enumeration yields each planar diagram exactly once, matching the formula."""
    for n, c in _shapes(scope):
        pool = _all_planar(n, c)
        yield 1
        if any(not is_planar(d) for d in pool):
            yield f"(n={n}, c={c}): enumeration produced a non-planar diagram"
        if len(set(pool)) != len(pool):
            yield f"(n={n}, c={c}): enumeration repeated a diagram"
        if len(pool) != cardinality(n, c):
            yield (
                f"(n={n}, c={c}): enumerated {len(pool)} diagrams, formula gives {cardinality(n, c)}"
            )


@tallied("diagram.associativity")
def check_associativity(exhaustive: Scope, sampled: Scope, samples: int, seed: int) -> CheckResult:
    for n, c in _shapes(exhaustive):
        pool = _all_planar(n, c)
        table = _products(n, c)
        for (a, b), ab in table.items():
            for d in pool:
                yield 1
                if multiply(ab, d) != multiply(a, table[b, d]):
                    yield (
                        f"({format_diagram(a)}) * ({format_diagram(b)}) * ({format_diagram(d)})"
                    )
    for a, b, d in _draws(_all_planar(*sampled), samples, seed, 3):
        yield 1
        if multiply(multiply(a, b), d) != multiply(a, multiply(b, d)):
            yield (
                f"sampled ({format_diagram(a)}) * ({format_diagram(b)}) * ({format_diagram(d)})"
            )


def _product_sweep(scope: Scope, fails, suffix: str = "") -> Iterator[int | str]:
    """Test ``fails(a, b, a * b)`` on every product of the shapes in ``scope``."""
    for n, c in _shapes(scope):
        for (a, b), ab in _products(n, c).items():
            yield 1
            if fails(a, b, ab):
                yield f"({format_diagram(a)}) * ({format_diagram(b)}){suffix}"


@tallied("diagram.rook-closure")
def check_rook_closure(scope: Scope) -> CheckResult:
    """Products never place two edges on one vertex."""
    yield from _product_sweep(
        scope,
        lambda a, b, p: len({t for t, _, _ in p.edges}) != p.size or len({x for _, x, _ in p.edges}) != p.size,
    )


@tallied("diagram.planarity-closure")
def check_planarity_closure(scope: Scope) -> CheckResult:
    yield from _product_sweep(
        scope, lambda a, b, p: not is_planar(p), " is not planar"
    )


@tallied("diagram.size-monotonicity")
def check_size_monotonicity(scope: Scope) -> CheckResult:
    yield from _product_sweep(
        scope, lambda a, b, p: p.size > min(a.size, b.size), " grew"
    )


@tallied("diagram.profile-roundtrip")
def check_profile_roundtrip(scope: Scope) -> CheckResult:
    """Profiles determine planar diagrams; the two rows have equal part sizes."""
    for n, c in _shapes(scope):
        for d in _all_planar(n, c):
            yield 1
            top, bottom = top_profile(d), bottom_profile(d)
            if top.sizes != bottom.sizes:
                yield f"{format_diagram(d)}: row part sizes differ"
            if from_profiles(top, bottom) != d:
                yield f"{format_diagram(d)}: profile round trip failed"


def _bitmask_matrix(d: Diagram) -> list[list[int]]:
    return [[0 if k == 0 else 1 << (k - 1) for k in row] for row in to_matrix(d)]


def _bitmask_product(m1: list[list[int]], m2: list[list[int]]) -> list[list[int]]:
    # Entry ring: componentwise product is AND, componentwise sum is XOR.
    size = len(m1)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc = 0
            for m in range(size):
                acc ^= m1[i][m] & m2[m][j]
            out[i][j] = acc
    return out


@tallied("diagram.matrix-semantics")
def check_matrix_semantics(scope: Scope) -> CheckResult:
    """Diagram composition agrees with matrix multiplication over the color ring."""
    mask = lru_cache(maxsize=None)(_bitmask_matrix)  # once per diagram, for this call only
    yield from _product_sweep(
        scope, lambda a, b, p: _bitmask_product(mask(a), mask(b)) != mask(p)
    )


# ---------------------------------------------------------------------------
# Algebra-level checks.

@tallied("algebra.identity-unit")
def check_identity_unit(scope: Scope) -> CheckResult:
    for n, c in _shapes(scope):
        unit = algebra.identity(n, c)
        for d in _all_planar(n, c):
            yield 1
            as_elem = algebra.from_diagram(d)
            if unit * as_elem != as_elem or as_elem * unit != as_elem:
                yield f"unit fails on {format_diagram(d)}"


@tallied("algebra.x-basis-inversion")
def check_x_inversion(scope: Scope, samples: int, seed: int) -> CheckResult:
    """The alternating-sum basis change inverts exactly, and linearly."""
    for n, c in _shapes(scope):
        pool = _all_planar(n, c)
        for d in pool:
            yield 1
            total: dict[Diagram, int] = {}  # the x-elements' terms, summed as ints: each is +-1
            for sub in algebra.subdiagrams(d):
                for term, q in algebra.x_of(sub).terms.items():
                    total[term] = total.get(term, 0) + q
            if {term: q for term, q in total.items() if q} != algebra.from_diagram(d).terms:
                yield f"sum of x over subdiagrams of {format_diagram(d)} is not d"
            if algebra.to_x_coordinates(algebra.x_of(d)) != {d: Fraction(1)}:
                yield f"x-coordinates of x_d differ from a unit vector at {format_diagram(d)}"
            expected = {sub: Fraction(1) for sub in algebra.subdiagrams(d)}
            if algebra.to_x_coordinates(algebra.from_diagram(d)) != expected:
                yield f"x-coordinates of {format_diagram(d)} are not its subdiagram indicators"
    rng = random.Random(seed)
    n, c = scope
    pool = _all_planar(n, c)
    for _ in range(samples):
        g1 = _random_element(rng, pool, n, c)
        g2 = _random_element(rng, pool, n, c)
        alpha = _DRAWN[rng.randint(-4, 4), rng.randint(1, 3)]
        yield 1
        left = algebra.to_x_coordinates(g1.scale(alpha) + g2)
        x1, x2 = algebra.to_x_coordinates(g1), algebra.to_x_coordinates(g2)
        # Reference: alpha x1 + x2 in integer numerators over den, compared with ``left`` by cross-multiplying.
        den = alpha.denominator * math.lcm(*{q.denominator for coords in (x1, x2) for q in coords.values()})
        right: dict[Diagram, int] = {}
        for coords, weight in ((x1, alpha), (x2, 1)):
            for d_key, q in coords.items():
                p = weight.numerator * q.numerator * (den // (weight.denominator * q.denominator))
                right[d_key] = right.get(d_key, 0) + p
        if left.keys() != {k for k, p in right.items() if p} or any(
            q.numerator * den != right[k] * q.denominator for k, q in left.items()
        ):
            yield "x-coordinates are not linear on a sampled pair"


def _action_check(
    exhaustive: Scope, sampled: Scope, samples: int, seed: int, act, witness: str
) -> Iterator[int | str]:
    """Compare ``act(d, a)``, an (expansion, fast image) pair, on exhaustive then sampled pairs."""
    pairs = [("", d, a) for n, c in _shapes(exhaustive) for d, a in product(_all_planar(n, c), repeat=2)]
    pairs += [("sampled ", d, a) for d, a in _draws(_all_planar(*sampled), samples, seed, 2)]
    for prefix, d, a in pairs:
        yield 1
        expansion, fast = act(d, a)
        if expansion != (algebra.zero(d.n, d.c) if fast is None else algebra.x_of(fast)):
            yield prefix + witness.format(d=format_diagram(d), a=format_diagram(a))


@tallied("algebra.x-action-left")
def check_left_action(exhaustive: Scope, sampled: Scope, samples: int, seed: int) -> CheckResult:
    """The containment fast path reproduces the full bilinear expansion."""
    yield from _action_check(
        exhaustive, sampled, samples, seed,
        lambda d, a: (algebra.from_diagram(d) * algebra.x_of(a), algebra.left_action_x(d, a)),
        "d={d}, a={a}",
    )


@tallied("algebra.x-action-right")
def check_right_action(exhaustive: Scope, sampled: Scope, samples: int, seed: int) -> CheckResult:
    yield from _action_check(
        exhaustive, sampled, samples, seed,
        lambda d, a: (algebra.x_of(a) * algebra.from_diagram(d), algebra.right_action_x(a, d)),
        "a={a}, d={d}",
    )


@tallied("algebra.block-preservation")
def check_block_preservation(scope: Scope) -> CheckResult:
    """A nonzero left action fixes the bottom profile and the edge count."""
    for n, c in _shapes(scope):
        pool = _all_planar(n, c)
        for d in pool:
            for a in pool:
                yield 1
                image = algebra.left_action_x(d, a)
                if image is None:
                    continue
                if bottom_profile(image) != bottom_profile(a) or image.size != a.size:
                    yield f"d={format_diagram(d)}, a={format_diagram(a)}"


@tallied("algebra.embed-homomorphism")
def check_embed(scope: Scope, samples: int, seed: int) -> CheckResult:
    """Appending a unit column is a unital algebra homomorphism."""
    rng = random.Random(seed)
    for n, c in _shapes(scope):
        # Reference: the unit column is the sum of the one-edge columns minus c - 1 times the empty column;
        # the unit of width n + 1 is n + 1 of them side by side, and embedding g puts one beside g.
        columns = [algebra.from_diagram(algebra.unit_diagram(c, i)) for i in range(c + 1)]
        unit_column = sum(columns[1:], columns[0].scale(-(c - 1)))
        yield 1
        if algebra.embed(algebra.identity(n, c)) != reduce(algebra.AlgebraElement.tensor, [unit_column] * (n + 1)):
            yield f"embedding does not preserve the unit at (n={n}, c={c})"
        pool = _all_planar(n, c)
        for _ in range(max(1, samples // 10)):
            g1 = _random_element(rng, pool, n, c)
            g2 = _random_element(rng, pool, n, c)
            yield 1
            embedded = algebra.embed(g1)
            if algebra.embed(g1 * g2) != embedded * algebra.embed(g2):
                yield f"embedding is not multiplicative at (n={n}, c={c})"
            if embedded != g1.tensor(unit_column):
                yield f"embedding differs from tensoring the unit column at (n={n}, c={c})"


# ---------------------------------------------------------------------------
# Module-level checks.

@tallied("modules.rho-homomorphism")
def check_rho_homomorphism(scope: Scope) -> CheckResult:
    """Actions are unital on every module and multiplicative on class representatives."""
    for n, c in _shapes(scope):
        actions = _actions(n, c)
        unit = algebra.identity(n, c)
        for space, maps in actions.values():
            columns = weighted_columns(((q, maps[d]) for d, q in unit.terms.items()), space.dimension)
            for profile in space.top_profiles:  # the class's bottom profiles: its columns, counted for each
                yield 1
                if columns != [{j: 1} for j in range(space.dimension)]:
                    yield f"unit does not act as identity on bottom {profile.parts}"
        pool = _all_planar(n, c)
        index = {d: i for i, d in enumerate(pool)}
        triples = [(index[d1], index[d2], index[d12]) for (d1, d2), d12 in _products(n, c).items()]
        for space, by_diagram in actions.values():  # one per class, in label order
            maps = [by_diagram[d] for d in pool]
            yield len(triples)
            for i, j, k in triples:
                if compose_column_maps(maps[i], maps[j]) != maps[k]:
                    yield (
                        f"action of product differs from composed actions: "
                        f"{format_diagram(pool[i])}, {format_diagram(pool[j])} on {space.label().encode()}"
                    )


@tallied("modules.column-structure")
def check_column_structure(scope: Scope) -> CheckResult:
    """A single diagram sends each basis vector to one basis vector or to zero."""
    for n, c in _shapes(scope):
        for space, maps in _actions(n, c).values():  # one per class, in label order
            for d, column in maps.items():
                yield 1
                for j, i in enumerate(column):
                    if i is not None and not (type(i) is int and 0 <= i < space.dimension):
                        yield f"{format_diagram(d)} on {space.label().encode()} column {j}"


@tallied("modules.character-trace")
def check_character(scope: Scope) -> CheckResult:
    """The closed form equals the trace; traces see only vertical edges, via their counts.

    Each trace is the fixed-point count of ``diagram_action``'s column map,
    so the vertical-edge rule is tested, not assumed.
    """
    for n, c in _shapes(scope):
        pool = _all_planar(n, c)
        labels = all_labels(n, c)
        tables = [maps for _, maps in _actions(n, c).values()]  # one column-map table per class, in label order
        traces = {d: tuple(fixed_points(maps[d]) for maps in tables) for d in pool}
        by_verticals: dict[tuple[int, ...], tuple[int, ...]] = {}
        for d in pool:
            row = traces[d]
            for label, value in zip(labels, row):
                yield 1
                if representations.character(d, label) != value:
                    yield f"character of {format_diagram(d)} at {label.encode()}"
            if traces[vertical_subdiagram(d)] != row:
                yield f"trace of {format_diagram(d)} changes when non-vertical edges drop"
            key = vertical_color_counts(d)
            if by_verticals.setdefault(key, row) != row:
                yield f"trace of {format_diagram(d)} disagrees within vertical class {key}"


@tallied("modules.multiplicity-count")
def check_multiplicity_count(scope: Scope) -> CheckResult:
    """Each class label is realized by multinomially many bottom profiles."""
    for n, c in _shapes(scope):
        for label in all_labels(n, c):
            yield 1
            count = sum(1 for _ in profiles_with_sizes(n, c, label.sizes))
            if count != multinomial(label.sizes):
                yield f"label {label.encode()}: {count} profiles"


@tallied("modules.irreducibility")
def check_irreducibility(scope: Scope) -> CheckResult:
    """Single-profile modules are irreducible; mixed-profile spans are not."""
    for n, c in _shapes(scope):
        for profile in all_bottom_profiles(n, c):
            yield 1
            outcome = verify_irreducible(module_space(n, c, profile))
            if not outcome:
                yield f"module at bottom {profile.parts}: {outcome.witnesses[:1]}"
        if n >= 2:
            pool = _all_planar(n, c)
            for k in range(1, n + 1):
                span = {d for d in pool if d.size == k}
                # Reducible exactly when the span mixes bottom profiles (for
                # c = 1, k = n the identity matching is alone and the span is
                # a one-dimensional module).
                mixed = len({bottom_profile(a) for a in span}) > 1
                transitive = all(span <= {algebra.left_action_x(d, a) for d in pool} for a in span)
                yield 1
                if transitive == mixed:
                    yield (
                        f"span of all size-{k} vectors at (n={n}, c={c}) has the wrong reducibility"
                    )


@tallied("modules.isomorphism-classification")
def check_isomorphism_classification(scope: Scope) -> CheckResult:
    """Isomorphism holds iff part sizes match, and every witness validates.

    A class's modules share one column-map table in one basis order, whose projector from_profiles(S, S)
    fixes only the index of S: an intertwiner commutes with the table iff its index map, built at the
    diagram level where T enters, is the identity.  Neither this nor a per-pair sweep of the table reads
    whether the packed action depends on T (ROADMAP items 9 and 10).
    """
    for n, c in _shapes(scope):
        actions = _actions(n, c)  # the intertwiner and the distinguisher read T, so each profile has its own module
        modules = [(p, module_space(n, c, p), actions[p.sizes][1]) for p in all_bottom_profiles(n, c)]
        for p1, space1, maps1 in modules:
            for p2, space2, maps2 in modules:
                yield 1
                result = are_isomorphic(space1, space2)
                if result.isomorphic != (p1.sizes == p2.sizes):
                    yield f"classification differs from size criterion: {p1.parts} vs {p2.parts}"
                    continue
                if result.isomorphic:
                    try:
                        phi = [space2.index_of(multiply(a, result.intertwiner)) for a in space1.basis]
                    except KeyError:
                        yield f"intertwiner leaves the target basis: {p1.parts} vs {p2.parts}"
                        continue
                    if phi != list(range(space1.dimension)):
                        yield f"intertwiner's index map is not the identity: {p1.parts} vs {p2.parts}"
                else:
                    d = result.distinguisher
                    live, dead = (maps1, maps2) if result.annihilated == 2 else (maps2, maps1)
                    if all(i is None for i in live[d]):
                        yield f"distinguisher acts as zero on both: {p1.parts} vs {p2.parts}"
                    if any(i is not None for i in dead[d]):
                        yield f"distinguisher does not annihilate: {p1.parts} vs {p2.parts}"


def _matrix_block_witnesses(label: representations.IrrepLabel, pool) -> Iterator[str]:
    """Failures of a class's profile-pair x-elements: the matrix-unit law, then ideal escapes under ``pool``."""
    n, c, m = label.n, label.c, label.dimension()
    profiles = list(profiles_with_sizes(n, c, label.sizes))
    x_elems = {
        (i, j): algebra.x_of(from_profiles(profiles[i], profiles[j])) for i in range(m) for j in range(m)
    }
    zero = algebra.zero(n, c)
    for i, j, l, k in product(range(m), repeat=4):
        if x_elems[i, j] * x_elems[l, k] != (x_elems[i, k] if j == l else zero):
            yield f"x-pair product ({i},{j})*({l},{k}) deviates from the matrix law"
    for g in pool:
        g_elem = algebra.from_diagram(g)
        for (i, j), x in x_elems.items():
            for side in (g_elem * x, x * g_elem):
                for d in algebra.to_x_coordinates(side):
                    if bottom_profile(d).sizes != label.sizes:
                        yield (
                            f"ideal escape: {format_diagram(g)} times x-pair ({i},{j}) "
                            f"reaches class {bottom_profile(d).sizes}"
                        )


@tallied("modules.matrix-algebra")
def check_matrix_algebra(scope: Scope) -> CheckResult:
    """Each class spans a full matrix block that is a two-sided ideal."""
    for n, c in _shapes(scope):
        pool = _all_planar(n, c)
        for label in all_labels(n, c):
            yield 1
            if (first := next(_matrix_block_witnesses(label, pool), None)) is not None:
                yield f"label {label.encode()} at (n={n}, c={c}): {[first]}"


@tallied("modules.regular-decomposition")
def check_regular_decomposition(scope: Scope) -> CheckResult:
    """Multiplicity-weighted dimensions exhaust the algebra, block by block."""
    for n, c in _shapes(scope):
        yield 1
        total = sum(mult * label.dimension() for label, mult in regular_decomposition(n, c))
        if total != (size := cardinality(n, c)):
            yield f"(n={n}, c={c}): multiplicity-weighted dimensions sum to {total}, |P| = {size}"
        # The x-basis splits into bottom-profile blocks of multinomial size.
        by_bottom = Counter(bottom_profile(d) for d in _all_planar(n, c))
        for profile in all_bottom_profiles(n, c):
            got, expected = by_bottom.pop(profile, 0), multinomial(profile.sizes)
            if got != expected:
                yield (
                    f"(n={n}, c={c}): bottom profile {profile.parts} spans {got} vectors, expected {expected}"
                )
        if by_bottom:
            unexpected = sorted(p.parts for p in by_bottom)
            yield f"(n={n}, c={c}): unexpected bottom profiles {unexpected}"


def _restriction_witnesses(space: ModuleSpace, pool, columns) -> Iterator[str]:
    """Restriction failures of a module under ``pool``, width n-1, embedded as ``columns``: invariance, intertwining."""
    label, n = space.label(), space.n
    groups = restriction_groups(space)
    targets: dict[int, ModuleSpace] = {}
    phi: dict[int, Diagram] = {}  # basis index -> its image in the child module
    for (j, indices), child in zip(groups, restriction_decomposition(space)):  # both in group order
        child_space = targets[j] = label_module(child)
        for idx in indices:
            parts = list(space.top_profiles[idx].parts)
            if n not in parts[j]:  # the first witness is all check_restriction keeps of a class
                yield f"group {j} of {label.encode()} holds basis {idx}, whose top vertex {n} is not in part {j}"
                return
            parts[j] = tuple(v for v in parts[j] if v != n)
            phi[idx] = from_profiles(Profile(n - 1, space.c, tuple(parts)), child_space.bottom)
    members = {j: set(indices) for j, indices in groups}
    for d, cols in zip(pool, columns):
        for j, indices in groups:
            child_space = targets[j]
            for idx in indices:
                col = cols[idx]
                if any(i not in members[j] for i in col):
                    yield f"group {j} of {label.encode()} is not invariant under {format_diagram(d)}"
                    continue
                mapped = {child_space.index_of(phi[i]): q for i, q in col.items()}
                image = algebra.left_action_x(d, phi[idx])
                expected = {} if image is None else {child_space.index_of(image): 1}
                if mapped != expected:
                    yield (
                        f"column drop does not intertwine {format_diagram(d)} on "
                        f"{label.encode()} group {j} basis {idx}"
                    )


@tallied("modules.restriction-blocks")
def check_restriction(scope: Scope) -> CheckResult:
    """Column-drop restriction: invariance and intertwining, run once per class, reported per bottom profile.

    The groups, child modules, summed columns and ``left_action_x`` references read only the tops S, so each
    profile would repeat its class's run; the one step that reads T, top_profile(from_profiles(S, T)) == S, is
    check_profile_roundtrip's.  A run per profile would not read whether the packed action depends on T either
    (ROADMAP items 9 and 10).
    """
    for n, c in _shapes(scope):
        if n < 1:
            continue
        pool = _all_planar(n - 1, c)
        embedded = [algebra.embed(algebra.from_diagram(d)).terms for d in pool]
        for space, maps in _actions(n, c).values():  # label order, so profiles in all_bottom_profiles order
            columns = [weighted_columns(((q, maps[e]) for e, q in g.items()), space.dimension) for g in embedded]
            first = next(_restriction_witnesses(space, pool, columns), None)
            for profile in space.top_profiles:  # the class's bottom profiles; T enters only through the round trip
                yield 1
                if first is not None:
                    yield f"bottom {profile.parts}: {[first]}"


# ---------------------------------------------------------------------------
# Tower checks.

@tallied("bratteli.level-sizes")
def check_tower_levels(scope: Scope) -> CheckResult:
    for c, graph in _towers(scope):
        for n in range(graph.n_max + 1):
            yield 1
            if len(graph.level(n)) != bratteli.vertex_count(n, c):
                yield f"level {n} at c={c} has {len(graph.level(n))} vertices"


@tallied("bratteli.degree-histogram")
def check_tower_degrees(scope: Scope) -> CheckResult:
    """Down-degree histograms match the closed-form adjacency counts."""
    for c, graph in _towers(scope):
        for n in range(1, graph.n_max + 1):
            histogram = bratteli.down_degree_histogram(graph, n)
            for x in range(1, c + 2):
                yield 1
                if histogram.get(x, 0) != bratteli.adjacency_count(n, c, x):
                    yield f"c={c}, level {n}, degree {x}"
            if sum(histogram.values()) != bratteli.vertex_count(n, c):
                yield f"c={c}, level {n}: histogram does not cover the level"


def _recursion_witnesses(graph: bratteli.BratteliGraph) -> Iterator[str]:
    """Non-root vertices whose dimension is not the sum over their children, level by level."""
    for n in range(1, graph.n_max + 1):
        for idx, label in enumerate(graph.level(n)):
            child_sum = sum(graph.level(n - 1)[i].dimension() for i in graph.children_of(n, idx))
            if label.dimension() != child_sum:
                yield (
                    f"vertex {label.encode()} at level {n}: dimension {label.dimension()} "
                    f"but children sum to {child_sum}"
                )


@tallied("bratteli.recursion")
def check_tower_recursion(scope: Scope) -> CheckResult:
    """Every non-root vertex dimension equals the sum over its children."""
    for c, graph in _towers(scope):
        yield sum(map(len, graph.levels[1:]))  # the non-root vertices
        if (first := next(_recursion_witnesses(graph), None)) is not None:
            yield f"c={c}: {[first]}"


@tallied("bratteli.restriction-consistency")
def check_tower_restriction_consistency(scope: Scope) -> CheckResult:
    """Componentwise tower edges agree with the module-level restriction."""
    for c, graph in _towers(scope):
        for n in range(1, graph.n_max + 1):
            for idx, label in enumerate(graph.level(n)):
                yield 1
                from_graph = {graph.level(n - 1)[i] for i in graph.children_of(n, idx)}
                from_modules = set(restriction_decomposition(label_module(label)))
                if from_graph != from_modules:
                    yield f"c={c}, label {label.encode()}"


@tallied("bratteli.pascal-triangle")
def check_pascal_triangle(n_max: int) -> CheckResult:
    """The one-color tower is Pascal's triangle with the binomial recursion."""
    graph = bratteli.build(1, n_max)
    for n in range(n_max + 1):
        yield 1
        if len(graph.level(n)) != n + 1:
            yield f"level {n} is not a triangle row"
        dims = [label.dimension() for label in graph.level(n)]
        expected = [math.comb(n, k) for k in range(n + 1)]
        if dims != expected:
            yield f"level {n} dimensions are not binomials"
    yield sum(map(len, graph.levels[1:]))  # the non-root vertices
    yield from _recursion_witnesses(graph)


# ---------------------------------------------------------------------------
# The full suite.

def _guarded(check, *args) -> CheckResult:
    """Run one check; an exception it raises, an engine fault, becomes its failed result with the error."""
    try:
        return check(*args)
    except Exception as exc:
        return CheckResult(getattr(check, "name", check.__name__), 0, [], f"{type(exc).__name__}: {exc}")


def run_verification(config: VerifyConfig = VerifyConfig()) -> list[CheckResult]:
    """Run every check, exhaustive ranges clipped to the configured caps, each in a guard against faults."""

    def clip(n_max: int, c_max: int) -> Scope:
        return (min(n_max, config.n_cap), min(c_max, config.c_cap))

    samples = config.samples
    seed = config.seed
    # Every scope below that builds a monoid lies inside the enumeration check's, and |P| grows
    # with n and c: this refuses an over-cap run before any diagram.
    require_monoid_cap(*clip(5, 3), config.diagram_cap)
    bratteli.require_tower_cap(1, config.n_cap, config.diagram_cap)  # the Pascal-triangle check's tower
    global _tables
    _tables = {}
    try:
        results = [
            _guarded(check_enumeration_count, clip(5, 3)),
            _guarded(check_associativity, clip(2, 2), clip(4, 3), samples, seed),
            _guarded(check_rook_closure, clip(3, 2)),
            _guarded(check_planarity_closure, clip(3, 2)),
            _guarded(check_size_monotonicity, clip(3, 2)),
            _guarded(check_profile_roundtrip, clip(4, 2)),
            _guarded(check_matrix_semantics, clip(3, 2)),
            _guarded(check_identity_unit, clip(4, 3)),
            _guarded(check_x_inversion, clip(3, 2), samples, seed),
            _guarded(check_left_action, clip(2, 2), clip(3, 2), samples, seed),
            _guarded(check_right_action, clip(2, 2), clip(3, 2), samples, seed),
            _guarded(check_block_preservation, clip(3, 2)),
            _guarded(check_embed, clip(2, 2), samples, seed),
            _guarded(check_rho_homomorphism, clip(3, 2)),
            _guarded(check_column_structure, clip(3, 2)),
            _guarded(check_character, clip(4, 2)),
            _guarded(check_multiplicity_count, clip(4, 2)),
            _guarded(check_irreducibility, clip(3, 2)),
            _guarded(check_isomorphism_classification, clip(3, 2)),
            _guarded(check_matrix_algebra, clip(2, 2)),
            _guarded(check_regular_decomposition, clip(3, 2)),
            _guarded(check_restriction, clip(3, 2)),
            _guarded(check_tower_levels, clip(6, 4)),
            _guarded(check_tower_degrees, clip(6, 4)),
            _guarded(check_tower_recursion, clip(12, 4)),
            _guarded(check_tower_restriction_consistency, clip(4, 2)),
            _guarded(check_pascal_triangle, config.n_cap),
        ]
    finally:  # the pools, the product table and the action table live for one run only
        _tables = None
    results.sort(key=lambda r: r.name)
    return results
