"""Finite verification suite for every structural claim the engine relies on.

Each check sweeps the shapes of an exhaustive range (clipped by the
configured caps) or a seeded random sample and reports an explicit witness
for every failure; a check that verifies one object at a time keeps the first
witness of each failing object.  Every claim is verified in one place, by a
generator of case counts (``int``) and witnesses (``str``) that ``@tallied``
runs at the call into its :class:`CheckResult`.  All arithmetic is exact, so
a check either passes identically or names a counterexample.

Each check's scopes are written once, in its row of :func:`_rows`.  No check
takes a diagram cap: :func:`run_verification` refuses an n-cap or sample count
that is not an int >= 0, a c-cap that is not an int >= 1 and more samples than
its cap, clips the rows' scopes, compares its cap with |P| at the componentwise
largest monoid scope and with the Pascal-triangle tower once, before any check
runs, and runs each check in a guard, so a check that raises is reported as a
failed result with its error.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Iterator, NamedTuple

from . import algebra, bratteli, representations
from .diagrams import (
    DEFAULT_DIAGRAM_CAP,
    CapExceededError,
    Diagram,
    Profile,
    _require_counts,
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
    column_lookup,
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


@_per_run
def _x_elements(n: int, c: int) -> dict[Diagram, algebra.AlgebraElement]:
    """The x-basis element of every monoid diagram, expanded once: subdiagrams and products stay in the pool."""
    return {d: algebra.x_of(d) for d in _all_planar(n, c)}


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
    """One to three terms, each a drawn coefficient ``Fraction(randint(-5, 5), randint(1, 3))`` and ``choice(pool)``.

    ``randrange(b - a + 1) + a`` makes randint(a, b)'s one call ``_randbelow(b - a + 1)``: the same draws and state.
    Pool diagrams are planar, so the terms go to the trusted constructor in storage form.
    """
    terms = {}
    for _ in range(rng.randrange(3) + 1):
        coeff = _DRAWN[rng.randrange(11) - 5, rng.randrange(3) + 1]
        d = rng.choice(pool)
        terms[d] = algebra._coeff(terms[d] + coeff) if d in terms else coeff
    return algebra.AlgebraElement._trusted(n, c, {d: q for d, q in terms.items() if q})


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
            yield f"(n={n}, c={c}): enumerated {len(pool)} diagrams, formula gives {cardinality(n, c)}"


@tallied("diagram.associativity")
def check_associativity(exhaustive: Scope, sampled: Scope, samples: int, seed: int) -> CheckResult:
    for n, c in _shapes(exhaustive):
        pool, table = _all_planar(n, c), _products(n, c)

        def times(x: Diagram, y: Diagram) -> Diagram:  # a Diagram is a 3-tuple, never false: multiply off the table
            return table.get((x, y)) or multiply(x, y)

        for (a, b), ab in table.items():
            for d in pool:
                yield 1
                if times(ab, d) != times(a, table[b, d]):
                    yield f"({format_diagram(a)}) * ({format_diagram(b)}) * ({format_diagram(d)})"
    for a, b, d in _draws(_all_planar(*sampled), samples, seed, 3):
        yield 1
        if multiply(multiply(a, b), d) != multiply(a, multiply(b, d)):
            yield f"sampled ({format_diagram(a)}) * ({format_diagram(b)}) * ({format_diagram(d)})"


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
    yield from _product_sweep(scope, lambda a, b, p: not is_planar(p), " is not planar")


@tallied("diagram.size-monotonicity")
def check_size_monotonicity(scope: Scope) -> CheckResult:
    yield from _product_sweep(scope, lambda a, b, p: p.size > min(a.size, b.size), " grew")


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


def _packed_matrix(d: Diagram) -> tuple[list[int], list[list[int]]]:
    """to_matrix(d) packed: one int per row, entry j at bits c * j, and each entry times a row of ones."""
    # Color k is the bit 1 << (k - 1) and no edge 0: the color ring's product is AND and its sum XOR, bitwise.
    bits = [[0 if k == 0 else 1 << (k - 1) for k in row] for row in to_matrix(d)]
    ones = sum(1 << (d.c * j) for j in range(d.n))
    return [sum(e << (d.c * j) for j, e in enumerate(row)) for row in bits], [[e * ones for e in row] for row in bits]


def _packed_product(spreads: list[list[int]], rows: list[int]) -> list[int]:
    """Packed rows of a b from a's spread entries and b's packed rows: row i is the XOR over m of a_im & row m."""
    out = []
    for spread_row in spreads:
        acc = 0
        for spread, row in zip(spread_row, rows):
            acc ^= spread & row
        out.append(acc)
    return out


@tallied("diagram.matrix-semantics")
def check_matrix_semantics(scope: Scope) -> CheckResult:
    """Diagram composition agrees with matrix multiplication over the color ring, read off to_matrix alone."""
    packed = lru_cache(maxsize=None)(_packed_matrix)  # once per diagram, for this call only
    yield from _product_sweep(scope, lambda a, b, p: _packed_product(packed(a)[1], packed(b)[0]) != packed(p)[0])


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
        x = _x_elements(n, c)
        for d in _all_planar(n, c):
            yield 1
            total: dict[Diagram, int] = {}  # the x-elements' terms, summed as ints: each is +-1
            for sub in algebra.subdiagrams(d):
                for term, q in x[sub].terms.items():
                    total[term] = total.get(term, 0) + q
            if {term: q for term, q in total.items() if q} != algebra.from_diagram(d).terms:
                yield f"sum of x over subdiagrams of {format_diagram(d)} is not d"
            if algebra.to_x_coordinates(x[d]) != {d: Fraction(1)}:
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
    """Compare ``act(d, a, x_a)``, an (expansion, fast image) pair, on exhaustive then sampled pairs, shape by shape."""
    runs = [("", (n, c), product(_all_planar(n, c), repeat=2)) for n, c in _shapes(exhaustive)]
    runs.append(("sampled ", sampled, _draws(_all_planar(*sampled), samples, seed, 2)))
    for prefix, shape, pairs in runs:
        x, zero = _x_elements(*shape), algebra.zero(*shape)  # once per shape: outside a run, each call builds afresh
        for d, a in pairs:
            yield 1
            expansion, fast = act(d, a, x[a])
            if expansion != (zero if fast is None else x[fast]):
                yield prefix + witness.format(d=format_diagram(d), a=format_diagram(a))


@tallied("algebra.x-action-left")
def check_left_action(exhaustive: Scope, sampled: Scope, samples: int, seed: int) -> CheckResult:
    """The containment fast path reproduces the full bilinear expansion."""
    yield from _action_check(
        exhaustive, sampled, samples, seed,
        lambda d, a, x_a: (algebra.from_diagram(d) * x_a, algebra.left_action_x(d, a)),
        "d={d}, a={a}",
    )


@tallied("algebra.x-action-right")
def check_right_action(exhaustive: Scope, sampled: Scope, samples: int, seed: int) -> CheckResult:
    yield from _action_check(
        exhaustive, sampled, samples, seed,
        lambda d, a, x_a: (x_a * algebra.from_diagram(d), algebra.right_action_x(a, d)),
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
            ids: dict[tuple, int] = {}
            of = [ids.setdefault(m, len(ids)) for m in maps]  # each diagram's map id, the distinct maps in pool order
            lookups = [column_lookup(m) for m in ids]  # compose_column_maps, each distinct map's lookup built once
            composed: list[list] = [[None] * len(ids) for _ in ids]  # [x][y]: the id of map x after map y, or -1
            rows = [composed[x] for x in of]  # each diagram's row, as the outer map
            yield len(triples)
            for i, j, k in triples:
                if (xy := rows[i][of[j]]) is None:  # each pair at its first triple: a fault raises there
                    xy = rows[i][of[j]] = ids.get(tuple(map(lookups[of[i]], maps[j])), -1)
                if xy != of[k]:
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
                    yield f"span of all size-{k} vectors at (n={n}, c={c}) has the wrong reducibility"


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


@tallied("modules.matrix-algebra")
def check_matrix_algebra(scope: Scope) -> CheckResult:
    """Each class spans a full matrix block that is a two-sided ideal: the x-basis product law on every pair.

    P_{n,c} is an inverse monoid, so its x-basis multiplies as a groupoid algebra (Steinberg 2006):
    x_a * x_b = x_(a b) when bottom_profile(a) == top_profile(b), and 0 otherwise.  Then a b is the one
    planar diagram from_profiles(top_profile(a), bottom_profile(b)), so the reference shares no composition
    with the element product.  The law makes a class's x_(S, T) matrix units and sends products across
    classes to 0; the ideal half follows because every g is the sum of the x_e over its subdiagrams e, which
    check_x_inversion proves.  Each ordered pair of a pool is tested once, under the class of its first factor.
    """
    for n, c in _shapes(scope):
        zero, x = algebra.zero(n, c), _x_elements(n, c)
        pool = [(a, top_profile(a), bottom_profile(a), x[a]) for a in _all_planar(n, c)]
        first: dict[tuple[int, ...], str] = {}  # each failing class's first failing pair, by part sizes
        for a, top_a, bottom_a, x_a in pool:
            for b, top_b, bottom_b, x_b in pool:
                if bottom_a.sizes in first:
                    break
                meet = bottom_a == top_b
                if x_a * x_b != (x[from_profiles(top_a, bottom_b)] if meet else zero):
                    first[bottom_a.sizes] = (
                        f"x_a * x_b is not {'x_ab' if meet else 0} at a = {format_diagram(a)}, b = {format_diagram(b)}"
                    )
        for label in all_labels(n, c):
            yield 1
            if label.sizes in first:
                yield f"label {label.encode()} at (n={n}, c={c}): {[first[label.sizes]]}"


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
                yield f"(n={n}, c={c}): bottom profile {profile.parts} spans {got} vectors, expected {expected}"
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
def check_pascal_triangle(scope: Scope) -> CheckResult:
    """The one-color tower is Pascal's triangle with the binomial recursion; ``scope`` is (n_max, 1)."""
    ((_, graph),) = _towers(scope)
    for n in range(graph.n_max + 1):
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

class _Row(NamedTuple):  # a @tallied check and its scopes before the caps clip them: exhaustive, then sampled
    check: Callable[..., CheckResult]
    scopes: tuple[Scope, ...]
    sampling: bool = False  # reads the run's samples and seed
    towers: bool = False  # builds towers, not a monoid


def _rows() -> tuple[_Row, ...]:
    """One row per check, built per run so that a check patched on this module runs; n = inf is bounded by the cap."""
    return (
        _Row(check_enumeration_count, ((5, 3),)),
        _Row(check_associativity, ((2, 2), (4, 3)), sampling=True),
        _Row(check_rook_closure, ((3, 2),)),
        _Row(check_planarity_closure, ((3, 2),)),
        _Row(check_size_monotonicity, ((3, 2),)),
        _Row(check_profile_roundtrip, ((4, 2),)),
        _Row(check_matrix_semantics, ((3, 2),)),
        _Row(check_identity_unit, ((4, 3),)),
        _Row(check_x_inversion, ((3, 2),), sampling=True),
        _Row(check_left_action, ((2, 2), (3, 2)), sampling=True),
        _Row(check_right_action, ((2, 2), (3, 2)), sampling=True),
        _Row(check_block_preservation, ((3, 2),)),
        _Row(check_embed, ((2, 2),), sampling=True),
        _Row(check_rho_homomorphism, ((3, 2),)),
        _Row(check_column_structure, ((3, 2),)),
        _Row(check_character, ((4, 2),)),
        _Row(check_multiplicity_count, ((4, 2),)),
        _Row(check_irreducibility, ((3, 2),)),
        _Row(check_isomorphism_classification, ((3, 2),)),
        _Row(check_matrix_algebra, ((2, 2),)),
        _Row(check_regular_decomposition, ((3, 2),)),
        _Row(check_restriction, ((3, 2),)),
        _Row(check_tower_levels, ((6, 4),), towers=True),
        _Row(check_tower_degrees, ((6, 4),), towers=True),
        _Row(check_tower_recursion, ((12, 4),), towers=True),
        _Row(check_tower_restriction_consistency, ((4, 2),), towers=True),
        _Row(check_pascal_triangle, ((math.inf, 1),), towers=True),
    )


def run_verification(config: VerifyConfig = VerifyConfig()) -> list[CheckResult]:
    """Run every check of the table, its scopes clipped to the configured caps, each in a guard against faults."""
    if not all(type(v) is int and v >= low for v, low in ((config.n_cap, 0), (config.c_cap, 1), (config.samples, 0))):
        raise ValueError("verify needs n-cap >= 0, c-cap >= 1 and --samples >= 0")
    _require_counts(config.diagram_cap)
    if config.samples > config.diagram_cap:  # each sampled check's work is linear in the draws
        raise CapExceededError(f"--samples {config.samples} exceeds the cap of {config.diagram_cap} draws")
    runs = [(row, [(min(n, config.n_cap), min(c, config.c_cap)) for n, c in row.scopes]) for row in _rows()]
    # |P| grows with n and c, so the componentwise largest monoid scope bounds every monoid a check builds:
    # this refuses an over-cap run before any diagram.
    monoids = [scope for row, scopes in runs if not row.towers for scope in scopes]
    require_monoid_cap(max(n for n, _ in monoids), max(c for _, c in monoids), config.diagram_cap)
    for row, [(n, c), *_] in runs:
        if row.towers and row.scopes[0][0] == math.inf:  # Pascal's; the other towers stop at a constant level
            bratteli.require_tower_cap(c, n, config.diagram_cap)
    global _tables
    _tables, results = {}, []
    try:
        for (check, _, sampling, _), scopes in runs:
            try:
                results.append(check(*scopes, *((config.samples, config.seed) if sampling else ())))
            except Exception as exc:  # an engine fault: the check's failed result, with the error
                results.append(CheckResult(check.name, 0, [], f"{type(exc).__name__}: {exc}"))
    finally:  # the pools and the product, action and x-basis tables live for one run only
        _tables = None
    results.sort(key=lambda r: r.name)
    return results
