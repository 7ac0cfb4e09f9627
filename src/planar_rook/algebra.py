"""Exact linear combinations of planar diagrams.

Elements are finite formal sums of planar diagrams with rational
coefficients; the diagram product extends bilinearly.  Arithmetic keys its
coefficients by edge tuple, and a product tests every term pair for
planarity.  Only ``int`` and ``Fraction`` inputs are accepted, so every
identity the suite checks is bit-exact.  An integral coefficient is always
stored as an ``int`` and any other as a ``Fraction``.  Sums, scales,
tensors, embeddings, products and x-coordinates write each operand's
coefficients as integer numerators over the lcm of its denominators, combine
them in ``int`` arithmetic and divide once per distinct nonzero term, in
``_from_numerators``; each result builds and hashes one Diagram per distinct
nonzero term.  The unit (coefficients (1 - c)^j), the x-basis (±1) and
negation already have storage-form coefficients and build their terms
directly.

The alternating-sum basis ``x_d = sum over subdiagrams d' of d of
(-1)^(size d - size d') d'`` turns left and right multiplication by a
diagram into unit-or-zero maps; the fast-path predicates below decide those
actions without expanding, while ``x_of`` provides the full expansion used
as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional

from .diagrams import (
    Diagram,
    Edge,
    MismatchError,
    NonPlanarError,
    _proven_planar,
    compose_edges,
    diagram_sort_key,
    format_diagram,
    multiply,
    require_shape,
    tensor,
)

Rational = Fraction | int


def _coeff(value: Rational) -> Rational:
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):  # refuses bool, float, str, Decimal
        raise TypeError(f"coefficients must be an int or a Fraction, got {value!r}")
    return value.numerator if value.denominator == 1 else Fraction(value)


@dataclass(frozen=True)
class AlgebraElement:
    """A formal rational combination of planar diagrams of one shape (n, c).

    ``terms`` maps canonical diagrams to nonzero coefficients; the zero
    element is the empty map (distinct from the empty *diagram*, which is a
    basis element with its own coefficient).
    """

    n: int
    c: int
    terms: Mapping[Diagram, Rational]

    def __post_init__(self):
        require_shape(self.n, self.c)
        clean = {}
        for d, coeff in self.terms.items():
            if not isinstance(d, Diagram):  # a plain (n, c, edges) tuple equals its Diagram, but is not one
                raise TypeError(f"a term must be a Diagram, not {d!r}")
            q = _coeff(coeff)
            if q == 0:
                continue
            if d.n != self.n or d.c != self.c:
                raise MismatchError(f"term {format_diagram(d)} does not live in (n={self.n}, c={self.c})")
            if not _proven_planar(d):
                raise NonPlanarError(f"term {format_diagram(d)} is not planar")
            clean[d] = q
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n: int, c: int, terms: dict[Diagram, Rational]) -> "AlgebraElement":
        """Skip validation: only for planar (n, c) diagrams whose terms are already in storage form.

        Every coefficient must be nonzero, an integral one an ``int`` and any
        other a ``Fraction``; the dict is kept as it is, not rebuilt.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "c", c)
        object.__setattr__(g, "terms", terms)
        return g

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, d: Diagram) -> Rational:
        return self.terms.get(d, 0)

    def support(self) -> tuple[Diagram, ...]:
        return tuple(sorted(self.terms, key=diagram_sort_key))

    # -- arithmetic ----------------------------------------------------------

    def _require_compatible(self, other: "AlgebraElement") -> None:
        if self.n != other.n or self.c != other.c:
            raise MismatchError(
                f"elements live in different algebras: (n={self.n}, c={self.c}) vs (n={other.n}, c={other.c})"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_compatible(other)
        den1, left = _numerators(self.terms)
        den2, right = _numerators(other.terms)
        den = lcm(den1, den2)
        s1, s2 = den // den1, den // den2
        sums = {d.edges: p * s1 for d, p in left}
        for d, p in right:
            sums[d.edges] = sums.get(d.edges, 0) + p * s2
        return _from_numerators(self.n, self.c, sums, den)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._trusted(self.n, self.c, {d: -q for d, q in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, scalar: Rational) -> "AlgebraElement":
        q = _coeff(scalar)  # an int is its own numerator over 1
        den, numerators = _numerators(self.terms)
        return _from_numerators(self.n, self.c, {d.edges: q.numerator * p for d, p in numerators}, den * q.denominator)

    def __rmul__(self, scalar: Rational) -> "AlgebraElement":
        return self.scale(scalar)

    def __mul__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._require_compatible(other)
        den1, left = _numerators(self.terms)
        den2, right = _numerators(other.terms)
        lowers = [({e[0]: e for e in d2.edges}, p2) for d2, p2 in right]
        sums: dict[tuple[Edge, ...], int] = {}
        for d1, p1 in left:
            for lower, p2 in lowers:
                edges, planar = compose_edges(d1.edges, lower)
                if not planar:  # every pair, also one whose key cancels: terms are planar
                    raise AssertionError("product of planar diagrams must be planar")
                sums[edges] = sums.get(edges, 0) + p1 * p2
        return _from_numerators(self.n, self.c, sums, den1 * den2)

    def tensor(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.c != other.c:
            raise MismatchError(f"color counts differ: {self.c} vs {other.c}")
        den1, left = _numerators(self.terms)
        den2, right = _numerators(other.terms)
        blank = Diagram._trusted(self.n, self.c, ())  # blank @ d2 is d2 shifted right, the tensor rule stated once
        rights = [(tensor(blank, d2).edges, p2) for d2, p2 in right]
        sums = {d1.edges + e2: p1 * p2 for d1, p1 in left for e2, p2 in rights}  # each pair a distinct product
        return _from_numerators(self.n + other.n, self.c, sums, den1 * den2)

    def __str__(self) -> str:
        return format_element(self)


def _numerators(terms: Mapping[Diagram, Rational]) -> tuple[int, Iterable[tuple[Diagram, int]]]:
    """The lcm of the coefficients' denominators and each term with its coefficient's integer numerator over it."""
    den = lcm(*{q.denominator for q in terms.values()})  # an int is its own numerator over 1
    if den == 1:  # integral coefficients are stored as ints
        return 1, terms.items()
    return den, [(d, q.numerator * (den // q.denominator)) for d, q in terms.items()]


def _from_numerators(n: int, c: int, sums: Mapping[tuple[Edge, ...], int], den: int) -> AlgebraElement:
    """The element with coefficient p / den on each edge tuple's diagram, built once per nonzero numerator p.

    The one normalisation of a result coefficient: an integral quotient is stored as its ``int``.
    """
    return AlgebraElement._trusted(n, c, {Diagram._trusted(n, c, e): p // den if p % den == 0 else Fraction(p, den)
                                          for e, p in sums.items() if p})


def zero(n: int, c: int) -> AlgebraElement:
    return AlgebraElement(n, c, {})


def from_diagram(d: Diagram, coeff: Rational = 1) -> AlgebraElement:
    return AlgebraElement(d.n, d.c, {d: coeff})


def unit_diagram(c: int, color: int) -> Diagram:
    """The width-1 diagram with one vertical edge of ``color`` (0 = no edge)."""
    if color == 0:
        return Diagram(1, c, ())
    return Diagram(1, c, ((1, 1, color),))


def identity(n: int, c: int) -> AlgebraElement:
    """The unit of the width-n algebra.

    For one column the unit is (sum of all single vertical edges) minus
    (c - 1) times the isolated pair; the width-n unit is its n-fold
    concatenation power.  Expanded, each column state (0 = isolated, k = a
    vertical color-k edge) gives one diagram with coefficient (1 - c)^j,
    where j counts its isolated columns; for c = 1 only the full one is left.
    The expansion is built column by column: each level extends every edge
    tuple by one column state, the first column varying slowest.
    """
    require_shape(n, c)
    terms: list[tuple[tuple[Edge, ...], int]] = [((), 1)]
    for v in range(1, n + 1):
        column = _column_states(v, c)
        terms = [(edges + e, q * w) for edges, q in terms for e, w in column]
    return AlgebraElement._trusted(n, c, {Diagram._trusted(n, c, edges): q for edges, q in terms})


def _column_states(v: int, c: int) -> list[tuple[tuple[Edge, ...], int]]:
    """The unit's states of column ``v`` with their coefficients: isolated (1 - c; none for c = 1), then each color (1)."""
    return ([((), 1 - c)] if c > 1 else []) + [(((v, v, k),), 1) for k in range(1, c + 1)]


# ---------------------------------------------------------------------------
# The x-basis.

def _edge_subsets(edges: tuple[Edge, ...]) -> Iterator[tuple[Edge, ...]]:
    """Every sub-tuple of ``edges`` by size, each in the canonical order (combinations keep it)."""
    return chain.from_iterable(combinations(edges, r) for r in range(len(edges) + 1))


def subdiagrams(d: Diagram) -> Iterator[Diagram]:
    """All diagrams obtained by deleting edges of ``d`` (including d itself)."""
    return (Diagram._trusted(d.n, d.c, chosen) for chosen in _edge_subsets(d.edges))


def x_of(d: Diagram) -> AlgebraElement:
    """Expand the alternating-sum basis element labeled by ``d``."""
    if not _proven_planar(d):
        raise NonPlanarError(f"{format_diagram(d)} is not planar")
    k = d.size
    terms = {sub: -1 if (k - sub.size) % 2 else 1 for sub in subdiagrams(d)}
    return AlgebraElement._trusted(d.n, d.c, terms)  # subdiagrams of a planar diagram are planar


def to_x_coordinates(g: AlgebraElement) -> dict[Diagram, Rational]:
    """Coordinates of ``g`` in the x-basis.

    Inverting the alternating sum is summation over the subdiagram order:
    the x-coordinate at ``a`` is the sum of the diagram coefficients of all
    supports containing ``a``.
    """
    den, numerators = _numerators(g.terms)
    sums: dict[tuple[Edge, ...], int] = {}
    for d, p in numerators:
        for sub in _edge_subsets(d.edges):
            sums[sub] = sums.get(sub, 0) + p
    return _from_numerators(g.n, g.c, sums, den).terms


def left_action_x(d: Diagram, a: Diagram) -> Optional[Diagram]:
    """Left action of a diagram on an x-basis vector, decided without expanding.

    ``d * x_a`` equals ``x_(d a)`` when, for every color, the top endpoints
    of ``a`` sit among the bottom endpoints of ``d`` of the same color
    (isolated vertices are unconstrained); otherwise the action is zero and
    None is returned.
    """
    return multiply(d, a) if _meets(d, a, 1) else None


def right_action_x(a: Diagram, d: Diagram) -> Optional[Diagram]:
    """Right action mirror of :func:`left_action_x`: ``x_a * d``."""
    return multiply(a, d) if _meets(d, a, 0) else None


def _meets(d: Diagram, a: Diagram, row: int) -> bool:
    """True iff a's ends opposite ``row`` (0 top, 1 bottom) sit among d's ends in ``row`` of the same color."""
    if d.n != a.n or d.c != a.c:
        raise MismatchError("diagrams live in different monoids")
    if not (_proven_planar(d) and _proven_planar(a)):
        raise NonPlanarError("x-basis actions are defined for planar diagrams only")
    ends = {edge[row]: edge[2] for edge in d.edges}
    return all(ends.get(edge[1 - row]) == edge[2] for edge in a.edges)


def embed(g: AlgebraElement) -> AlgebraElement:
    """Unital embedding of a width-(n-1) element into width n.

    Appends one column in every possible state: the sum of g concatenated
    with each single vertical edge, minus (c - 1) times g concatenated with
    an isolated pair.  Equivalently, g tensored with the width-1 unit, whose
    column states are the ones :func:`identity` gives each of its columns.
    """
    den, numerators = _numerators(g.terms)
    column = _column_states(g.n + 1, g.c)
    sums = {d.edges + e: p * w for d, p in numerators for e, w in column}  # each pair a distinct diagram
    return _from_numerators(g.n + 1, g.c, sums, den)


def format_element(g: AlgebraElement) -> str:
    """Render ``<rational> * <diagram-literal> + ...`` in enumeration order."""
    if g.is_zero:
        return "0"
    return " + ".join(f"{g.terms[d]} * {format_diagram(d)}" for d in g.support())
