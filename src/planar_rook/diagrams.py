"""Colored planar rook diagrams and their semigroup arithmetic.

A diagram on two rows of ``n`` vertices connects top vertices to bottom
vertices by edges carrying one of ``c`` colors, with at most one edge
incident to each vertex (the rook condition).  A diagram is *planar* when
no two edges of the *same* color cross; differently colored edges may cross
freely.  Planar diagrams are closed under the path-composition product and
are determined uniquely by their two row profiles: the partition of each
row into the isolated vertices and the per-color edge endpoints.

Everything here is immutable and exact; enumeration orders are fixed so
that all higher layers (algebra, modules, towers) are reproducible.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, repeat
from operator import itemgetter, sub
from typing import Iterable, Iterator, NamedTuple

#: Refuse exhaustive sweeps over monoids larger than this many diagrams.
DEFAULT_DIAGRAM_CAP = 10**6

Edge = tuple[int, int, int]


class InvalidDiagramError(ValueError):
    """An edge list violates the rook, range, or color constraints."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class MismatchError(ValueError):
    """Operands disagree on vertex count or color count."""


class NonPlanarError(ValueError):
    """A representation-theoretic operation received a non-planar diagram."""


class CapExceededError(RuntimeError):
    """An exhaustive sweep would exceed the configured diagram cap."""


class ParseError(ValueError):
    """A diagram literal failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _canonical_edges(n: int, c: int, edges: Iterable[Edge]) -> tuple[Edge, ...]:
    seen_top: dict[int, Edge] = {}
    seen_bottom: dict[int, Edge] = {}
    out = []
    for edge in edges:
        try:
            top, bottom, color = edge
        except (TypeError, ValueError):
            raise InvalidDiagramError("edge-shape", f"edge {edge!r} is not a (top, bottom, color) triple")
        if not (type(top) is int and type(bottom) is int and 1 <= top <= n and 1 <= bottom <= n):
            raise InvalidDiagramError("vertex-range", f"edge {edge!r}: vertex index is not an int in 1..{n}")
        if not (type(color) is int and 1 <= color <= c):
            raise InvalidDiagramError("color-range", f"edge {edge!r}: color is not an int in 1..{c}")
        if top in seen_top:
            raise InvalidDiagramError(
                "duplicate-top", f"duplicate top index {top}: edges {seen_top[top]!r} and {edge!r}"
            )
        if bottom in seen_bottom:
            raise InvalidDiagramError(
                "duplicate-bottom", f"duplicate bottom index {bottom}: edges {seen_bottom[bottom]!r} and {edge!r}"
            )
        seen_top[top] = edge
        seen_bottom[bottom] = edge
        out.append((top, bottom, color))
    return tuple(sorted(out))


def require_shape(n: int, c: int) -> None:
    """Refuse a width that is not an int >= 0 or a color count that is not an int >= 1 (bools too)."""
    if type(n) is not int or n < 0:
        raise InvalidDiagramError("vertex-range", f"n must be a non-negative int, got {n!r}")
    if type(c) is not int or c < 1:
        raise InvalidDiagramError("color-range", f"c must be a positive int, got {c!r}")


def _require_counts(*values: int) -> None:
    """Refuse a count, size, n or c that is not an int >= 0 (bools too)."""
    for value in values:
        if type(value) is not int or value < 0:
            raise ValueError(f"expected a non-negative int, got {value!r}")


class _Record(tuple):
    """A tuple of named fields that refuses the tuple arithmetic and ordering that would otherwise silently succeed."""

    __slots__ = ()

    def _refuse(self, other):
        name = next(k.__name__ for k in type(self).__mro__ if not k.__name__.startswith("_"))  # a marked one's too
        raise TypeError(f"a {name} is a record: it does not concatenate, repeat or order")

    __add__ = __radd__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse

    @classmethod
    def _make(cls, fields: Iterable) -> "_Record":
        """Build through the validating constructor, so ``_replace`` validates too."""
        return cls(*fields)


class _DiagramFields(NamedTuple):
    n: int
    c: int
    edges: tuple[Edge, ...]


class Diagram(_Record, _DiagramFields):
    """A c-colored rook diagram on two rows of ``n`` vertices.

    Edges are stored canonically, sorted by top index, so equality, hashing
    and serialization are deterministic.  Vertices are 1-based, colors run
    1..c; an absent edge is simply absent (there is no color 0).  A diagram
    is the tuple ``(n, c, edges)``: it equals and hashes as that tuple.
    """

    __slots__ = ()

    def __new__(cls, n: int, c: int, edges: Iterable[Edge] = ()) -> "Diagram":
        require_shape(n, c)
        return tuple.__new__(cls, (n, c, _canonical_edges(n, c, edges)))

    @staticmethod
    def _trusted(n: int, c: int, edges: tuple[Edge, ...]) -> "Diagram":
        """Skip validation: only for edges derived from valid diagrams or profiles, already canonical; never marked."""
        return tuple.__new__(Diagram, (n, c, edges))

    @property
    def size(self) -> int:
        return len(self.edges)

    def __mul__(self, other: "Diagram") -> "Diagram":
        return multiply(self, other)

    def __matmul__(self, other: "Diagram") -> "Diagram":
        return tensor(self, other)

    def __str__(self) -> str:
        return format_diagram(self)

    def __reduce__(self):
        """Pickle and copy through the validating constructor, as a plain Diagram: no subtype's mark survives."""
        return Diagram, tuple(self)


class _PlanarDiagram(Diagram):
    """A Diagram that its constructor proved planar: :func:`from_profiles`, the enumeration or :func:`multiply`.

    The entries that refuse a non-planar diagram skip :func:`is_planar` when ``type(d) is _PlanarDiagram``; it
    equals, hashes, prints and pickles as the plain Diagram with its edges.  Only :func:`_planar` builds one:
    construction, ``_make``, ``_replace``, ``_trusted``, copies and unpickling give a plain Diagram.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Diagram:  # _make, so _replace too, builds through cls
        return Diagram(*args, **kwargs)

    def __repr__(self) -> str:
        return repr(Diagram._trusted(*self))


def _planar(n: int, c: int, edges: tuple[Edge, ...]) -> _PlanarDiagram:
    """Mark canonical edges as planar: only for a constructor that has just proved them so."""
    return tuple.__new__(_PlanarDiagram, (n, c, edges))


class _ProfileFields(NamedTuple):
    n: int
    c: int
    parts: tuple[tuple[int, ...], ...]


class Profile(_Record, _ProfileFields):
    """A partition of one row's vertices into isolated and per-color parts.

    ``parts[0]`` holds the isolated vertices, ``parts[k]`` the endpoints of
    color-k edges.  Parts are disjoint and together cover {1..n}.  A profile
    is the tuple ``(n, c, parts)``.
    """

    __slots__ = ()

    def __new__(cls, n: int, c: int, parts: Iterable[Iterable[int]]) -> "Profile":
        _require_counts(n, c)
        parts = tuple(tuple(sorted(p)) for p in parts)
        if len(parts) != c + 1:
            raise ValueError(f"expected {c + 1} parts, got {len(parts)}")
        seen: set[int] = set()
        for part in parts:
            for v in part:
                if type(v) is not int or not 1 <= v <= n:
                    raise ValueError(f"vertex {v!r} is not an int in 1..{n}")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two parts")
                seen.add(v)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise ValueError(f"parts do not cover vertices {missing}")
        return tuple.__new__(cls, (n, c, parts))

    @classmethod
    def _trusted(cls, n: int, c: int, parts: tuple[tuple[int, ...], ...]) -> "Profile":
        """Skip validation: only for c + 1 sorted parts that partition 1..n."""
        return tuple.__new__(cls, (n, c, parts))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.parts))


# ---------------------------------------------------------------------------
# Per-diagram lookups.  Only bottom_profile is cached: building a Profile validates it, which costs far more
# than the hash of a lookup, and the checks ask for the same diagram's bottom again and again.  Its memo holds
# 1024 bottoms, a whole verify run (a default one fills 141, --n-cap 5 --c-cap 3 fills 850), and evicts the
# least recently used past that.  A top profile is asked for about once per diagram, so a memo of it would only
# hold memory.  Everything else here is rebuilt on each call, so memory does not grow with the diagrams seen.

def is_planar(d: Diagram) -> bool:
    """True iff no two edges of the same color cross.

    Two same-colored edges (t1, b1), (t2, b2) cross exactly when
    (t1 - t2) * (b1 - b2) < 0; different colors never conflict.
    """
    last_bottom: dict[int, int] = {}
    for _, b, k in d.edges:  # edges are sorted by top index
        if b <= last_bottom.get(k, 0):
            return False
        last_bottom[k] = b
    return True


def _proven_planar(d: Diagram) -> bool:
    """Whether d is planar: at once for a diagram a constructor marked (:class:`_PlanarDiagram`), else by is_planar."""
    return type(d) is _PlanarDiagram or is_planar(d)


def top_profile(d: Diagram) -> Profile:
    """Partition of the top row: isolated vertices, then color-k endpoints."""
    return _profile(d, 0)


@lru_cache(maxsize=1024)
def bottom_profile(d: Diagram) -> Profile:
    """Partition of the bottom row: isolated vertices, then color-k endpoints."""
    return _profile(d, 1)


def _profile(d: Diagram, row: int) -> Profile:
    """The profile of the row at edge position ``row``: 0 for the top, 1 for the bottom."""
    parts: list[list[int]] = [[] for _ in range(d.c + 1)]
    used = set()
    for edge in d.edges:
        parts[edge[2]].append(edge[row])
        used.add(edge[row])
    parts[0] = [v for v in range(1, d.n + 1) if v not in used]
    return Profile(d.n, d.c, tuple(tuple(p) for p in parts))  # Profile sorts each part


def multiply(d1: Diagram, d2: Diagram) -> Diagram:
    """Compose diagrams: keep the monochromatic top-of-d1 to bottom-of-d2 paths.

    Stacking d1 over d2 and fusing the middle rows, an edge (t, b, k)
    survives exactly when d1 carries (t, m, k) and d2 carries (m, b, k) for
    some middle vertex m.  This is matrix multiplication over the entry
    semantics u_i * u_j = u_i if i == j else 0.
    """
    if d1.n != d2.n:
        raise MismatchError(f"vertex counts differ: {d1.n} vs {d2.n}")
    if d1.c != d2.c:
        raise MismatchError(f"color counts differ: {d1.c} vs {d2.c}")
    edges, planar = compose_edges(d1.edges, {e[0]: e for e in d2.edges})
    if planar:
        return _planar(d1.n, d1.c, edges)
    if _proven_planar(d1) and _proven_planar(d2):
        raise AssertionError("product of planar diagrams must be planar")
    return Diagram._trusted(d1.n, d1.c, edges)


def compose_edges(upper: tuple[Edge, ...], lower: dict[int, Edge]) -> tuple[tuple[Edge, ...], bool]:
    """The edges of ``upper`` stacked over ``lower`` (edges by top vertex), in top order, and whether none cross."""
    edges = []
    last_bottom: dict[int, int] = {}  # is_planar(product), run as the edges come out
    planar = True
    for t, m, k in upper:
        hit = lower.get(m)
        if hit is not None and hit[2] == k:
            planar &= hit[1] > last_bottom.get(k, 0)
            last_bottom[k] = hit[1]
            edges.append((t, hit[1], k))
    return tuple(edges), planar


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Concatenate ``d2`` to the right of ``d1``, shifting its indices."""
    if d1.c != d2.c:
        raise MismatchError(f"color counts differ: {d1.c} vs {d2.c}")
    shifted = tuple((t + d1.n, b + d1.n, k) for (t, b, k) in d2.edges)
    return Diagram._trusted(d1.n + d2.n, d1.c, d1.edges + shifted)  # shifted tops all exceed d1.n


def vertical_subdiagram(d: Diagram) -> Diagram:
    """Keep exactly the edges whose top and bottom indices coincide."""
    return Diagram._trusted(d.n, d.c, tuple(e for e in d.edges if e[0] == e[1]))


def vertical_color_counts(d: Diagram) -> tuple[int, ...]:
    """Number of vertical edges of each color, as a length-c tuple."""
    counts = [0] * d.c
    for t, b, k in d.edges:
        if t == b:
            counts[k - 1] += 1
    return tuple(counts)


def vertical_diagram(n: int, counts: tuple[int, ...]) -> Diagram:
    """The leftmost-packed diagram with the given vertical color counts."""
    _require_counts(n, *counts)
    if sum(counts) > n:
        raise ValueError(f"{sum(counts)} vertical edges do not fit in n={n}")
    edges = []
    v = 1
    for color, cnt in enumerate(counts, start=1):
        for _ in range(cnt):
            edges.append((v, v, color))
            v += 1
    return Diagram(n, len(counts), tuple(edges))


def from_profiles(top: Profile, bottom: Profile) -> Diagram:
    """The unique planar diagram with the given top and bottom profiles.

    For each color the r-th smallest top endpoint joins the r-th smallest
    bottom endpoint; this is the only same-color non-crossing matching.
    """
    if top.n != bottom.n or top.c != bottom.c:
        raise MismatchError("profiles have different (n, c)")
    require_shape(top.n, top.c)  # a Profile allows c = 0, a Diagram does not
    edges: list[Edge] = []
    for k in range(1, top.c + 1):
        tops, bottoms = top.parts[k], bottom.parts[k]
        if len(tops) != len(bottoms):
            raise MismatchError(f"color {k}: {len(tops)} top endpoints vs {len(bottoms)} bottom endpoints")
        edges += zip(tops, bottoms, repeat(k, len(tops)))
    edges.sort()  # validated profiles: vertices in 1..n, each used once
    result = _planar(top.n, top.c, tuple(edges))  # discarded unless is_planar, which reads no mark, agrees
    if not is_planar(result):
        raise AssertionError("increasing matchings cannot cross")
    return result


# ---------------------------------------------------------------------------
# Enumeration.  Compositions come in colex order, profiles in lexicographic
# order on their sorted part contents; the nesting below realizes exactly
# the (composition, top profile, bottom profile) order used everywhere.

def compositions(n: int, c: int) -> Iterator[tuple[int, ...]]:
    """All (c+1)-part compositions of n, in colex order."""
    _require_counts(n, c)
    if c >= sys.maxsize:  # each composition is a tuple of c + 1 ints
        raise ValueError(f"c={c} makes compositions of {c + 1} parts, more than a tuple holds")
    return _compositions(n, c)


def _compositions(n: int, c: int) -> Iterator[tuple[int, ...]]:
    # A composition is fixed by its partial sums 0 <= s_1 <= ... <= s_c <= n, which come in lex order; differenced
    # from the right, they give the parts in colex order.
    for sums in combinations_with_replacement(range(n + 1), c):
        sums = sums[::-1]
        yield tuple(map(sub, (n,) + sums, sums + (0,)))


def multinomial(parts: Iterable[int]) -> int:
    """Exact multinomial coefficient of the composition ``parts``; a zero part is a factor of 1, so it is skipped."""
    total, out = 0, 1
    for p in filter(None, parts):
        total += p
        out *= math.comb(total, p)
    return out


def profiles_with_sizes(n: int, c: int, sizes: tuple[int, ...]) -> Iterator[Profile]:
    """All profiles with the given part sizes, in lexicographic order: :func:`_packed_profiles`, unpacked."""
    _require_counts(n, c, *sizes)
    if len(sizes) != c + 1 or sum(sizes) != n:
        raise ValueError(f"sizes {sizes} is not a (c+1)-part composition of {n}")
    return _profiles_with_sizes(n, c, sizes, _packed_profiles(n, c, sizes))


def _profiles_with_sizes(n: int, c: int, sizes: tuple[int, ...], packed: Iterable[int]) -> Iterator[Profile]:
    # Only nonempty color parts are read, off a table of the C(n, size) vertex sets of a size; part 0 is the rest.
    vertices = {sum(1 << v - 1 for v in part): part
                for size in set(sizes) for part in combinations(range(1, n + 1), size)}
    full, colored = (1 << n) - 1, [k for k in range(1, c + 1) if sizes[k]]
    for top in packed:
        masks = [top >> (k - 1) * n & full for k in colored]
        parts = [vertices[full ^ sum(masks)]] + [()] * c
        for k, mask in zip(colored, masks):
            parts[k] = vertices[mask]
        yield Profile._trusted(n, c, tuple(parts))


def _bit(n: int, v: int, k: int) -> int:
    """The bit of a packed profile that is set when vertex v is in color part k."""
    return 1 << ((k - 1) * n + v - 1)


def _packed_profiles(n: int, c: int, sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The profiles with the given (checked) part sizes, in lex order, each the sum of its colored vertices' _bit."""
    states = [((1 << n) - 1, 0)]  # (vertex bits left, packed); part k picks in lex order among what parts < k left
    for k in [k for k, size in enumerate(sizes[:-1]) if size]:  # an empty part picks nothing: no level
        states = [(left ^ part, bits | part << (k - 1) * n if k else bits) for left, bits in states
                  for part in map(sum, combinations([1 << v for v in range(n) if left >> v & 1], sizes[k]))]
    return tuple(bits | left << (c - 1) * n if c else bits for left, bits in states)  # at c = 0 the last is part 0


def _binomial_exceeds(a: int, b: int, cap: int) -> bool:
    """Whether C(a+b, b) > cap; C(a+b, b) >= 2^min(a, b), and that power bound spares a huge binomial."""
    return min(a, b) > cap.bit_length() or math.comb(a + b, b) > cap


def _clipped_power(base: int, exp: int, cap: int) -> int:
    """base^exp, its exponent stopped where base^e >= 2^e > cap: past the cap iff base^exp is, and never huge."""
    return base ** min(exp, cap.bit_length() + 1)


def require_color_cap(c: int, cap: int) -> None:
    """Raise :class:`CapExceededError` if c + 1 > cap: at any n, each row profile and label has c + 1 parts."""
    _require_counts(cap)  # a cap is an int >= 0, as every bound that reads it assumes
    if c + 1 > cap:
        raise CapExceededError(f"c={c} gives each row profile {c + 1} parts, more than the cap of {cap}")


def require_monoid_cap(n: int, c: int, cap: int) -> None:
    """Raise :class:`CapExceededError` if |P_{n,c}| > cap or c + 1 > cap, building no diagram."""
    require_shape(n, c)
    require_color_cap(c, cap)
    # |P| >= (c+1)^n, one diagram per column state, so a far-over-cap call is refused before the multinomial sum.
    if (bound := _clipped_power(c + 1, n, cap)) > cap:
        raise CapExceededError(f"|P_{{{n},{c}}}| >= {bound} exceeds the cap of {cap}")
    if (count := cardinality(n, c)) > cap:
        raise CapExceededError(f"|P_{{{n},{c}}}| = {count} exceeds the cap of {cap}")


def enumerate_planar(n: int, c: int, cap: int = DEFAULT_DIAGRAM_CAP) -> Iterator[Diagram]:
    """Every planar diagram once, in canonical order; raises at the call, before building any, if |P| > cap."""
    require_monoid_cap(n, c, cap)
    return _enumerate_planar(n, c)


def _enumerate_planar(n: int, c: int) -> Iterator[Diagram]:
    for tops, colors, fills in _fills(n, c, int):
        for ends in fills:
            yield _planar(n, c, tuple(zip(tops, ends, colors)))


def enumerate_literals(n: int, c: int, cap: int = DEFAULT_DIAGRAM_CAP) -> Iterator[str]:
    """``format_diagram`` of each diagram of ``enumerate_planar``, in its order and under its cap, building none."""
    require_monoid_cap(n, c, cap)
    return _enumerate_literals(n, c)


def _enumerate_literals(n: int, c: int) -> Iterator[str]:
    for tops, colors, fills in _fills(n, c, str):
        template = format_diagram(Diagram._trusted(n, c, tuple(zip(tops, repeat("%s"), colors))))
        for ends in fills:
            yield template % ends


def _fills(n: int, c: int, end: type) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Iterator[tuple]]]:
    """Per top profile, in enumeration order: its colored vertices in top order, their colors, and per bottom profile
    the ``end`` of each bottom vertex they join, in the same order.

    The r-th color-k top vertex joins the r-th color-k bottom vertex, so these edges never cross exactly when every
    colored part of each profile strictly increases.  Tops and bottoms are one list, so each profile is checked once.
    """
    for sizes in compositions(n, c):
        profiles = list(profiles_with_sizes(n, c, sizes))
        parts = (part for p in profiles for part in p.parts[1:] if len(part) > 1)  # shorter ones increase
        if any(a >= b for part in parts for a, b in zip(part, part[1:])):
            raise AssertionError("increasing matchings cannot cross")
        flats = [tuple(map(end, sum(bottom.parts[1:], ()))) for bottom in profiles]  # colored parts, color 1 first
        for top in profiles:
            flat = sum(top.parts[1:], ())  # as the bottoms' flats: the r-th color-k vertex at the same offset
            order = sorted(range(len(flat)), key=flat.__getitem__)
            # One slot: itemgetter would return the bare item, so tuple stands in (as it does for no slot).
            pick = itemgetter(*order) if len(order) > 1 else tuple
            yield pick(flat), pick([k for k in range(1, c + 1) for _ in top.parts[k]]), map(pick, flats)


def cardinality(n: int, c: int) -> int:
    """Number of planar diagrams: the sum of squared multinomials, which is C(2n, n) for one color (Vandermonde)."""
    require_shape(n, c)
    if c == 1:
        return math.comb(2 * n, n)
    return sum(multinomial(sizes) ** 2 for sizes in compositions(n, c))


def diagram_sort_key(d: Diagram):
    """Sort key realizing the canonical enumeration order, built from the edges alone.

    The order compares reversed part sizes, then the top profile's parts, then
    the bottom's.  Between rows with equal part sizes the isolated parts order
    as the sorted edge endpoints do in reverse, so the key holds those
    endpoints negated instead of the n - k isolated vertices.
    """
    tops: list[list[int]] = [[] for _ in range(d.c)]
    bottoms: list[list[int]] = [[] for _ in range(d.c)]
    for t, b, k in d.edges:  # sorted by top
        tops[k - 1].append(t)
        bottoms[k - 1].append(b)
    sizes = tuple(len(part) for part in reversed(tops)) + (d.n - d.size,)
    return (
        sizes,
        tuple(-t for t, _, _ in d.edges),
        tuple(map(tuple, tops)),
        tuple(-b for b in sorted(b for _, b, _ in d.edges)),
        tuple(tuple(sorted(part)) for part in bottoms),
    )


# ---------------------------------------------------------------------------
# Text grammar: `n=<int> c=<int> [<top>-<bottom>:<color>, ...]`, whitespace
# insensitive, mutually inverse with format_diagram on canonical forms.

def format_diagram(d: Diagram) -> str:
    body = ", ".join(f"{t}-{b}:{k}" for (t, b, k) in d.edges)
    return f"n={d.n} c={d.c} [{body}]"


# The form format_diagram writes, with ASCII digits and single spaces.  Other text goes to the scanner.
_CANONICAL = re.compile(r"n=([0-9]+) c=([0-9]+) \[((?:[0-9]+-[0-9]+:[0-9]+(?:, [0-9]+-[0-9]+:[0-9]+)*)?)\]")

# The scanner's token after optional whitespace; \s matches exactly the characters for which str.isspace() is true.
_TOKEN = re.compile(r"\s*([0-9]+|[nc]=|\S|\Z)")


def parse_diagram(text: str) -> Diagram:
    """Parse a diagram literal such as ``n=3 c=2 [1-2:1, 3-1:2]``."""
    if match := _CANONICAL.fullmatch(text):
        n, c, body = match.groups()
        fields = body.replace(", ", "-").replace(":", "-").split("-") if body else []
        try:
            n, c, *ends = map(int, [n, c, *fields])
            return Diagram(n, c, tuple(zip(ends[0::3], ends[1::3], ends[2::3])))
        except ValueError:  # a bad edge, or an integer past int's digit limit: the scanner below raises the error
            pass
    tokens = _TOKEN.finditer(text)
    token = next(tokens)  # the next token to take; the text's last token is the empty one at its end

    def take(*grammar) -> list[int]:
        """Take one token per item of ``grammar``, a literal or ``int``, and return the integers taken."""
        nonlocal token
        values = []
        for want in grammar:
            value, at = token[1], token.start(1)
            if want is int and value.isascii() and value.isdigit():  # str.isdigit() alone takes "²" and "٣"
                try:
                    values.append(int(value))
                except ValueError:  # past int's digit limit (sys.get_int_max_str_digits)
                    raise ParseError(f"integer of {len(value)} digits is too long", at) from None
            elif value != want:
                raise ParseError("expected an integer" if want is int else f"expected {want!r}", at)
            token = next(tokens)  # a taken token is never the empty one, so another follows
        return values

    n, c = take("n=", int, "c=", int, "[")
    edges = []
    while token[1] != "]":
        if edges:
            take(",")
        edges.append(tuple(take(int, "-", int, ":", int)))
    take("]")
    if token[1]:
        raise ParseError(f"unexpected trailing input {text[token.start(1):]!r}", token.start(1))
    return Diagram(n, c, tuple(edges))


# ---------------------------------------------------------------------------
# Matrix view: entry 0 means no edge, entry k means an edge of color k from
# top (row) i to bottom (column) j.

def to_matrix(d: Diagram) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * d.n for _ in range(d.n)]
    for t, b, k in d.edges:
        rows[t - 1][b - 1] = k
    return tuple(tuple(r) for r in rows)


def from_matrix(c: int, rows: Iterable[Iterable[int]]) -> Diagram:
    rows = [tuple(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    edges = []
    for i, row in enumerate(rows, start=1):
        for j, entry in enumerate(row, start=1):
            if entry:
                edges.append((i, j, entry))
    return Diagram(n, c, tuple(edges))


def format_matrix(d: Diagram) -> str:
    lines = []
    for row in to_matrix(d):
        lines.append(" ".join("0" if e == 0 else f"u{e}" for e in row))
    return "\n".join(lines)
