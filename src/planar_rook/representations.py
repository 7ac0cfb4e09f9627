"""Irreducible modules, column-map actions, characters and restriction.

The module with bottom profile T is spanned by the x-basis vectors of all
planar diagrams whose bottom profile is T; a diagram acts on such a vector
as another basis vector or as zero, so its column map (one image index or
None per basis vector) describes the action completely.  Isomorphism
classes are labeled by the part-size composition (n_0, ..., n_c), and the
dimension of a class is its multinomial coefficient.

The two verifiers here, for one module and one table, have callers outside
``checks``.  Like every check there, each is a generator of case counts and
failure witnesses that :func:`tallied` turns into a :class:`CheckResult`.
Every other claim is verified inside its check in ``checks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Optional

from .algebra import Rational, left_action_x
from .diagrams import (
    DEFAULT_DIAGRAM_CAP,
    CapExceededError,
    Diagram,
    Edge,
    MismatchError,
    NonPlanarError,
    Profile,
    _bit,
    _clipped_power,
    _packed_profiles,
    _profiles_with_sizes,
    _proven_planar,
    compositions,
    format_diagram,
    from_profiles,
    multinomial,
    profiles_with_sizes,
    require_color_cap,
    require_shape,
    vertical_color_counts,
    vertical_diagram,
)


@dataclass
class CheckResult:
    """Outcome of a finite verification: passes exactly when no witness was found and no fault was raised."""

    name: str
    checked: int
    witnesses: list[str]
    error: Optional[str] = None  # "<type>: <message>" of an exception that stopped the check
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = not self.witnesses and self.error is None

    def __bool__(self) -> bool:
        return self.ok

    def as_dict(self) -> dict:
        entry = {"name": self.name, "ok": self.ok, "checked": self.checked, "witnesses": self.witnesses}
        return entry if self.error is None else {**entry, "error": self.error}


def tallied(name: str):
    """Decorate a generator of case counts (``int``) and witnesses (``str``): each call returns its CheckResult."""
    def decorate(stream):
        @wraps(stream)
        def check(*args, **kwargs) -> CheckResult:
            total, witnesses = 0, []
            for item in stream(*args, **kwargs):
                if type(item) is int:  # exactly int: a bool is refused
                    total += item
                elif type(item) is str:
                    witnesses.append(item)
                else:
                    raise TypeError(f"a check yields int case counts and str witnesses, not {item!r}")
            return CheckResult(name, total, witnesses)
        check.name = name  # for a guard that reports the check when it raises
        return check
    return decorate


@dataclass(frozen=True)
class IrrepLabel:
    """An isomorphism class of irreducible modules: a composition of n."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.sizes) < 2 or any(type(s) is not int or s < 0 for s in self.sizes):
            raise ValueError(f"invalid composition {self.sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def c(self) -> int:
        return len(self.sizes) - 1

    def dimension(self) -> int:
        return multinomial(self.sizes)

    def representative(self) -> Profile:
        """The canonical bottom profile of this class: consecutive blocks, part 0 first, then part 1, ..."""
        ends = (0, *accumulate(self.sizes))  # c + 1 sorted blocks that partition 1..n: no validation needed
        return Profile._trusted(self.n, self.c, tuple(tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:])))

    def children(self) -> tuple["IrrepLabel", ...]:
        """Restriction summands one level down: decrement each nonzero part."""
        return tuple(self.child(j) for j, s in enumerate(self.sizes) if s > 0)

    def child(self, j: int) -> "IrrepLabel":
        """The class one level down with part j decremented; the constructor refuses a part that falls below 0."""
        if type(j) is not int or not 0 <= j < len(self.sizes):
            raise ValueError(f"no part {j!r} in composition {self.sizes}")
        return IrrepLabel(self.sizes[:j] + (self.sizes[j] - 1,) + self.sizes[j + 1:])

    def encode(self) -> str:
        return "|".join(str(s) for s in self.sizes)


def all_labels(n: int, c: int) -> tuple[IrrepLabel, ...]:
    """Every isomorphism class for width n, in colex order."""
    return tuple(IrrepLabel(sizes) for sizes in compositions(n, c))


@dataclass(frozen=True)
class ModuleSpace:
    """The irreducible module with bottom profile T, over its ordered x-basis.

    Basis vector j is x_(S_j, T) for the j-th top profile S_j with T's part sizes, in ``profiles_with_sizes``
    order; ``tops[j]`` is S_j packed, read off T's sizes alone and shared by T's class (:func:`_class_record`).
    ``top_profiles[j]`` is S_j, unpacked from ``tops`` on first use, and ``basis[j]`` is from_profiles(S_j, T).
    """

    bottom: Profile
    tops: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _slot: dict[int, int] = field(init=False, repr=False, compare=False)  # tops[j] -> j
    _sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)  # the bottom's part sizes n_k

    def __post_init__(self):
        if not isinstance(self.bottom, Profile):
            raise TypeError(f"a module is built from a bottom Profile, not {self.bottom!r}")
        require_shape(self.n, self.c)  # a Profile may have c = 0, a module may not
        sizes = self.bottom.sizes
        self._adopt(sizes, _class_record(self.n, self.c, sizes))

    def _adopt(self, sizes: tuple[int, ...], record: tuple) -> None:
        object.__setattr__(self, "tops", record[0])
        object.__setattr__(self, "_slot", record[1])
        object.__setattr__(self, "_sizes", sizes)

    @property
    def n(self) -> int:
        return self.bottom.n

    @property
    def c(self) -> int:
        return self.bottom.c

    @property
    def dimension(self) -> int:
        return len(self.tops)

    def label(self) -> IrrepLabel:
        return IrrepLabel(self._sizes)

    @cached_property
    def top_profiles(self) -> tuple[Profile, ...]:
        return tuple(_profiles_with_sizes(self.n, self.c, self._sizes, self.tops))

    @cached_property
    def basis(self) -> tuple[Diagram, ...]:
        return tuple(from_profiles(top, self.bottom) for top in self.top_profiles)

    def index_of(self, d: Diagram) -> int:
        return self._index[d]

    @cached_property
    def _index(self) -> dict[Diagram, int]:
        return {a: i for i, a in enumerate(self.basis)}


@lru_cache(maxsize=512)  # holds the 345 classes of n 5-7, c 2-3 at once; memory grows with classes seen, to 512
def _class_record(n: int, c: int, sizes: tuple[int, ...]) -> tuple:
    """A module class's fixed facts, built and checked once: its tops, the slot of each top, its restriction and
    its representative bottom profile.

    The restriction is the groups of basis indices by the part holding top vertex n, part index ascending, and
    the child class of each group, whose dimension must be the group's size; at n = 0 there are neither.
    """
    tops = _packed_profiles(n, c, sizes)
    if len(tops) != multinomial(sizes):
        raise AssertionError("a module basis has multinomially many vectors")
    part_of = {_bit(n, n, k): k for k in range(1, c + 1) if n}  # the bit of vertex n in part k; none at n = 0
    last, part_of[0] = sum(part_of), 0
    grouped: dict[int, list[int]] = {}
    for idx, top in enumerate(tops if n else ()):
        grouped.setdefault(part_of[top & last], []).append(idx)
    groups = tuple((j, tuple(g)) for j, g in sorted(grouped.items()))
    label = IrrepLabel(sizes)
    children = tuple(label.child(j) for j, _ in groups)
    if any(len(g) != child.dimension() for (_, g), child in zip(groups, children)):
        raise AssertionError("a restriction group must span its child class")
    return tops, {top: j for j, top in enumerate(tops)}, groups, children, label.representative()


def module_space(n: int, c: int, bottom: Profile) -> ModuleSpace:
    """The irreducible module with the given bottom profile."""
    if isinstance(bottom, Profile) and (bottom.n != n or bottom.c != c):  # ModuleSpace refuses a non-Profile
        raise MismatchError("profile does not match (n, c)")
    return ModuleSpace(bottom)


def label_module(label: IrrepLabel) -> ModuleSpace:
    """The canonical representative module of a class: a new module on its record's bottom, with one lookup."""
    record = _class_record(label.n, label.c, label.sizes)
    space = object.__new__(ModuleSpace)
    object.__setattr__(space, "bottom", record[4])
    space._adopt(label.sizes, record)
    return space


def all_bottom_profiles(n: int, c: int) -> Iterator[Profile]:
    """Every realizable bottom profile (all profiles are), in canonical order."""
    for sizes in compositions(n, c):
        yield from profiles_with_sizes(n, c, sizes)


# ---------------------------------------------------------------------------
# Actions.

ColumnMap = tuple[Optional[int], ...]  # per basis index, its image index or None


def diagram_action(d: Diagram, space: ModuleSpace) -> ColumnMap:
    """Column map of a diagram action: basis index -> image index or None.

    Column j is None unless, color by color, the top profile S_j lies inside
    d's bottom ends; then d * x_(S_j, T) is x_(S', T), with S' the vertices
    that d's edges carry S_j up to.  Of T only its part sizes n_k are read:
    if d has fewer color-k edges than n_k for some k, every column is None,
    and this is answered from d's edge counts before any edge is packed;
    otherwise choosing n_k color-k bottom ends per color gives a column that
    is not, so only then are the tops scanned.
    """
    _require_acting(d, space)
    if _falls_short(d.edges, space._sizes):
        return (None,) * space.dimension
    n, slot = d.n, space._slot
    up = {1 << (k - 1) * n + b - 1: 1 << (k - 1) * n + t - 1 for t, b, k in d.edges}  # bottom to top end, by _bit
    outside = ~sum(up)

    def image_slot(top: int) -> int:
        image, rest = 0, top
        while rest:
            low = rest & -rest
            image |= up[low]
            rest ^= low
        if image not in slot:  # d's edges keep each color's count, so S' has T's part sizes
            basis_vector = format_diagram(space.basis[slot[top]])
            raise AssertionError(f"action of {format_diagram(d)} leaves the span at basis vector {basis_vector}")
        return slot[image]

    return tuple([None if top & outside else image_slot(top) for top in space.tops])


def _require_acting(d: Diagram, space: ModuleSpace) -> None:
    """Refuse a diagram of another (n, c) than the module's, or a non-planar one."""
    if d.n != space.n or d.c != space.c:
        raise MismatchError("diagram does not match the module's (n, c)")
    if not _proven_planar(d):
        raise NonPlanarError(f"{format_diagram(d)} is not planar")


def column_lookup(outer: ColumnMap) -> Callable[[Optional[int]], Optional[int]]:
    """``outer`` as a function of a column: j to outer[j] and None to None; an index outside ``outer`` raises."""
    return {**dict(enumerate(outer)), None: None}.__getitem__


def compose_column_maps(outer: ColumnMap, inner: ColumnMap) -> ColumnMap:
    """Column map of `outer after inner` (apply inner first): each image of inner through outer's lookup."""
    return tuple(map(column_lookup(outer), inner))


def weighted_columns(weighted: Iterable[tuple[Rational, ColumnMap]], dimension: int) -> list[dict[int, Rational]]:
    """Sparse columns of the sum of coefficient * column map over ``(coefficient, column map)`` pairs."""
    cols: list[dict[int, Rational]] = [dict() for _ in range(dimension)]
    for coeff, column in weighted:
        for j, i in enumerate(column):
            if i is not None:
                cols[j][i] = cols[j].get(i, 0) + coeff
    return [{i: v for i, v in col.items() if v} for col in cols]


def action_trace(d: Diagram, space: ModuleSpace) -> int:
    """Trace of the diagram action: :func:`character`'s closed form on the module's part sizes.

    d fixes x_(S, T) exactly when, color by color, S lies on d's vertical
    edges, so the trace is the product over colors of C(l_k, n_k); the
    checks compare that form with the fixed points of :func:`diagram_action`.
    Shape and planarity are refused as in :func:`diagram_action`.
    """
    _require_acting(d, space)
    return _character(vertical_color_counts(d), space._sizes)


def _falls_short(edges: Iterable[Edge], sizes: tuple[int, ...]) -> bool:
    """True when ``edges`` hold fewer color-k edges than the part size ``sizes[k]`` for some color k."""
    colors = [k for _, _, k in edges]
    for k in range(1, len(sizes)):
        if colors.count(k) < sizes[k]:
            return True
    return False


def fixed_points(column: ColumnMap) -> int:
    """The number of basis vectors a column map fixes: the trace of the action it describes."""
    return sum(1 for j, i in enumerate(column) if i == j)


# ---------------------------------------------------------------------------
# Irreducibility and isomorphism classification.

@tallied("modules.irreducible")
def verify_irreducible(space: ModuleSpace) -> CheckResult:
    """Check that the module has no proper nonzero invariant subspace.

    The check is constructive: the diagram that projects onto one basis
    vector and the diagram that transports any basis vector to any other are
    built from profiles; the projector is verified through its action
    column, each transporter through its action on the one vector it must
    move.
    """
    for a_idx, (a, ta) in enumerate(zip(space.basis, space.top_profiles)):
        projector = from_profiles(ta, ta)
        col = diagram_action(projector, space)
        expected = tuple(a_idx if j == a_idx else None for j in range(space.dimension))
        yield 1
        if col != expected:
            yield (
                f"projector {format_diagram(projector)} is not the unit projection at {format_diagram(a)}"
            )
        for b, tb in zip(space.basis, space.top_profiles):
            transporter = from_profiles(tb, ta)
            yield 1
            if left_action_x(transporter, a) != b:
                yield (
                    f"transport {format_diagram(transporter)} fails to map "
                    f"{format_diagram(a)} to {format_diagram(b)}"
                )


@dataclass(frozen=True)
class IsoResult:
    """Answer to 'are these two modules isomorphic?', with a proof object.

    When isomorphic, ``intertwiner`` is the diagram whose right action maps
    the first basis bijectively onto the second.  Otherwise
    ``distinguisher`` is a projection diagram that acts nonzero on the
    module with the smaller color part and as zero on the other;
    ``annihilated`` records which argument (1 or 2) it kills.
    """

    isomorphic: bool
    intertwiner: Optional[Diagram] = None
    distinguisher: Optional[Diagram] = None
    annihilated: Optional[int] = None

    def __bool__(self) -> bool:
        return self.isomorphic


def are_isomorphic(space1: ModuleSpace, space2: ModuleSpace) -> IsoResult:
    """Modules are isomorphic iff their bottom part sizes agree; witnessed."""
    if (space1.n, space1.c) != (space2.n, space2.c):
        raise MismatchError("modules live over different monoids")
    t, s = space1.bottom, space2.bottom
    if t.sizes == s.sizes:
        return IsoResult(True, intertwiner=from_profiles(t, s))
    # Equal n, so unequal sizes differ in a color part; the tuple order compares the first that does.
    smaller, annihilated = (t, 2) if t.sizes[1:] < s.sizes[1:] else (s, 1)
    return IsoResult(False, distinguisher=from_profiles(smaller, smaller), annihilated=annihilated)


# ---------------------------------------------------------------------------
# The regular representation.

def regular_decomposition(n: int, c: int) -> list[tuple[IrrepLabel, int]]:
    """Isomorphism classes with multiplicities in the regular representation.

    Each class occurs with multiplicity equal to its dimension; that the
    squared dimensions add up to the number of diagrams is checked in
    ``checks``.
    """
    return [(label, label.dimension()) for label in all_labels(n, c)]


# ---------------------------------------------------------------------------
# Characters.

def character(d: Diagram, label: IrrepLabel) -> int:
    """Closed-form irreducible character of a diagram.

    Only vertical edges contribute: with l_i vertical edges of color i the
    value is the product over colors of C(l_i, n_i) (zero as soon as some
    n_i exceeds l_i).
    """
    if (d.n, d.c) != (label.n, label.c):
        raise MismatchError(f"diagram shape does not match label {label.sizes}")
    if not _proven_planar(d):
        raise NonPlanarError(f"{format_diagram(d)} is not planar")
    return _character(vertical_color_counts(d), label.sizes)


def _character(verticals: tuple[int, ...], sizes: tuple[int, ...]) -> int:
    """Product over colors i of C(l_i, n_i): l_i from ``verticals``, n_i from ``sizes`` without its part 0."""
    return math.prod(map(math.comb, verticals, sizes[1:]))


def character_table(n: int, c: int) -> tuple[list[tuple[int, ...]], list[IrrepLabel], list[list[int]]]:
    """Rows (vertical-count vectors, ordered by total then colex), columns (labels), and values.

    A row is the vertical color counts of its vertical diagram, so every cell
    is the closed form :func:`character` uses, and no diagram is built.
    """
    require_shape(n, c)
    labels = list(all_labels(n, c))  # before the rows, whose c - 1 a width refusal would name
    rows = []
    for total in range(n + 1):
        rows.extend(compositions(total, c - 1))
    values = [[_character(row, label.sizes) for label in labels] for row in rows]
    return rows, labels, values


def character_table_csv(n: int, c: int) -> bytes:
    """Deterministic CSV export of the character table."""
    rows, labels, values = character_table(n, c)
    lines = ["verticals," + ",".join(label.encode() for label in labels)]
    for row, row_values in zip(rows, values):
        lines.append("|".join(str(v) for v in row) + "," + ",".join(str(v) for v in row_values))
    return ("\n".join(lines) + "\n").encode("utf-8")


@tallied("modules.character-table")
def verify_character_table(n: int, c: int, cap: int = DEFAULT_DIAGRAM_CAP) -> CheckResult:
    """Recompute every table entry as the fixed points of ``diagram_action`` on a representative module."""
    require_color_cap(c, cap)  # each label has c + 1 parts, also at n = 0, where the basis bound is 1
    if (total := _clipped_power(c + 1, n, cap)) > cap:  # the label modules' multinomial dimensions sum to (c + 1)^n
        raise CapExceededError(f"at least {total} module basis vectors at (n={n}, c={c}) exceed the cap of {cap}")
    rows, labels, values = character_table(n, c)
    spaces = [label_module(label) for label in labels]
    for row, row_values in zip(rows, values):
        d = vertical_diagram(n, row)
        for label, space, value in zip(labels, spaces, row_values):
            yield 1
            if fixed_points(diagram_action(d, space)) != value:
                yield f"entry ({row}, {label.encode()}) differs from the trace"


# ---------------------------------------------------------------------------
# Restriction to one column fewer.

def restriction_groups(space: ModuleSpace) -> list[tuple[int, list[int]]]:
    """Basis indices grouped by where the last top vertex sits, part index ascending."""
    if space.n < 1:
        raise ValueError("restriction needs n >= 1")
    return [(j, list(indices)) for j, indices in _class_record(space.n, space.c, space._sizes)[2]]


def restriction_decomposition(space: ModuleSpace) -> list[IrrepLabel]:
    """Restriction summands, read off the class record's basis grouping.

    Grouping the basis by the part holding the last top vertex realizes the
    direct-sum decomposition under the embedded smaller algebra; the group
    for part j contributes the label with its j-th size decremented.  The
    record checked each group's size against the multinomial recursion when
    it was built.
    """
    if space.n < 1:
        raise ValueError("restriction needs n >= 1")
    return list(_class_record(space.n, space.c, space._sizes)[3])
