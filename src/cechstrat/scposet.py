"""The domination order on isomorphism classes of simplicial complexes.

``a`` dominates ``b`` when some simplicial map from a representative of
``a`` onto a representative of ``b`` is surjective on vertices: merging
vertices and growing simplex sets both move *down*.  The module provides
witness search, exhaustive enumeration up to a vertex bound, upset
queries, and Hasse diagrams with DOT export.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from . import _json, _kernels
from ._bits import holding, members, relabellings, set_bits
from .complexes import (
    VERTEX_CAP,
    CapExceeded,
    IsoClass,
    SimplicialComplex,
    SimplicialMap,
    canonical_form,
)

ENUM_CAP = 5


def dominates(c: SimplicialComplex, c_prime: SimplicialComplex) -> SimplicialMap | None:
    """Witnessing vertex-surjective simplicial map ``c -> c_prime``, if any.

    Deterministic: returns the first witness found by backtracking over
    vertex assignments in ascending order.  Refuses complexes of more than
    ``VERTEX_CAP`` vertices.  Returns None without a search when, by the
    invariants each complex computes once (``n_components``, ``f_vector``,
    ``free_sizes``),

    - ``c`` has fewer vertices than ``c_prime``, or fewer connected components;
    - more vertices, and for some k fewer vertices that span no k-vertex
      simplex than ``c_prime`` has;
    - as many vertices (a map would be a bijection, so injective on
      simplices), and some simplex count above ``c_prime``'s, or all of
      them equal (a bijection would then be an isomorphism) and the two
      canonical keys different; only this case labels the complexes.
    """
    if c.n_vertices > VERTEX_CAP or c_prime.n_vertices > VERTEX_CAP:
        raise CapExceeded(f"domination search capped at {VERTEX_CAP} vertices, "
                          f"got {c.n_vertices} and {c_prime.n_vertices}")
    if c.n_vertices < c_prime.n_vertices or c.n_components < c_prime.n_components:
        return None
    if c.n_vertices > c_prime.n_vertices:
        # compared up to c_prime's vertex count n': above it c_prime's entry
        # would be n', and any n' vertices of c span no larger simplex
        if any(map(operator.lt, c.free_sizes, c_prime.free_sizes)):
            return None
    else:
        fa, fb = c.f_vector, c_prime.f_vector
        # a bijection is injective on simplices, and with equal f-vectors an
        # isomorphism: only then are the two labelled
        if any(map(operator.gt, fa, fb)) or (
                fa == fb and canonical_form(c).key != canonical_form(c_prime).key):
            return None
    witness = _kernels.surjection_witness(c.n_vertices, c_prime.n_vertices, c.masks, c_prime.masks)
    return None if witness is None else SimplicialMap(c, c_prime, witness)


#: the digits "0" and "1" to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class PosetUniverse:
    """All isomorphism classes with at most ``n_max`` vertices plus the
    full domination relation between them (reflexive, antisymmetric,
    transitive), stored as bitset rows: bit ``b`` of ``ge[a]`` is set when
    class ``a`` dominates class ``b``.  ``relation`` reads the rows as a
    matrix of bools, as the JSON form writes them."""

    classes: tuple[IsoClass, ...]
    ge: tuple[int, ...]
    n_max: int

    def __post_init__(self):
        size = len(self.classes)
        if len(self.ge) != size or not all(0 <= row < 1 << size for row in self.ge):
            raise ValueError(f"the relation needs one bitset row per class, each within "
                             f"the {size} classes; got {len(self.ge)} rows")

    @functools.cached_property
    def relation(self) -> tuple[tuple[bool, ...], ...]:
        # each row's digits, lowest bit first, as bytes 0 and 1
        digits = f"0{len(self.classes)}b"
        return tuple(tuple(map(bool, format(row, digits)[::-1].encode().translate(_BIT_BYTES)))
                     for row in self.ge)

    def index_of(self, cls: IsoClass) -> int:
        for i, c in enumerate(self.classes):
            if c.key == cls.key:
                return i
        raise ValueError("class does not belong to this universe")

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "classes": [c.canonical.to_json_dict() for c in self.classes],
            "relation": [list(row) for row in self.relation],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PosetUniverse":
        """The universe a JSON form describes, refused unless each class has
        at most ``n_max`` vertices and the relation is a partial order."""
        fmt = "universe JSON"
        n_max, classes, relation = _json.fields(data, fmt, "n_max", "classes", "relation")
        n_max = _json.integer(n_max, fmt, '"n_max"')
        classes = tuple(canonical_form(SimplicialComplex.from_json_dict(c))
                        for c in _json.array(classes, fmt, '"classes"'))
        for c in classes:
            if c.n_vertices > n_max:
                raise ValueError(f"{fmt}: a class has {c.n_vertices} vertices, "
                                 f"above n_max = {n_max}")
        ge = []
        for row in _json.array(relation, fmt, '"relation"'):
            if len(_json.booleans(row, fmt, "a relation row")) != len(classes):
                raise ValueError(f"{fmt}: a relation row needs {len(classes)} entries, got {row!r}")
            ge.append(sum(1 << b for b, above in enumerate(row) if above))
        universe = cls(classes, tuple(ge), n_max)  # one row per class, in range
        for a, row in enumerate(ge):
            if not row >> a & 1:
                raise ValueError(f"{fmt}: the relation is not reflexive at class {a}")
            for b in set_bits(row & ~(1 << a)):
                if ge[b] >> a & 1:
                    raise ValueError(f"{fmt}: the relation is not antisymmetric: "
                                     f"classes {a} and {b} are above each other")
                if ge[b] & ~row:
                    raise ValueError(f"{fmt}: the relation is not transitive: class {a} "
                                     f"is above class {b} but not above all it is above")
        return universe


def _addable(n: int, family: int) -> int:
    """The masks not in ``family``, a complex on n vertices, whose facets all
    are, as a family bitset: bit m of ``family << 2^v`` is m's facet without v."""
    addable = ((1 << (1 << n)) - 2) & ~family
    for v in range(n):
        addable &= ~holding(n, v) | family << (1 << v)
    return addable


def enumerate_classes(n_max: int) -> PosetUniverse:
    """Every isomorphism class on 1..n_max vertices with the full relation;
    ``n_max`` is at most ``ENUM_CAP``.

    Classes: those on n vertices are grown from the discrete complex as
    family bitsets, one addable simplex (:func:`_addable`) at a time.  A
    family of a class not yet known gets its canonical form, its n!
    relabellings, taken at once by :func:`cechstrat._bits.relabellings` (as
    the labeling takes them), are mapped to that class, and its additions
    are grown.  So each class is labeled once, and each is
    reached: a complex less a maximal simplex has that simplex addable.

    Relation: rows are filled with the vertex count ascending and the
    simplex count descending, lowest first, so every class below a has its
    row first:

    - as many vertices: a map is a bijection, so a >= c exactly when c is a
      relabeled a grown one addable simplex at a time (:func:`_addable`);
    - fewer vertices, in the rows' order: a class not in the row, nor above
      one found not below a, is decided by :func:`dominates`.  Lowest
      first, a class found not below a rules out the classes above it
      before they are tried.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > ENUM_CAP:
        raise CapExceeded(f"enumeration capped at {ENUM_CAP} vertices, got n_max={n_max}")
    found: list[IsoClass] = []
    class_of: dict[int, IsoClass] = {}
    for n in range(1, n_max + 1):
        grown = [sum(1 << (1 << v) for v in range(n))]
        while grown:
            family = grown.pop()
            if family not in class_of:
                found.append(canonical_form(SimplicialComplex(n, members(family))))
                class_of.update(dict.fromkeys(relabellings(n, family), found[-1]))
                grown += (family | 1 << m for m in set_bits(_addable(n, family)))
    classes = tuple(sorted(found, key=lambda c: (c.n_vertices, c.key)))
    index = {c.key: i for i, c in enumerate(classes)}
    sizes = [c.n_vertices for c in classes]
    ge = [0] * len(classes)  # bit b of ge[a] set when a >= b
    rows = sorted(range(len(classes)), key=lambda a: (sizes[a], -len(classes[a].canonical.masks)))
    row_sizes = [sizes[a] for a in rows]
    for a in rows:
        c = classes[a].canonical
        row = 1 << a
        for m in set_bits(_addable(c.n_vertices, c.family)):
            row |= ge[index[class_of[c.family | 1 << m].key]]
        no = 0  # the classes found not below a
        for b in rows[:row_sizes.index(sizes[a])]:
            if not (row >> b & 1 or ge[b] & no):
                if dominates(c, classes[b].canonical) is None:
                    no |= 1 << b
                else:
                    row |= ge[b]
        ge[a] = row
    return PosetUniverse(classes, tuple(ge), n_max)


def upset(cls: IsoClass, universe: PosetUniverse) -> tuple[IsoClass, ...]:
    """All classes of the universe dominating ``cls`` (including itself)."""
    j = universe.index_of(cls)
    return tuple(c for c, row in zip(universe.classes, universe.ge) if row >> j & 1)


@dataclass(frozen=True)
class HasseDiagram:
    """Transitive reduction of the strict domination order.

    ``cover_edges`` are (higher, lower) index pairs into ``nodes``.
    """

    nodes: tuple[IsoClass, ...]
    cover_edges: tuple[tuple[int, int], ...]


def hasse(universe: PosetUniverse) -> HasseDiagram:
    """Cover edges read from the universe's bitset rows: ``b`` is covered
    by ``a`` when it is strictly below ``a`` and below no class strictly
    below ``a``."""
    strict = [row & ~(1 << i) for i, row in enumerate(universe.ge)]
    edges = []
    for i, row in enumerate(strict):
        # walk the set bits of the row, skipping each class already found
        # below another: by transitivity, all below it is then known too
        covers = rest = row
        while rest:
            low = rest & -rest
            covers &= ~strict[low.bit_length() - 1]
            rest = (rest ^ low) & covers
        edges += ((i, j) for j in set_bits(covers))
    return HasseDiagram(universe.classes, tuple(edges))


def _node_label(cls: IsoClass) -> str:
    return " ".join("{" + ",".join(map(str, f)) + "}" for f in cls.canonical.facets())


def export_dot(diagram: HasseDiagram) -> str:
    """Deterministic DOT digraph, nodes labeled by canonical facet lists,
    edges pointing from higher class to lower."""
    lines = ["digraph hasse {"]
    for i, cls in enumerate(diagram.nodes):
        lines.append(f'  c{i} [label="{_node_label(cls)}"];')
    for i, j in diagram.cover_edges:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
