"""The domination order on isomorphism classes of simplicial complexes.

``a`` dominates ``b`` when some simplicial map from a representative of
``a`` onto a representative of ``b`` is surjective on vertices: merging
vertices and growing simplex sets both move *down*.  The module provides
witness search, exhaustive enumeration up to a vertex bound, upset
queries, and Hasse diagrams with DOT export.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import _json, _kernels
from ._bits import holding, members, set_bits
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
    invariants each complex computes once (``n_components``, ``f_vector``),

    - ``c`` has fewer vertices than ``c_prime``, or fewer connected components;
    - as many vertices (a map would be a bijection, so injective on
      simplices), and some simplex count above ``c_prime``'s, or all of
      them equal and the two not isomorphic.
    """
    if c.n_vertices > VERTEX_CAP or c_prime.n_vertices > VERTEX_CAP:
        raise CapExceeded(f"domination search capped at {VERTEX_CAP} vertices, "
                          f"got {c.n_vertices} and {c_prime.n_vertices}")
    if c.n_vertices < c_prime.n_vertices or c.n_components < c_prime.n_components:
        return None
    if c.n_vertices == c_prime.n_vertices:
        fa, fb = c.f_vector, c_prime.f_vector
        # equal f-vectors exclude only a different class: decide by the keys
        if _bijection_excluded(fa, fb) and (
                fa != fb or canonical_form(c).key != canonical_form(c_prime).key):
            return None
    witness = _kernels.surjection_witness(c.n_vertices, c_prime.n_vertices, c.masks, c_prime.masks)
    return None if witness is None else SimplicialMap(c, c_prime, witness)


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
        digits = f"0{len(self.classes)}b"
        return tuple(tuple(map("1".__eq__, format(row, digits)[::-1])) for row in self.ge)

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


def _labeled_complexes(n: int) -> list[int]:
    """Every downward-closed simplex family on exactly n labeled vertices,
    each as one bitset with bit ``m`` set for simplex mask ``m``.

    Simplices of size >= 2 are taken in (size, mask) order, and each family
    found so far that holds all facets of a mask is found again with the
    mask added, so each family comes out exactly once.
    """
    families = [sum(1 << (1 << v) for v in range(n))]
    for m in sorted((m for m in range(1 << n) if m.bit_count() >= 2),
                    key=lambda m: (m.bit_count(), m)):
        faces = sum(1 << (m ^ 1 << v) for v in set_bits(m))
        families += [f | 1 << m for f in families if f & faces == faces]
    return families


def _plain_changes(n: int) -> list[tuple[int, int]]:
    """The n! - 1 swaps of adjacent vertices in plain-changes order
    (Steinhaus-Johnson-Trotter): applied in turn to a family bitset, they
    reach each of its relabellings once.

    The swap of u and u + 1 is given as ``(a, 2^u)``: it moves the masks in
    ``a``, those holding u but not u + 1, up by 2^u, and the masks they
    land on down by as much.
    """
    order: list[int] = []
    for k in range(2, n + 1):
        # item k - 1 sweeps down across the other k - 1 and back up, with one
        # swap of their own order between two sweeps; while it is at the
        # bottom, the others sit one place higher
        sweeps = (range(k - 2, -1, -1), range(k - 1))
        longer: list[int] = []
        for i, u in enumerate(order):
            longer += sweeps[i % 2]
            longer.append(u + 1 - i % 2)
        order = longer + list(sweeps[len(order) % 2])
    swaps = [(holding(n, u) & ~holding(n, u + 1), 1 << u) for u in range(n - 1)]
    return [swaps[u] for u in order]


def _orbit(family: int, swaps: list[tuple[int, int]]) -> list[int]:
    """``family`` followed by its image after each of ``swaps`` in turn.
    Each is a delta swap: ``t`` marks the masks in ``a`` whose bit differs
    from the bit ``d`` places above, and both bits of each pair flip."""
    orbit = [family]
    for a, d in swaps:
        t = (family ^ family >> d) & a
        family ^= t | t << d
        orbit.append(family)
    return orbit


def _bijection_excluded(fa: tuple[int, ...], fb: tuple[int, ...]) -> bool:
    """True when no simplicial bijection maps a complex with f-vector ``fa``
    onto a different class with f-vector ``fb``: a bijection is injective
    on simplices, and with equal f-vectors it would be an isomorphism."""
    return fa == fb or any(x > y for x, y in zip(fa, fb))


def enumerate_classes(n_max: int) -> PosetUniverse:
    """Every isomorphism class on 1..n_max vertices with the full relation;
    ``n_max`` is at most ``ENUM_CAP``.

    Classes: the labeled complexes of each vertex count are visited in
    turn as family bitsets, and one that is not yet a known relabeling
    gets its canonical form.  Its whole orbit is then marked known, walked
    on the bitset by the n! - 1 adjacent vertex swaps of plain-changes
    order, a few word operations each.  So the canonical labeling runs
    once per class.

    Relation: the pairs (a, b) are decided with ``a`` ascending and ``b``
    descending in class order, by transitivity from the answers already
    known where it applies:

    - some c with a >= c >= b: yes;
    - some c with c >= a but not c >= b, or b >= c but not a >= c: no;
    - otherwise by :func:`dominates`, whose invariants decide most of the
      rest without a witness search.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > ENUM_CAP:
        raise CapExceeded(f"enumeration capped at {ENUM_CAP} vertices, got n_max={n_max}")
    found: list[IsoClass] = []
    for n in range(1, n_max + 1):
        swaps = _plain_changes(n)
        known: set[int] = set()
        for family in _labeled_complexes(n):
            if family not in known:
                found.append(canonical_form(SimplicialComplex(n, members(family))))
                known.update(_orbit(family, swaps))
    classes = tuple(sorted(found, key=lambda c: (c.n_vertices, c.key)))

    size = len(classes)
    # known facts as bitsets: ge[a] holds each b with a >= b, le[b] each
    # a with a >= b; nge and nle the same for "not >="
    ge = [1 << a for a in range(size)]
    le = ge[:]
    nge = [0] * size
    nle = [0] * size
    for a, ca in enumerate(classes):
        for b in reversed(range(size)):
            if ge[a] & le[b]:
                above = True
            elif le[a] & nle[b] or ge[b] & nge[a]:
                above = False
            else:
                above = dominates(ca.canonical, classes[b].canonical) is not None
            if above:
                ge[a] |= 1 << b
                le[b] |= 1 << a
            else:
                nge[a] |= 1 << b
                nle[b] |= 1 << a
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
