"""The domination order on isomorphism classes of simplicial complexes.

``a`` dominates ``b`` when some simplicial map from a representative of
``a`` onto a representative of ``b`` is surjective on vertices: merging
vertices and growing simplex sets both move *down*.  The module provides
witness search, exhaustive enumeration up to a vertex bound, upset
queries, and Hasse diagrams with DOT export.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from ._bits import facet_submasks, vertices_of
from .complexes import (
    VERTEX_CAP,
    CapExceeded,
    IsoClass,
    SimplicialComplex,
    SimplicialMap,
    canonical_form,
)

ENUM_CAP = 5


def dominates(c: SimplicialComplex, c_prime: SimplicialComplex,
              cap: int = VERTEX_CAP) -> SimplicialMap | None:
    """Witnessing vertex-surjective simplicial map ``c -> c_prime``, if any.

    Deterministic: returns the first witness found by backtracking over
    vertex assignments in ascending order.
    """
    if c.n_vertices > cap or c_prime.n_vertices > cap:
        raise CapExceeded(
            f"domination search capped at {cap} vertices, "
            f"got {c.n_vertices} and {c_prime.n_vertices}"
        )
    witness = _kernels.surjection_witness(
        c.n_vertices, c_prime.n_vertices, c.masks, c_prime.masks
    )
    if witness is None:
        return None
    return SimplicialMap(c, c_prime, witness)


@dataclass(frozen=True)
class PosetUniverse:
    """All isomorphism classes with at most ``n_max`` vertices plus the
    full domination relation between them (reflexive, antisymmetric,
    transitive)."""

    classes: tuple[IsoClass, ...]
    relation: tuple[tuple[bool, ...], ...]
    n_max: int

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
        classes = tuple(
            canonical_form(SimplicialComplex.from_json_dict(c)) for c in data["classes"]
        )
        relation = tuple(tuple(bool(x) for x in row) for row in data["relation"])
        return cls(classes, relation, int(data["n_max"]))


def _labeled_complexes(n: int):
    """Every downward-closed simplex family on exactly n labeled vertices.

    Simplices of size >= 2 are decided one by one in (size, mask) order;
    a mask may be included only when all its facets already are, so each
    family is produced exactly once.
    """
    candidates = sorted(
        (m for m in range(1 << n) if m.bit_count() >= 2),
        key=lambda m: (m.bit_count(), m),
    )
    singletons = [1 << v for v in range(n)]
    family: set[int] = set()

    def rec(i: int):
        if i == len(candidates):
            yield tuple(singletons) + tuple(sorted(family))
            return
        yield from rec(i + 1)
        m = candidates[i]
        if all(face.bit_count() < 2 or face in family for face in facet_submasks(m)):
            family.add(m)
            yield from rec(i + 1)
            family.remove(m)

    yield from rec(0)


def enumerate_classes(n_max: int, cap: int = ENUM_CAP) -> PosetUniverse:
    """Every isomorphism class on 1..n_max vertices with the full relation.

    Enumerates labeled complexes per vertex count, dedupes by canonical
    key, then fills the relation matrix by witness search.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > cap:
        raise CapExceeded(f"enumeration capped at {cap} vertices, got n_max={n_max}")
    by_key: dict[bytes, IsoClass] = {}
    for n in range(1, n_max + 1):
        for masks in _labeled_complexes(n):
            cls = canonical_form(SimplicialComplex.from_masks(n, masks), cap=cap)
            by_key.setdefault(cls.key, cls)
    classes = tuple(sorted(by_key.values(), key=lambda c: (c.n_vertices, c.key)))
    relation = []
    for a in classes:
        row = []
        for b in classes:
            if a.n_vertices < b.n_vertices:
                row.append(False)
            elif a.key == b.key:
                row.append(True)
            else:
                row.append(dominates(a.canonical, b.canonical, cap=cap) is not None)
        relation.append(tuple(row))
    return PosetUniverse(classes, tuple(relation), n_max)


def upset(cls: IsoClass, universe: PosetUniverse) -> tuple[IsoClass, ...]:
    """All classes of the universe dominating ``cls`` (including itself)."""
    j = universe.index_of(cls)
    return tuple(
        universe.classes[i]
        for i in range(len(universe.classes))
        if universe.relation[i][j]
    )


@dataclass(frozen=True)
class HasseDiagram:
    """Transitive reduction of the strict domination order.

    ``cover_edges`` are (higher, lower) index pairs into ``nodes``.
    """

    nodes: tuple[IsoClass, ...]
    cover_edges: tuple[tuple[int, int], ...]


def hasse(universe: PosetUniverse) -> HasseDiagram:
    # row i as a bitset of the classes strictly below class i
    strict = [sum(1 << j for j, below in enumerate(row) if below and j != i)
              for i, row in enumerate(universe.relation)]
    edges = []
    for i, row in enumerate(strict):
        covers = row
        for j in vertices_of(row):
            covers &= ~strict[j]
        edges += ((i, j) for j in vertices_of(covers))
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
