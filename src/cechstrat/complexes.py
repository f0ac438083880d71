"""Finite abstract simplicial complexes, simplicial maps, and canonical forms.

Vertices are dense integers ``0..n-1``; a complex stores its full simplex
set (downward closed, every vertex present as a singleton) as integer
bitmasks, bit ``v`` standing for vertex ``v``.  Vertex tuples are derived
from the masks on demand, for JSON and display.  A canonical form is the
least relabeling of the masks, found by a pruned search under a
configurable vertex cap, so keys agree exactly on isomorphism classes.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

from . import _json, _kernels
from ._bits import facet_submasks, mask_of, proper_submasks, vertices_of

VERTEX_CAP = 8


class CapExceeded(ValueError):
    """Vertex count exceeds the configured cap."""


@dataclass(frozen=True, init=False)
class SimplicialComplex:
    """Abstract simplicial complex on vertices ``0..n_vertices-1``.

    ``masks`` holds every simplex (not just facets) as a vertex bitmask, in
    ascending order; ``simplices`` derives sorted vertex tuples from them,
    ordered by dimension then vertex order.  Simplices are given as vertex
    tuples and/or ``masks``; construction checks that every vertex is in
    range, every singleton present and the set downward closed.
    """

    n_vertices: int
    masks: tuple[int, ...]

    def __init__(self, n_vertices: int, simplices: Iterable[Iterable[int]] = (), *,
                 masks: Iterable[int] = ()):
        if n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        present = set(masks)
        for s in simplices:
            vs = {int(v) for v in s}
            if not vs.issubset(range(n_vertices)):
                raise ValueError(f"simplex {sorted(vs)} has a vertex outside 0..{n_vertices - 1}")
            present.add(mask_of(vs))
        for v in range(n_vertices):
            if 1 << v not in present:
                raise ValueError(f"vertex {v} is missing its singleton simplex")
        for m in present:
            if not 0 < m < 1 << n_vertices:
                raise ValueError(f"simplex mask {m:#b} is empty or outside 0..{n_vertices - 1}")
            for face in facet_submasks(m):
                if face and face not in present:
                    raise ValueError(f"not downward closed: {vertices_of(m)} present "
                                     f"but face {vertices_of(face)} missing")
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "masks", tuple(sorted(present)))
        object.__setattr__(self, "_present", frozenset(present))

    @classmethod
    def from_masks(cls, n_vertices: int, masks: Iterable[int]) -> "SimplicialComplex":
        return cls(n_vertices, masks=masks)

    @functools.cached_property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(map(vertices_of, self.masks), key=lambda t: (len(t), t)))

    @functools.cached_property
    def simplex_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.simplices)

    @property
    def dim(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0) - 1

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Maximal simplices, in (dimension, vertex order)."""
        present = self._present
        maximal = (
            vertices_of(m) for m in self.masks
            if not any(m | 1 << v in present for v in range(self.n_vertices) if not m >> v & 1)
        )
        return tuple(sorted(maximal, key=lambda t: (len(t), t)))

    def to_json_dict(self) -> dict:
        return {"n_vertices": self.n_vertices, "simplices": [list(s) for s in self.simplices]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        fmt = "complex JSON"
        n, simplices = _json.fields(data, fmt, "n_vertices", "simplices")
        if _json.integer(n, fmt, '"n_vertices"') < 1:
            raise ValueError("complex JSON requires n_vertices >= 1")
        return make_complex(n, [_json.integers(s, fmt, "a simplex")
                                for s in _json.array(simplices, fmt, '"simplices"')])


def make_complex(n_vertices: int, generators: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Downward closure of the generators plus all singletons.

    Rejects ``n_vertices == 0`` and generator vertices outside range.
    """
    if n_vertices < 1:
        raise ValueError("a point configuration is nonempty: n_vertices must be >= 1")
    masks = {1 << v for v in range(n_vertices)}
    for gen in generators:
        vs = {int(v) for v in gen}
        if not vs.issubset(range(n_vertices)):
            raise ValueError(f"generator {sorted(vs)} has a vertex outside 0..{n_vertices - 1}")
        if vs:
            m = mask_of(vs)
            masks.add(m)
            masks.update(proper_submasks(m))
    return SimplicialComplex.from_masks(n_vertices, masks)


@dataclass(frozen=True)
class SimplicialMap:
    """Total vertex map between two complexes.

    Simpliciality (every simplex image is a simplex) is the defining
    property checked by :func:`is_simplicial`; the constructor validates
    only totality and range so that candidate maps can be tested.
    """

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", tuple(int(v) for v in self.vertex_map))
        if len(self.vertex_map) != self.source.n_vertices:
            raise ValueError("vertex_map must assign every source vertex")
        for w in self.vertex_map:
            if w < 0 or w >= self.target.n_vertices:
                raise ValueError(f"vertex image {w} outside 0..{self.target.n_vertices - 1}")

    def is_vertex_surjective(self) -> bool:
        return len(set(self.vertex_map)) == self.target.n_vertices

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.to_json_dict(),
            "target": self.target.to_json_dict(),
            "vertex_map": list(self.vertex_map),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialMap":
        return cls(
            SimplicialComplex.from_json_dict(data["source"]),
            SimplicialComplex.from_json_dict(data["target"]),
            tuple(data["vertex_map"]),
        )


def is_simplicial(m: SimplicialMap) -> bool:
    """True iff every source simplex maps onto a target simplex.

    Under an identity vertex map that is the inclusion of the simplex
    sets.  Otherwise the source masks are read in ascending order, so the
    face of a simplex without its lowest vertex comes before it: the
    simplex's image is that face's image plus one vertex, and the check
    stops at the first image missing from the target.
    """
    vm, present = m.vertex_map, m.target._present
    if vm == tuple(range(len(vm))):
        return m.source._present <= present
    bits = [1 << w for w in vm]
    image = {0: 0}
    for s in m.source.masks:
        low = s & -s
        image[s] = img = image[s ^ low] | bits[low.bit_length() - 1]
        if img not in present:
            return False
    return True


def identity_map(c: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(c, c, tuple(range(c.n_vertices)))


def compose(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """The map ``g after f``; requires ``f.target == g.source``."""
    if f.target != g.source:
        raise ValueError("cannot compose: middle complexes differ")
    return SimplicialMap(f.source, g.target, tuple(g.vertex_map[w] for w in f.vertex_map))


@dataclass(frozen=True)
class IsoClass:
    """Isomorphism class of a complex, held by a canonical representative.

    Two complexes have equal ``key`` exactly when they are isomorphic.
    """

    canonical: SimplicialComplex
    key: bytes

    @property
    def key_hex(self) -> str:
        return self.key.hex()

    @property
    def n_vertices(self) -> int:
        return self.canonical.n_vertices

    def to_json_dict(self) -> dict:
        return {"complex": self.canonical.to_json_dict(), "key": self.key_hex}


@functools.lru_cache(maxsize=65536)
def _canonical_cached(n: int, masks: tuple[int, ...]) -> IsoClass:
    return _iso_class(n, _kernels.canonical_masks(n, masks))


@functools.lru_cache(maxsize=65536)
def _iso_class(n: int, canon: tuple[int, ...]) -> IsoClass:
    """The class held by canonical masks, built once per class.  Its
    representative is marked canonical, so its own canonical form needs no
    search."""
    key = bytes([n]) + b"".join(m.to_bytes(2, "big") for m in canon)
    rep = SimplicialComplex.from_masks(n, canon)
    object.__setattr__(rep, "_canonical", True)
    return IsoClass(rep, key)


def canonical_form(c: SimplicialComplex, cap: int = VERTEX_CAP) -> IsoClass:
    """Canonical representative and key under vertex relabeling.

    The representative is the relabeling whose sorted masks are
    lexicographically least: the pure kernel finds it by a pruned search,
    the compiled one by trying all n! relabelings.  Complexes above ``cap``
    vertices are rejected rather than silently taking factorial time.
    """
    if c.n_vertices > cap:
        raise CapExceeded(f"canonical form needs {c.n_vertices} vertices > cap {cap}")
    if c.__dict__.get("_canonical"):
        return _iso_class(c.n_vertices, c.masks)
    return _canonical_cached(c.n_vertices, c.masks)


def are_isomorphic(a: SimplicialComplex, b: SimplicialComplex, cap: int = VERTEX_CAP) -> bool:
    if a.n_vertices != b.n_vertices:
        return False
    return canonical_form(a, cap).key == canonical_form(b, cap).key
