"""Finite abstract simplicial complexes, simplicial maps, and canonical forms.

Vertices are dense integers ``0..n-1``; a complex stores its full simplex
set (downward closed, every vertex present as a singleton) as integer
bitmasks, bit ``v`` standing for vertex ``v``.  Vertex tuples are derived
from the masks on demand, for JSON and display.  A canonical form is the
least relabeling of the masks under a fixed vertex cap, found by trying
every relabeling up to five vertices and by a pruned search above, so keys
agree exactly on isomorphism classes.
"""

from __future__ import annotations

import functools
import operator
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import _json, _kernels
from ._bits import CUBES, close_down, cube, family_of, grown, holding, mask_of, members, vertices_of

VERTEX_CAP = 8
#: the most vertices of a complex, as of every kernel; a family has 2^n bits
MAX_VERTICES = 16


class CapExceeded(ValueError):
    """Vertex count exceeds a search's cap."""


def _check_vertex_count(n_vertices: int):
    if n_vertices > MAX_VERTICES:
        raise ValueError(f"a complex has at most {MAX_VERTICES} vertices, got {n_vertices}")


@dataclass(frozen=True, init=False)
class SimplicialComplex:
    """Abstract simplicial complex on vertices ``0..n_vertices-1``.

    ``masks`` holds every simplex (not just facets) as a vertex bitmask, in
    ascending order, and ``family`` the same set as one family bitset;
    ``simplices`` derives sorted vertex tuples from them, ordered by
    dimension then vertex order.  Construction checks that every mask is
    in range, every singleton present and the set downward closed;
    :func:`make_complex` builds a complex from vertex tuples.  The order
    invariants ``n_components``, ``f_vector`` and ``free_sizes`` are
    computed once per complex, on first use.
    """

    n_vertices: int
    masks: tuple[int, ...]
    family: int = field(repr=False, compare=False)

    def __init__(self, n_vertices: int, masks: Iterable[int] = ()):
        if n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        _check_vertex_count(n_vertices)
        present = set(masks)
        for v in range(n_vertices):
            if 1 << v not in present:
                raise ValueError(f"vertex {v} is missing its singleton simplex")
        ordered = sorted(present)
        for m in ordered[:1] + ordered[-1:]:  # the least and the greatest
            if not 0 < m < 1 << n_vertices:
                raise ValueError(f"simplex mask {m:#b} is empty or outside 0..{n_vertices - 1}")
        family = family_of(n_vertices, ordered)
        for v in range(n_vertices):
            # each present mask holding v, with v removed; bit 0 is the empty face
            if missing := (family & holding(n_vertices, v)) >> (1 << v) & ~family & ~1:
                face = (missing & -missing).bit_length() - 1
                raise ValueError(f"not downward closed: {vertices_of(face | 1 << v)} present "
                                 f"but face {vertices_of(face)} missing")
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "masks", tuple(ordered))
        object.__setattr__(self, "family", family)

    @functools.cached_property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(map(vertices_of, self.masks), key=lambda t: (len(t), t)))

    @functools.cached_property
    def simplex_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.simplices)

    @functools.cached_property
    def n_components(self) -> int:
        """Connected components, which no vertex-surjective simplicial map
        out of the complex can increase.

        Those of the 1-skeleton: each vertex's neighbours (and itself) are
        one bitset, read off the 2-vertex masks, and each component is
        reached from its least unseen vertex by a bit-BFS whose frontier
        takes each vertex once."""
        n = self.n_vertices
        adjacent = [1 << v for v in range(n)]
        for m in self.masks:
            if m.bit_count() == 2:
                adjacent[(m & -m).bit_length() - 1] |= m
                adjacent[m.bit_length() - 1] |= m
        unseen = (1 << n) - 1
        count = 0
        while unseen:
            reached = frontier = unseen & -unseen
            while frontier:
                low = frontier & -frontier
                new = adjacent[low.bit_length() - 1] & ~reached
                reached |= new
                frontier ^= low | new  # low leaves, the new neighbours join
            unseen &= ~reached
            count += 1
        return count

    @functools.cached_property
    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts by size 1..n_vertices."""
        counts = [0] * self.n_vertices
        for m in self.masks:
            counts[m.bit_count() - 1] += 1
        return tuple(counts)

    @functools.cached_property
    def free_sizes(self) -> tuple[int, ...]:
        """By simplex size k = 1..n_vertices, the most vertices that span
        no k-vertex simplex.  No vertex-surjective simplicial map out of
        the complex can raise an entry: one preimage of each vertex of a
        free set of the target is a free set of the same size, since the
        map is injective on it and takes simplices to simplices.

        Read off the family bitset: the vertex sets that span a simplex of
        at least k vertices are the upward closure of those simplices, and
        the entry is the size of the largest set outside it.  Free sets are
        closed downward, and the entries grow with k.
        """
        n = self.n_vertices
        steps, layers = CUBES[n] if n < len(CUBES) else cube(n)
        sizes = []
        simplices = self.family  # those of at least k vertices
        free = 0  # the last entry
        while simplices:
            spans = simplices
            for a, d in steps:
                spans |= (spans & a) << d
            while free < n and layers[free + 1] & ~spans:
                free += 1
            sizes.append(free)
            simplices &= grown(simplices, steps)
        return tuple(sizes) + (n,) * (n - len(sizes))

    @property
    def dim(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0) - 1

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Maximal simplices, in (dimension, vertex order).

        Read off the family bitset F: ``(F & holding(v)) >> 2^v`` marks
        each simplex without vertex v that is a face of one with v, so the
        facets are the bits of F marked for no v.
        """
        n, family = self.n_vertices, self.family
        grows = 0
        for v in range(n):
            grows |= (family & holding(n, v)) >> (1 << v)
        maximal = map(vertices_of, members(family & ~grows))
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

    Rejects ``n_vertices == 0``, more than ``MAX_VERTICES``, and generator
    vertices that are not integers (as :class:`SimplicialMap` refuses
    vertex images) or lie outside range.
    """
    if n_vertices < 1:
        raise ValueError("a point configuration is nonempty: n_vertices must be >= 1")
    _check_vertex_count(n_vertices)
    masks = [1 << v for v in range(n_vertices)]
    for gen in generators:
        try:
            vs = set(map(_vertex_image, gen))
        except TypeError:
            raise ValueError(f"generator {gen!r} has a vertex that is not an integer") from None
        if not vs.issubset(range(n_vertices)):
            raise ValueError(f"generator {sorted(vs)} has a vertex outside 0..{n_vertices - 1}")
        masks.append(mask_of(vs))
    closure = close_down(n_vertices, family_of(n_vertices, masks))
    return SimplicialComplex(n_vertices, members(closure))


def _vertex_image(w) -> int:
    """``w`` as an int, as ``operator.index`` reads it, but not a bool,
    which is an int to Python and not a vertex to the JSON reader."""
    if isinstance(w, bool):
        raise TypeError("a bool is not a vertex")
    return operator.index(w)


@dataclass(frozen=True)
class SimplicialMap:
    """Total vertex map between two complexes.

    Simpliciality (every simplex image is a simplex) is the defining
    property checked by :func:`is_simplicial`; the constructor validates
    only that the images are integers, total and in range, so that
    candidate maps can be tested.
    """

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: tuple[int, ...]

    def __post_init__(self):
        vm = self.vertex_map
        # a tuple of exact ints, as the library's own maps are, is kept as it is
        if type(vm) is not tuple or not set(map(type, vm)) <= {int}:
            try:
                vm = tuple(map(_vertex_image, vm))
            except TypeError:
                raise ValueError(f"vertex images must be integers, got {vm!r}") from None
            object.__setattr__(self, "vertex_map", vm)
        if len(vm) != self.source.n_vertices:
            raise ValueError("vertex_map must assign every source vertex")
        top = self.target.n_vertices - 1
        if vm and (min(vm) < 0 or max(vm) > top):
            w = next(w for w in vm if w < 0 or w > top)
            raise ValueError(f"vertex image {w} outside 0..{top}")

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
        fmt = "simplicial-map JSON"
        source, target, vertex_map = _json.fields(data, fmt, "source", "target", "vertex_map")
        return cls(SimplicialComplex.from_json_dict(source), SimplicialComplex.from_json_dict(target),
                   tuple(_json.integers(vertex_map, fmt, '"vertex_map"')))


def is_simplicial(m: SimplicialMap) -> bool:
    """True iff every source simplex maps onto a target simplex.

    Under an identity vertex map that is the inclusion of the simplex
    sets.  Otherwise the source masks are read in ascending order, so the
    face of a simplex without its lowest vertex comes before it: the
    simplex's image is that face's image plus one vertex, and the check
    stops at the first image missing from the target.
    """
    vm, family = m.vertex_map, m.target.family
    if vm == tuple(range(len(vm))):
        return not m.source.family & ~family
    bits = [1 << w for w in vm]
    image = {0: 0}
    for s in m.source.masks:
        low = s & -s
        image[s] = img = image[s ^ low] | bits[low.bit_length() - 1]
        if not family >> img & 1:
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


#: classes kept, by the masks as passed and by canonical masks; each of the
#: two caches below holds one entry per complex.  ``enumerate_classes(5)``
#: fills 208 entries of each, and a perfbench growth zigzag (seed 1) at most
#: 15.  The largest entry, the full simplex on 8 vertices (255 masks), takes
#: about 18 kB across both caches with its key (``tracemalloc``), so 1,024
#: of them take about 18 MB.
_CANON_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_CANON_CACHE_SIZE)
def _canonical_cached(n: int, masks: tuple[int, ...]) -> IsoClass:
    return _iso_class(n, _kernels.canonical_masks(n, masks))


@functools.lru_cache(maxsize=_CANON_CACHE_SIZE)
def _iso_class(n: int, canon: tuple[int, ...]) -> IsoClass:
    """The class held by canonical masks, built once per class."""
    key = bytes([n]) + struct.pack(f">{len(canon)}H", *canon)
    return IsoClass(SimplicialComplex(n, canon), key)


def canonical_form(c: SimplicialComplex) -> IsoClass:
    """Canonical representative and key under vertex relabeling.

    The representative is the relabeling whose sorted masks are
    lexicographically least.  The one labeling of both backends, the
    pure kernel's, tries all n! relabelings up to five vertices, in one
    wide-integer pass, and finds it by a pruned search above.  Complexes
    above ``VERTEX_CAP`` vertices are rejected rather than silently
    taking factorial time.
    """
    if c.n_vertices > VERTEX_CAP:
        raise CapExceeded(f"canonical form needs {c.n_vertices} vertices > cap {VERTEX_CAP}")
    return _canonical_cached(c.n_vertices, c.masks)


def are_isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    if a.n_vertices != b.n_vertices:
        return False
    return canonical_form(a).key == canonical_form(b).key
