"""Bitmask helpers for vertex subsets.

Simplices on vertices {0, ..., n-1} are represented internally as integer
masks; these helpers convert between masks and sorted vertex tuples.  A
set of masks on n vertices is also one integer, its *family bitset*, with
bit ``m`` set for each mask ``m``; these helpers build one, close it
downward in n word operations and list its members.  All n! relabellings
of a family bitset on at most five vertices are taken at once: the
family is copied into n! lanes of one wide int, and a network of
lane-masked delta swaps of adjacent vertices leaves a different
relabelling in each lane (Knuth, *TAOCP* 4A, 7.1.3, "Bitwise tricks and
techniques").
"""

from __future__ import annotations

import itertools
import struct
from collections.abc import Iterable


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


#: ``vertices_of(m)`` for every mask m below 2^8, built once at import: the
#: masks of complexes on at most ``complexes.VERTEX_CAP`` = 8 vertices,
#: which labels, canonical forms and enumeration list thousands of times
_VERTICES = tuple(tuple(v for v in range(8) if m >> v & 1) for m in range(256))


def vertices_of(mask: int) -> tuple[int, ...]:
    """The vertices of ``mask``, ascending."""
    return _VERTICES[mask] if 0 <= mask < 256 else tuple(set_bits(mask))


def family_of(n: int, masks: Iterable[int]) -> int:
    """The family bitset of ``masks`` on n vertices, built in time linear
    in 2^n (a sum of ``1 << m`` would be quadratic)."""
    digits = bytearray(b"0") * (1 << n)
    for m in masks:
        digits[m] = 49  # ord("1")
    return int(digits[::-1], 2)


def _holding(n: int, v: int) -> int:
    full = (1 << (1 << n)) - 1
    return full // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))


#: ``holding(n, v)`` for n = 0..5, built once at import: enumeration and
#: complex construction ask for these thousands of times
_HOLDING = tuple(tuple(_holding(n, v) for v in range(n)) for n in range(6))


def holding(n: int, v: int) -> int:
    """The family bitset of the masks on n vertices that hold vertex v:
    blocks of 2^v set bits every 2^(v+1), from bit 2^v."""
    return _HOLDING[n][v] if n < len(_HOLDING) else _holding(n, v)


def close_down(n: int, family: int) -> int:
    """The downward closure of a family bitset on n vertices, without the
    empty mask.  ``(family & holding(n, v)) >> 2^v`` is every mask of the
    family with vertex v removed; ORing it in for v = 0..n-1 in turn
    removes any set of vertices, so one pass reaches every face."""
    for v in range(n):
        family |= (family & holding(n, v)) >> (1 << v)
    return family & ~1


def members(family: int) -> list[int]:
    """The masks of a family bitset, ascending, read off its binary digits."""
    return [m for m, bit in enumerate(format(family, "b")[::-1]) if bit == "1"]


def set_bits(x: int):
    """Positions of the set bits of ``x``, ascending, one ``x & -x`` step
    each: for rows with few bits set, not for wide dense ones."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def network(n: int) -> tuple[int, tuple[tuple[int, int], ...], struct.Struct]:
    """The tables of :func:`relabellings` on n vertices: the repunit that
    copies a family bitset into each of n! lanes, the lane-masked swaps,
    and the struct that reads the lanes off.

    A lane is max(8, 2^n) bits wide, so that it is a whole number of
    bytes.  Lane i has the i-th insertion code (j_1, ..., j_{n-1}),
    0 <= j_k <= k, in ``itertools.product`` order.  For k = 1..n-1 and u =
    k-1 down to 0, the swap of vertices u and u + 1 runs in the lanes where
    j_k <= u, so vertex k is carried down to place j_k; each lane composes
    a different product of these cycles, and every permutation is one.
    The swap is ``(a, 2^u)``, ``a`` the masks holding u but not u + 1 in
    those lanes: each moves up by 2^u, and the mask it lands on down.
    """
    size = max(8, 1 << n) // 8  # bytes per lane
    codes = list(itertools.product(*(range(k + 1) for k in range(1, n))))
    rep = int.from_bytes((1).to_bytes(size, "little") * len(codes), "little")
    layers = []
    for k in range(1, n):
        for u in range(k - 1, -1, -1):
            a = (holding(n, u) & ~holding(n, u + 1)).to_bytes(size, "little")
            masked = b"".join(a if code[k - 1] <= u else bytes(size) for code in codes)
            layers.append((int.from_bytes(masked, "little"), 1 << u))
    unsigned = {1: "B", 2: "H", 4: "I"}[size]
    return rep, tuple(layers), struct.Struct(f"<{len(codes)}{unsigned}")


#: ``NETWORKS[n]`` is ``network(n)`` for n = 0..5, built once at import: the
#: sizes that enumeration relabels, and that the pure labeling relabels
#: rather than search (from six vertices the search is the faster)
NETWORKS = tuple(network(n) for n in range(6))


def relabellings(n: int, family: int) -> tuple[int, ...]:
    """The images of a family bitset on n <= 5 vertices under all n!
    relabellings, one per lane, in one pass over one wide int: the family
    is copied into every lane, and each layer of :func:`network` is a
    delta swap, ``t`` marking the masks whose bit differs from the bit
    ``d`` places above, where both bits of each pair flip."""
    rep, layers, lanes = NETWORKS[n]
    w = family * rep
    for a, d in layers:
        t = (w ^ w >> d) & a
        w ^= t | t << d
    return lanes.unpack(w.to_bytes(lanes.size, "little"))


def cube(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The steps up the lattice of vertex sets on n vertices, and its
    layers.  Step v is ``(a, 2^v)``, ``a`` the family bitset of the masks
    without v: ``(family & a) << 2^v`` adds v to each of them.  Layer j is
    the family bitset of the j-vertex sets, j = 0..n, the empty set first."""
    full = (1 << (1 << n)) - 1
    steps = tuple((full & ~holding(n, v), 1 << v) for v in range(n))
    layers = [1]
    for _ in range(n):
        layers.append(grown(layers[-1], steps))
    return steps, tuple(layers)


def grown(family: int, steps) -> int:
    """Every mask of ``family`` with one vertex it lacks added, by the
    steps of :func:`cube`."""
    out = 0
    for a, d in steps:
        out |= (family & a) << d
    return out


#: ``CUBES[n]`` is ``cube(n)`` for n = 0..5, built once at import: the sizes
#: that enumeration compares by free sets
CUBES = tuple(cube(n) for n in range(6))
