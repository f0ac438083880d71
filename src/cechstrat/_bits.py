"""Bitmask helpers for vertex subsets.

Simplices on vertices {0, ..., n-1} are represented internally as integer
masks; these helpers convert between masks and sorted vertex tuples.  A
set of masks on n vertices is also one integer, its *family bitset*, with
bit ``m`` set for each mask ``m``; these helpers build one, close it
downward in n word operations and list its members.  The relabellings
of a family bitset are walked by delta swaps of adjacent vertices in
plain-changes order, each reached once.
"""

from __future__ import annotations

from collections.abc import Iterable


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def family_of(n: int, masks: Iterable[int]) -> int:
    """The family bitset of ``masks`` on n vertices, built in time linear
    in 2^n (a sum of ``1 << m`` would be quadratic)."""
    digits = bytearray(b"0") * (1 << n)
    for m in masks:
        digits[m] = 49  # ord("1")
    return int(digits[::-1], 2)


def holding(n: int, v: int) -> int:
    """The family bitset of the masks on n vertices that hold vertex v:
    blocks of 2^v set bits every 2^(v+1), from bit 2^v."""
    full = (1 << (1 << n)) - 1
    return full // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))


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


def plain_changes(n: int) -> list[tuple[int, int]]:
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


#: ``SWAPS[n]`` is ``plain_changes(n)`` for n = 0..5, built once at import:
#: the sizes that enumeration walks, and that the pure labeling walks
#: rather than search (from six vertices the walk is the slower one)
SWAPS = tuple(plain_changes(n) for n in range(6))


def orbit(family: int, swaps: list[tuple[int, int]]) -> list[int]:
    """``family`` followed by its image after each of ``swaps`` in turn.
    Each is a delta swap: ``t`` marks the masks in ``a`` whose bit differs
    from the bit ``d`` places above, and both bits of each pair flip."""
    out = [family]
    for a, d in swaps:
        t = (family ^ family >> d) & a
        family ^= t | t << d
        out.append(family)
    return out


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
