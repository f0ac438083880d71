"""Bitmask helpers for vertex subsets.

Simplices on vertices {0, ..., n-1} are represented internally as integer
masks; these helpers convert between masks and sorted vertex tuples.  A
set of masks on n vertices is also one integer, its *family bitset*, with
bit ``m`` set for each mask ``m``.
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


def proper_submasks(mask: int):
    """Nonempty proper submasks of ``mask``."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def facet_submasks(mask: int):
    """Submasks obtained by dropping exactly one vertex."""
    m = mask
    while m:
        low = m & -m
        yield mask ^ low
        m ^= low


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


def set_bits(x: int):
    """Positions of the set bits of ``x``, ascending, one ``x & -x`` step
    each: for rows with few bits set, not for wide dense ones."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low
