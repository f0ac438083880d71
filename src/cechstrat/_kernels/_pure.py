"""Pure-Python kernels.

Operation-for-operation mirror of the compiled extension
(``cechstrat._kernels._ckernels``); one of the two is selected at import
time by ``cechstrat._kernels``.  Keep the two implementations in lockstep:
same processing order, same deterministic shuffle, same tolerances and the
same floating-point operations in the same order, so results agree across
backends bit for bit.
"""

from __future__ import annotations

import itertools
import math

_MASK64 = (1 << 64) - 1
_SHUFFLE_SEED = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D

_INSIDE_REL = 1e-12
_INSIDE_ABS = 1e-28
_PIVOT_TOL = 1e-12

MAX_SUBSET_VERTICES = 16


def _xorshift(state: int) -> tuple[int, int]:
    state ^= state >> 12
    state = (state ^ (state << 25)) & _MASK64
    state ^= state >> 27
    return state, (state * _MULT) & _MASK64


def _shuffled_order(n: int) -> list[int]:
    # Fixed-seed Fisher-Yates; deterministic and identical across backends.
    order = list(range(n))
    state = _SHUFFLE_SEED
    for i in range(n - 1, 0, -1):
        state, out = _xorshift(state)
        j = out % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


# Sums run left to right in plain float adds, as in the compiled kernel:
# ``sum()`` compensates float sums from Python 3.12 on, and ``math.dist`` is
# more precise than ``sqrt`` of the rounded sum, either of which would move
# radii off the compiled kernel's bits.
def _dot(u, v) -> float:
    s = 0.0
    for x, y in zip(u, v):
        s += x * y
    return s


def _dist_sq(p, q) -> float:
    s = 0.0
    for x, y in zip(p, q):
        x -= y
        s += x * x
    return s


def _circumball(support: list[tuple[float, ...]], d: int) -> tuple[tuple[float, ...], float]:
    """Smallest ball with all support points on its boundary.

    Solves the Gram system for the center in the affine hull of the support;
    near-dependent directions are dropped (pivot skip), and the radius is
    taken as the max distance to the support so the ball always covers it.
    """
    m = len(support)
    if m == 0:
        return (0.0,) * d, -1.0
    q0 = support[0]
    if m == 1:
        return q0, 0.0
    vs = [[q[k] - q0[k] for k in range(d)] for q in support[1:]]
    r = m - 1
    a = [[2.0 * _dot(vs[i], vs[j]) for j in range(r)] for i in range(r)]
    b = [_dot(v, v) for v in vs]
    scale = max(max(abs(x) for x in row) for row in a) or 1.0
    piv = list(range(r))
    for col in range(r):
        best, best_row = -1.0, col
        for row in range(col, r):
            v = abs(a[piv[row]][col])
            if v > best:
                best, best_row = v, row
        piv[col], piv[best_row] = piv[best_row], piv[col]
        p = piv[col]
        if abs(a[p][col]) <= _PIVOT_TOL * scale:
            a[p][col] = 0.0
            continue
        for row in range(col + 1, r):
            q = piv[row]
            f = a[q][col] / a[p][col]
            if f != 0.0:
                for k in range(col, r):
                    a[q][k] -= f * a[p][k]
                b[q] -= f * b[p]
    alpha = [0.0] * r
    for col in range(r - 1, -1, -1):
        p = piv[col]
        if a[p][col] == 0.0:
            alpha[col] = 0.0
            continue
        s = b[p]
        for k in range(col + 1, r):
            s -= a[p][k] * alpha[k]
        alpha[col] = s / a[p][col]
    center = list(q0)
    for i in range(r):
        if alpha[i] != 0.0:
            for k in range(d):
                center[k] += alpha[i] * vs[i][k]
    rad = 0.0
    for q in support:
        rad = max(rad, math.sqrt(_dist_sq(center, q)))
    return tuple(center), rad


def _inside(center: tuple[float, ...], radius: float, p: tuple[float, ...]) -> bool:
    if radius < 0.0:
        return False
    return _dist_sq(center, p) <= radius * radius * (1.0 + _INSIDE_REL) + _INSIDE_ABS


def _mtf(pts, order, end, support, d):
    center, radius = _circumball([pts[i] for i in support], d)
    if len(support) == d + 1:
        return center, radius
    i = 0
    while i < end:
        idx = order[i]
        if not _inside(center, radius, pts[idx]):
            center, radius = _mtf(pts, order, i, support + [idx], d)
            del order[i]
            order.insert(0, idx)
        i += 1
    return center, radius


def _meb_tuples(pts: list[tuple[float, ...]]) -> tuple[tuple[float, ...], float]:
    d = len(pts[0])
    order = _shuffled_order(len(pts))
    return _mtf(pts, order, len(pts), [], d)


def meb(points) -> tuple[tuple[float, ...], float]:
    """Minimum enclosing ball of a nonempty point sequence.

    Welzl's algorithm with move-to-front over a fixed deterministic shuffle;
    returns ``(center, radius)``.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    if not pts:
        raise ValueError("meb requires at least one point")
    return _meb_tuples(pts)


def subset_meb_radii(points, max_size: int) -> list[tuple[int, float]]:
    """Enclosing-ball radius for every subset of 2..max_size points.

    Returns ``(mask, radius)`` pairs ordered by (subset size, lexicographic
    vertex order); masks index into the input order.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    n = len(pts)
    if n > MAX_SUBSET_VERTICES:
        raise ValueError(f"subset scan limited to {MAX_SUBSET_VERTICES} points, got {n}")
    out: list[tuple[int, float]] = []
    for size in range(2, min(max_size, n) + 1):
        for comb in itertools.combinations(range(n), size):
            mask = 0
            for i in comb:
                mask |= 1 << i
            _, radius = _meb_tuples([pts[i] for i in comb])
            out.append((mask, radius))
    return out


def _remap(mask: int, perm) -> int:
    out = 0
    v = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[v]
        mask >>= 1
        v += 1
    return out


def canonical_masks(n: int, masks) -> tuple[int, ...]:
    """Lexicographically least relabeling of a simplex mask set.

    Minimizes the sorted tuple of remapped masks over all n! vertex
    relabelings; the result is a complete isomorphism invariant.
    """
    ms = sorted({int(m) for m in masks})
    if ms and (ms[0] <= 0 or ms[-1] >= (1 << n)):
        raise ValueError("mask out of range for vertex count")
    best: list[int] | None = None
    for perm in itertools.permutations(range(n)):
        cand = sorted(_remap(m, perm) for m in ms)
        if best is None or cand < best:
            best = cand
    return tuple(best) if best is not None else ()


def surjection_witness(n_src: int, n_tgt: int, src_masks, tgt_masks):
    """First vertex-surjective simplicial vertex map found, or None.

    Backtracks over vertex assignments in ascending order, pruning on
    (a) partial simplex images that leave the target simplex set and
    (b) too few unassigned sources left to cover the remaining targets.
    """
    if n_src < n_tgt:
        return None
    if n_tgt == 0:
        return () if n_src == 0 else None
    tgt_set = frozenset(int(m) for m in tgt_masks)
    by_last: list[list[int]] = [[] for _ in range(n_src)]
    for m in src_masks:
        m = int(m)
        if m.bit_count() >= 2:
            by_last[m.bit_length() - 1].append(m)
    for row in by_last:
        row.sort()
    assign = [0] * n_src

    def rec(v: int, covered: int, n_covered: int) -> bool:
        if v == n_src:
            return n_covered == n_tgt
        if n_src - v < n_tgt - n_covered:
            return False
        for w in range(n_tgt):
            assign[v] = w
            ok = True
            for m in by_last[v]:
                img = 0
                mm = m
                while mm:
                    u = (mm & -mm).bit_length() - 1
                    img |= 1 << assign[u]
                    mm &= mm - 1
                if img not in tgt_set:
                    ok = False
                    break
            if not ok:
                continue
            bit = 1 << w
            if covered & bit:
                if rec(v + 1, covered, n_covered):
                    return True
            else:
                if rec(v + 1, covered | bit, n_covered + 1):
                    return True
        return False

    if rec(0, 0, 0):
        return tuple(assign)
    return None
