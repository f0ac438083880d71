"""Pure-Python kernels.

The same four operations as the compiled extension
(``cechstrat._kernels._ckernels``), with the same results and the same
input limits and messages; one of the two is selected at import time by
``cechstrat._kernels``.  The enclosing-ball kernels mirror the compiled
ones operation for operation: same processing order, same deterministic
shuffle, same tolerances and the same floating-point operations in the
same order, so radii agree across backends bit for bit.  One Welzl serves
both: the balls of one and two support points take closed forms that
perform exactly the operations the Gram elimination performs for them,
and each ordered support is solved once per call, however many subsets
of a scan reach it.  The shuffled orders up to ``MAX_SUBSET_VERTICES``
points are built once, at import.  The canonical
labeling and the surjection search return the compiled kernels' exact
results.  Up to five vertices the labeling is exhaustive too: it takes
every relabeling of the family bitset in one wide-integer pass
(``cechstrat._bits.relabellings``), as enumeration does.  From six
vertices it is a pruned search.  This labeling serves both backends (see
``cechstrat._kernels``).  The surjection search between equal vertex
counts up to five takes the same pass: its maps are permutations, read
off the source's relabellings in lexicographic order.  At any other sizes
it is a pruned search that reads a plan per complex and role, target or
source, built once and kept by value in a bounded cache, so an
enumeration that searches the same complexes thousands of times builds
each plan once.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NoReturn

from .._bits import NETWORKS, family_of, holding, relabellings

_MASK64 = (1 << 64) - 1
_SHUFFLE_SEED = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D

_INSIDE_REL = 1e-12
_INSIDE_ABS = 1e-28
_INSIDE_SCALE = 1.0 + _INSIDE_REL
_PIVOT_TOL = 1e-12

MAX_SUBSET_VERTICES = 16
#: the point limits of the compiled kernels' fixed buffers
_MAX_POINTS = 64
_MAX_DIM = 16


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


#: the shuffled order of each subset size the scan takes
_ORDERS = tuple(tuple(_shuffled_order(n)) for n in range(MAX_SUBSET_VERTICES + 1))


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
    """Smallest ball with all of three or more support points on its
    boundary.

    Solves the Gram system for the center in the affine hull of the support;
    near-dependent directions are dropped (pivot skip), and the radius is
    taken as the max distance to the support so the ball always covers it.
    """
    q0 = support[0]
    vs = [[q[k] - q0[k] for k in range(d)] for q in support[1:]]
    r = len(vs)
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


def _solve(pts, support: tuple[int, ...], d: int) -> tuple[tuple[float, ...], float, float]:
    """The ball through the points ``pts[i]`` for ``i`` in ``support``, in
    that order, with the bound its inside test compares squared distances
    with.

    One or two points take closed forms, written as exactly the operations
    the Gram elimination of :func:`_circumball` performs for them: the
    center of one point is the point, and of two it is the first plus
    alpha times their difference, where alpha is b / a for the 1x1 system
    a = 2 |v|^2, b = |v|^2, or 0.0 where the pivot is skipped.
    """
    if len(support) == 1:
        return pts[support[0]], 0.0, _INSIDE_ABS  # 0.0 * 0.0 * _INSIDE_SCALE + _INSIDE_ABS
    if len(support) == 2:
        q0, q1 = pts[support[0]], pts[support[1]]
        v = [q1[k] - q0[k] for k in range(d)]
        b = _dot(v, v)
        a = 2.0 * b
        center = q0
        if not abs(a) <= _PIVOT_TOL * (abs(a) or 1.0):
            alpha = b / a
            if alpha != 0.0:
                center = tuple([q0[k] + alpha * v[k] for k in range(d)])
        rad = 0.0
        for q in (q0, q1):
            s = math.sqrt(_dist_sq(center, q))
            if s > rad:
                rad = s
    else:
        center, rad = _circumball([pts[i] for i in support], d)
    return center, rad, rad * rad * _INSIDE_SCALE + _INSIDE_ABS


def _welzl(pts, order: list[int], end: int, support: tuple[int, ...],
           ball: tuple[tuple[float, ...], float, float], balls: dict,
           d: int) -> tuple[tuple[float, ...], float, float]:
    """Welzl's move-to-front recursion: the ball of the points ``order[:end]``
    with ``support`` on its boundary, from ``ball``, that of ``support``.

    ``order`` is moved to front in place.  ``balls`` keeps each ordered
    support's ball as :func:`_solve` gives it, so each is solved once per
    kernel call however many subsets reach it.  A point is inside where
    its squared distance to the center is at most the ball's bound.  A
    support of d + 1 points, or with no points before it to cover, is
    final, so it is not recursed into.
    """
    center, _, bound = ball
    i = 0
    while i < end:
        idx = order[i]
        s = 0.0
        for x, y in zip(center, pts[idx]):
            x -= y
            s += x * x
        if not s <= bound:
            extended = support + (idx,)
            ball = balls.get(extended)
            if ball is None:
                ball = balls[extended] = _solve(pts, extended, d)
            if i and len(extended) <= d:
                ball = _welzl(pts, order, i, extended, ball, balls, d)
            center, _, bound = ball
            del order[i]
            order.insert(0, idx)
        i += 1
    return ball


def _empty_ball(d: int) -> tuple[tuple[float, ...], float, float]:
    """The ball of the empty support: every point is outside its bound."""
    return (0.0,) * d, -1.0, -math.inf


def _load_points(points) -> list[tuple[float, ...]]:
    """The points as the compiled kernels read them, checked in the same
    order and with the same messages: at least one and at most
    ``_MAX_POINTS`` points, the first of 1..``_MAX_DIM`` coordinates, and
    that many coordinates read off each point.  ``ldexp(x, 0)`` is ``x``
    read as a C double, as the compiled kernels read it: through
    ``__float__`` or ``__index__``, so a string is refused."""
    n = len(points)
    if n == 0:
        raise ValueError("meb requires at least one point")
    if n > _MAX_POINTS:
        raise ValueError(f"compiled kernel limited to {_MAX_POINTS} points, got {n}")
    d = len(points[0])
    if not 1 <= d <= _MAX_DIM:
        raise ValueError(f"dimension must be in 1..{_MAX_DIM}, got {d}")
    ldexp = math.ldexp
    return [tuple([ldexp(p[k], 0) for k in range(d)]) for p in points]


def meb(points) -> tuple[tuple[float, ...], float]:
    """Minimum enclosing ball of a nonempty point sequence.

    Welzl's algorithm with move-to-front over a fixed deterministic shuffle;
    returns ``(center, radius)``.
    """
    pts = _load_points(points)
    n, d = len(pts), len(pts[0])
    order = list(_ORDERS[n]) if n <= MAX_SUBSET_VERTICES else _shuffled_order(n)
    center, radius, _ = _welzl(pts, order, n, (), _empty_ball(d), {}, d)
    return tuple(center), radius


def subset_meb_radii(points, max_size: int) -> list[tuple[int, float]]:
    """Enclosing-ball radius for every subset of 2..max_size points.

    Returns ``(mask, radius)`` pairs ordered by (subset size, lexicographic
    vertex order); masks index into the input order.  Each subset is run
    through Welzl's algorithm in its own shuffled order, on the input
    points' indices, so every subset shares one table of solved supports.
    """
    max_size = _c_int(max_size)  # the compiled kernel converts its int arguments first
    pts = _load_points(points)
    n = len(pts)
    if n > MAX_SUBSET_VERTICES:
        raise ValueError(f"subset scan limited to {MAX_SUBSET_VERTICES} points, got {n}")
    out: list[tuple[int, float]] = []
    if max_size < 2:
        return out
    d = len(pts[0])
    empty, balls = _empty_ball(d), {}
    for size in range(2, min(max_size, n) + 1):
        shuffle = _ORDERS[size]
        for comb in itertools.combinations(range(n), size):
            mask = 0
            for i in comb:
                mask |= 1 << i
            out.append((mask, _welzl(pts, [comb[j] for j in shuffle], size, (), empty, balls, d)[1]))
    return out


#: input limits shared with the compiled kernels' fixed buffers
_MAX_CANONICAL_VERTICES = 10
_MAX_CANONICAL_SIMPLICES = 256
_MAX_MAP_VERTICES = 16
_MAX_MAP_SIMPLICES = 1024


def _c_int(x) -> int:
    """``x`` as the compiled kernels take an ``int`` argument or mask: an
    object that is not an int goes through its ``__int__`` (2.9 is 2, a
    string or None is refused), and the int to a C int through a C long
    (64 bits on LP64 platforms), so a value that fits neither overflows."""
    if not isinstance(x, int):
        if getattr(type(x), "__int__", None) is None:
            raise TypeError("an integer is required")
        x = int(x)
    if not -1 << 63 <= x < 1 << 63:
        raise OverflowError("Python int too large to convert to C long")
    if not -1 << 31 <= x < 1 << 31:
        raise OverflowError("value too large to convert to int")
    return x


def _refuse_mask(m: int, message: str) -> NoReturn:
    """Raise what the compiled kernels raise for the out-of-range mask
    ``m``: its conversion to a C int comes before the range check, so a
    mask that does not fit overflows first."""
    _c_int(m)
    raise ValueError(message)


def _twin_predecessors(n: int, present: int) -> list[int]:
    """For each vertex v, the greatest u < v whose swap with v maps the
    mask set ``present`` (bit m set for mask m) onto itself, or -1.

    Such twins form classes (the product of two such swaps through a
    shared vertex is a third), so v is tested against one member of each
    class found so far.  For u < v the swap moves the masks holding u but
    not v up by 2^v - 2^u, onto the masks holding v but not u.
    """
    prev = [-1] * n
    # per class: the masks holding its first member, their count, that
    # member and the last one
    classes: list[list[int]] = []
    for v in range(n):
        held = present & holding(n, v)
        count = held.bit_count()
        for cls in classes:
            first, first_count, u, last = cls
            if first_count == count and (first & ~held) << ((1 << v) - (1 << u)) == held & ~first:
                prev[v] = last
                cls[3] = v
                break
        else:
            classes.append([held, count, v, v])
    return prev


def _image(img, mask: int) -> int:
    """The image of ``mask`` from the vertex images ``img[1 << v]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= img[low]
        mask ^= low
    return out


def canonical_masks(n: int, masks) -> tuple[int, ...]:
    """Lexicographically least relabeling of a simplex mask set.

    The least, over all n! vertex relabelings, of the sorted tuple of
    remapped masks; a complete isomorphism invariant.

    Up to five vertices (``NETWORKS`` holds the tables for those sizes)
    every relabeling is tried, as the compiled kernel does, all at once by
    :func:`cechstrat._bits.relabellings`.  From six vertices that is the
    slower way, and labels are given one at a time: the masks below
    2^(k+1) are exactly those on labels 0..k, so the vertices given
    labels 0..k fix a prefix of the sorted tuple.  Every
    level keeps only the partial labelings whose prefix is least, a proper
    prefix ranking after its extensions (the tuples have equal length, and
    the next mask of the shorter one is larger), and branches only on the
    least unlabeled vertex of each twin class (its twins would give the
    same tuples).  So the least leaf is the least relabeling without
    trying them all.
    """
    n = _c_int(n)  # the compiled kernel converts its int arguments first
    if not 0 <= n <= _MAX_CANONICAL_VERTICES:
        raise ValueError(
            f"canonical labeling limited to {_MAX_CANONICAL_VERTICES} vertices, got {n}")
    ms = sorted({int(m) for m in masks})
    if len(ms) > _MAX_CANONICAL_SIMPLICES:
        raise ValueError("too many simplices for canonical labeling buffer")
    if ms and (ms[0] <= 0 or ms[-1] >= (1 << n)):
        # the compiled kernel checks the masks in ascending order
        _refuse_mask(next(m for m in ms if not 0 < m < 1 << n),
                     "mask out of range for vertex count")
    if not ms:
        return ()
    if n < len(NETWORKS):
        # of two equal-size families, the lesser sorted tuple holds the
        # lowest bit of their XOR; complements reverse the bits and commute
        # with relabelling, so the least relabelling is the complement of
        # the greatest relabelled family of complements.  Digit m of a
        # family's 2^n binary digits, read from the left, is the bit of the
        # complement of m.
        digits = bytearray(b"0") * (1 << n)
        for m in ms:
            digits[m] = 49  # ord("1")
        best = max(relabellings(n, int(digits, 2)))
        return tuple([m for m, bit in enumerate(format(best, f"0{1 << n}b")) if bit == "1"])
    present = set(ms)
    # per vertex v: each mask holding v, its face without v, and whether a
    # partial labeling keeps that face's image (a mask, a vertex or empty)
    faces: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for m in ms:
        for v in range(n):
            if m >> v & 1:
                face = m ^ 1 << v
                faces[v].append((m, face, face in present or face & (face - 1) == 0))
    twin = _twin_predecessors(n, family_of(n, ms))
    end = [1 << n]
    prefix: list[int] = []
    # a partial labeling: the labeled vertices and the images of the masks
    # and vertices among them
    nodes = [(0, {0: 0})]
    for k in range(n):
        bit = 1 << k
        best = None
        kept = []
        for labeled, img in nodes:
            for v in range(n):
                if labeled >> v & 1 or twin[v] >= 0 and not labeled >> twin[v] & 1:
                    continue
                key = sorted([(img[face] if known else _image(img, face)) | bit
                              for _, face, known in faces[v] if not face & ~labeled])
                key += end
                if best is None or key < best:
                    best, kept = key, [(labeled, img, v)]
                elif key == best:
                    kept.append((labeled, img, v))
        prefix += best[:-1]
        nodes = []
        for labeled, img, v in kept:
            img = dict(img)
            img[1 << v] = bit
            for m, face, known in faces[v]:
                if not face & ~labeled:
                    img[m] = (img[face] if known else _image(img, face)) | bit
            nodes.append((labeled | 1 << v, img))
    return tuple(prefix)


#: search plans kept per complex and role, keyed on the vertex count and the
#: masks as passed; ``enumerate_classes(5)`` searches 208 complexes, each in
#: both roles.  At the kernel's limits (16 vertices, 1,024 source simplices)
#: a target plan, mostly its 64 kB table, and a source plan, mostly its
#: checks, take about 67 and 69 kB (``tracemalloc``), and a key of 1,040
#: masks 37 kB more, so 256 of each take about 54 MB.  A target has no
#: simplex limit: the key of all 65,535 masks on 16 vertices is 2.4 MB.
_PLAN_CACHE_SIZE = 256


def _target_masks(n: int, masks) -> list[int]:
    """The target masks as ints, refused as the compiled kernel refuses
    one out of range on n vertices."""
    ms = []
    for x in masks:
        m = int(x)
        if not 0 < m < 1 << n:
            _refuse_mask(m, "target mask out of range")
        ms.append(m)
    return ms


def _source_simplices(n: int, masks) -> list[int]:
    """The source masks of two or more vertices as ints, each occurrence
    counted against the compiled kernel's limit once every mask has been
    checked on n vertices, as it checks them."""
    simplices = []
    for x in masks:
        m = int(x)
        if not 0 < m < 1 << n:
            _refuse_mask(m, "source mask out of range")
        if m & (m - 1):
            simplices.append(m)
    if len(simplices) > _MAX_MAP_SIMPLICES:
        raise ValueError("too many source simplices")
    return simplices


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _target_plan(n: int, masks: tuple) -> tuple[bytes, tuple[int, ...]]:
    """The target half of a search plan: byte m set for each target mask
    m, and each target vertex's twin predecessor."""
    table = bytearray(1 << n)
    ms = _target_masks(n, masks)
    for m in ms:
        table[m] = 1
    return bytes(table), tuple(_twin_predecessors(n, family_of(n, ms)))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _source_plan(n: int, masks: tuple) -> tuple[tuple[tuple[tuple[int, int], ...], ...],
                                                tuple[int, ...]]:
    """The source half of a search plan: per greatest vertex, each simplex
    with its face without that vertex, or with 0 where that face (not a
    simplex, nor a vertex) has no stored image; and each source vertex's
    twin predecessor."""
    simplices = set(_source_simplices(n, masks))
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m in simplices:
        top = m.bit_length() - 1
        face = m ^ 1 << top
        checks[top].append((m, face if face in simplices or not face & (face - 1) else 0))
    return tuple(map(tuple, checks)), tuple(_twin_predecessors(n, family_of(n, simplices)))


def _plan(build, n: int, masks):
    """``build(n, masks)`` through its cache; masks that cannot be hashed
    (a 0-d array, say) build a plan that is not kept."""
    key = tuple(masks)
    try:
        return build(n, key)
    except TypeError:
        pass
    return build.__wrapped__(n, key)  # any other TypeError raises again


def _lex_lanes(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The lanes of :func:`cechstrat._bits.relabellings` on n vertices, as
    (lane, permutation) pairs in lexicographic order of the permutation
    that the lane applies, p(0) first.

    One relabelling pass of the chain {0..n-1} ⊃ {1..n-1} ⊃ ... ⊃ {n-1}
    orders them.  Under p the chain {0} ⊂ {0, 1} ⊂ ... ⊂ {0..n-1} has the
    sorted masks p({0}), p({0, 1}), ..., so its sorted tuples order the
    lanes by p; complements reverse a family's 2^n digits and commute with
    relabelling, so the lesser tuple of the chain is the greater family of
    its complements (see :func:`canonical_masks`).
    """
    lanes = relabellings(n, sum(1 << (1 << n) - (1 << k) for k in range(n)))
    order = sorted(range(len(lanes)), key=lanes.__getitem__, reverse=True)
    return tuple(zip(order, itertools.permutations(range(n))))


#: ``_LEX_LANES[n]`` is ``_lex_lanes(n)`` for the sizes of ``NETWORKS``,
#: built once at import: the order in which the map search between equal
#: vertex counts tries the relabellings of its source
_LEX_LANES = tuple(_lex_lanes(n) for n in range(len(NETWORKS)))


def _permutation_witness(n: int, src_masks, tgt_masks):
    """The least vertex-surjective simplicial map between two mask sets on
    n < ``len(NETWORKS)`` vertices each, or None, after the refusals of the
    two plans in their order (:func:`_target_masks`, then
    :func:`_source_simplices`).

    Onto n vertices from n a vertex-surjective map is a permutation, so it
    takes each vertex onto a vertex and each simplex of two or more
    vertices onto one of as many: it is simplicial where the relabelled
    family of the source's larger simplices lies in the target's.  One
    pass (:func:`relabellings`) relabels the source by every permutation,
    and the lanes are read in the lexicographic order of theirs
    (``_LEX_LANES``), the order of the backtracking search, so the first
    that fits is its witness.
    """
    outside = ~family_of(n, _target_masks(n, tgt_masks))
    lanes = relabellings(n, family_of(n, _source_simplices(n, src_masks)))
    for lane, p in _LEX_LANES[n]:
        if not lanes[lane] & outside:
            return p
    return None


def surjection_witness(n_src: int, n_tgt: int, src_masks, tgt_masks):
    """First vertex-surjective simplicial vertex map found, or None.

    Backtracks over vertex assignments in ascending order, pruning on
    (a) partial simplex images that leave the target simplex set and
    (b) too few unassigned sources left to cover the remaining targets,
    so the witness is the least such map in that order.  Two more prunes
    keep it: for source twins u < v (their swap maps the source simplices
    onto themselves) the least map has f(u) <= f(v), and for target twins
    w' < w it takes w' before w.  A simplex's image is its face's image
    without its greatest vertex, stored when that face was checked, plus
    one bit.  The tables the search reads, a membership table and twins
    for the target and per-vertex checks and twins for the source, are
    the two halves of its plan: each is built, and its masks checked,
    once per complex and role (``_target_plan``, ``_source_plan``), and
    kept until the package's caches are emptied.  A refused input is not
    kept, so it is refused again on every call, targets before sources.

    Between equal vertex counts below ``len(NETWORKS)`` no plan is built
    or kept: the witness is the first permutation whose relabelling of
    the source fits the target (:func:`_permutation_witness`), the same
    map, after the same refusals.
    """
    n_src, n_tgt = _c_int(n_src), _c_int(n_tgt)  # the compiled kernel converts its int arguments first
    if not (0 <= n_src <= _MAX_MAP_VERTICES and 0 <= n_tgt <= _MAX_MAP_VERTICES):
        raise ValueError(f"map search limited to {_MAX_MAP_VERTICES} vertices")
    if n_src < n_tgt:
        return None
    if n_tgt == 0:
        return () if n_src == 0 else None
    if n_src == n_tgt < len(NETWORKS):
        return _permutation_witness(n_src, src_masks, tgt_masks)
    tgt, tgt_twin = _plan(_target_plan, n_tgt, tgt_masks)
    checks, src_twin = _plan(_source_plan, n_src, src_masks)
    assign = [0] * n_src
    img = [0] * (1 << n_src)

    def rec(v: int, covered: int, n_covered: int) -> bool:
        if v == n_src:
            return n_covered == n_tgt
        spare = n_src - v - (n_tgt - n_covered)
        if spare < 0:
            return False
        u = src_twin[v]
        for w in range(assign[u] if u >= 0 else 0, n_tgt):
            bit = 1 << w
            p = tgt_twin[w]
            if p >= 0 and not covered >> p & 1 or not spare and covered & bit:
                continue
            img[1 << v] = bit
            for m, face in checks[v]:
                im = img[face] | bit if face else _image(img, m)
                if not tgt[im]:
                    break
                img[m] = im
            else:
                assign[v] = w
                if covered & bit:
                    if rec(v + 1, covered, n_covered):
                        return True
                elif rec(v + 1, covered | bit, n_covered + 1):
                    return True
        return False

    if rec(0, 0, 0):
        return tuple(assign)
    return None
