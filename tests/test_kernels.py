import itertools
import math
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from cechstrat import _kernels
from cechstrat._kernels import _pure

BACKENDS = [pytest.param(_kernels.backends[name], id=name) for name in sorted(_kernels.backends)]

HAS_COMPILED = "compiled" in _kernels.backends
needs_compiled = pytest.mark.skipif(not HAS_COMPILED, reason="compiled kernels not built")


def random_points(rng, n=None, d=None):
    n = n or rng.randint(1, 8)
    d = d or rng.randint(1, 3)
    return [tuple(rng.uniform(-2, 2) for _ in range(d)) for _ in range(n)]


def closure(n, generators):
    """The vertices of 0..n-1 and every nonempty face of the generators."""
    masks = {1 << v for v in range(n)}
    for g in generators:
        face = g
        while face:
            masks.add(face)
            face = face - 1 & g
    return sorted(masks)


def random_masks(rng, n, density=0.5, closed=True):
    """Masks of two or more vertices, each drawn with ``density``: closed
    into a complex, or as drawn with about 70% of the vertices added."""
    masks = [m for m in range(1, 1 << n) if m.bit_count() >= 2 and rng.random() < density]
    if closed:
        return closure(n, masks)
    return [m for m in range(1, 1 << n) if m.bit_count() == 1 and rng.random() < 0.7] + masks


@pytest.mark.parametrize("backend", BACKENDS)
class TestEachBackend:
    def test_meb_contains_points(self, backend):
        rng = random.Random(1)
        for _ in range(100):
            pts = random_points(rng)
            center, radius = backend.meb(pts)
            for p in pts:
                assert math.dist(center, p) <= radius + 1e-9

    def test_meb_deterministic(self, backend):
        pts = [(0.3, 0.1), (0.9, 0.5), (0.2, 0.8), (0.6, 0.6)]
        assert backend.meb(pts) == backend.meb(pts)

    def test_meb_rejects_empty(self, backend):
        with pytest.raises(ValueError):
            backend.meb([])

    def test_subset_scan_order_and_values(self, backend):
        pts = [(0.0,), (1.0,), (3.0,)]
        out = backend.subset_meb_radii(pts, 3)
        assert [m for m, _ in out] == [0b011, 0b101, 0b110, 0b111]
        radii = [r for _, r in out]
        assert radii == pytest.approx([0.5, 1.5, 1.0, 1.5])

    def test_canonical_invariance(self, backend):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 5)
            masks = random_masks(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            remapped = []
            for m in masks:
                out = 0
                for v in range(n):
                    if m >> v & 1:
                        out |= 1 << perm[v]
                remapped.append(out)
            assert backend.canonical_masks(n, masks) == backend.canonical_masks(n, remapped)

    def test_surjection_requires_enough_vertices(self, backend):
        assert backend.surjection_witness(1, 2, [1], [1, 2, 3]) is None

    def test_empty_inputs(self, backend):
        # no masks on three vertices: nothing to label; no vertices: the empty map
        assert backend.canonical_masks(3, []) == ()
        assert backend.surjection_witness(0, 0, [], []) == ()

    def test_surjection_identity(self, backend):
        masks = [1, 2, 3]
        w = backend.surjection_witness(2, 2, masks, masks)
        assert w is not None
        assert sorted(w) == [0, 1]

    @pytest.mark.xfail(strict=True, reason="each subset is solved afresh, so a subset can read "
                       "an ulp above a superset (ROADMAP item 4)")
    def test_subset_scan_is_monotone(self, backend):
        # 229 pairs of a subset and a superset with one point more read
        # the subset higher, at least one in each configuration
        rng = random.Random(5)
        violations = []
        for _ in range(10):
            pts = [(rng.random(), rng.random()) for _ in range(8)]
            radius = dict(backend.subset_meb_radii(pts, 8))
            violations += [(m, m | 1 << v) for m in radius for v in range(8)
                           if not m >> v & 1 and radius[m] > radius[m | 1 << v]]
        assert violations == []


# Reference kernels: the definitions, by exhaustive search, kept here so
# that each backend is checked against results it did not compute.

def reference_canonical_masks(n, masks):
    """The least sorted relabelling of ``masks`` over all n! permutations."""
    best = None
    for perm in itertools.permutations(range(n)):
        # the image of a mask from two half tables, by vertices 0..3 and 4..7
        halves = []
        for first in (0, 4):
            table = [0]
            for v in range(first, min(first + 4, n)):
                table += [image | 1 << perm[v] for image in table]
            halves.append(table)
        low, high = halves
        cand = sorted([low[m & 15] | high[m >> 4] for m in masks])
        if best is None or cand < best:
            best = cand
    return tuple(best)


def reference_surjection_witness(n_src, n_tgt, src_masks, tgt_masks):
    """The first vertex-surjective map, in ascending order of the image
    tuple, that sends every source mask of two or more vertices onto a
    target mask; plain backtracking, pruned only where a partial image
    leaves the target or the targets left cannot all be covered."""
    if n_src < n_tgt:
        return None
    if n_tgt == 0:
        return () if n_src == 0 else None
    tgt = set(tgt_masks)
    by_top = [[m for m in src_masks if m.bit_count() >= 2 and m.bit_length() == v + 1]
              for v in range(n_src)]
    assign = [0] * n_src

    def image(m):
        return sum({1 << assign[v] for v in range(n_src) if m >> v & 1})

    def rec(v, covered):
        if v == n_src:
            return len(covered) == n_tgt
        if n_src - v < n_tgt - len(covered):
            return False
        for w in range(n_tgt):
            assign[v] = w
            if all(image(m) in tgt for m in by_top[v]) and rec(v + 1, covered | {w}):
                return True
        return False

    return tuple(assign) if rec(0, frozenset()) else None


def _reference_shuffle(n):
    """The kernels' fixed-seed Fisher-Yates order of n points (xorshift64*)."""
    order, state = list(range(n)), 0x9E3779B97F4A7C15
    for i in range(n - 1, 0, -1):
        state ^= state >> 12
        state = (state ^ state << 25) & (1 << 64) - 1
        state ^= state >> 27
        j = (state * 0x2545F4914F6CDD1D & (1 << 64) - 1) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _reference_dot(u, v):
    s = 0.0
    for x, y in zip(u, v):
        s += x * y
    return s


def _reference_dist_sq(p, q):
    s = 0.0
    for x, y in zip(p, q):
        x -= y
        s += x * x
    return s


def _reference_circumball(support, d):
    """The ball through ``support``: every support of two or more points
    goes through the Gram elimination, with plain left-to-right float sums."""
    dot = _reference_dot
    m = len(support)
    if m == 0:
        return (0.0,) * d, -1.0
    q0 = support[0]
    if m == 1:
        return q0, 0.0
    vs = [[q[k] - q0[k] for k in range(d)] for q in support[1:]]
    r = m - 1
    a = [[2.0 * dot(vs[i], vs[j]) for j in range(r)] for i in range(r)]
    b = [dot(v, v) for v in vs]
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
        if abs(a[p][col]) <= 1e-12 * scale:
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
        rad = max(rad, math.sqrt(_reference_dist_sq(center, q)))
    return tuple(center), rad


def reference_meb(pts):
    """Welzl's move-to-front recursion over the kernels' shuffle, frozen as
    the kernels first ran it: each level builds its support's point list
    and solves it afresh.  The kernels must keep its balls bit for bit."""
    d = len(pts[0])

    def mtf(order, end, support):
        center, radius = _reference_circumball([pts[i] for i in support], d)
        if len(support) == d + 1:
            return center, radius
        i = 0
        while i < end:
            idx = order[i]
            bound = radius * radius * (1.0 + 1e-12) + 1e-28
            if radius < 0.0 or not _reference_dist_sq(center, pts[idx]) <= bound:
                center, radius = mtf(order, i, support + [idx])
                del order[i]
                order.insert(0, idx)
            i += 1
        return center, radius

    return mtf(_reference_shuffle(len(pts)), len(pts), [])


def reference_subset_meb_radii(pts, max_size):
    """:func:`reference_meb` of every subset of 2..max_size points, in the
    kernels' order: by size, then lexicographically."""
    return [(sum(1 << i for i in comb), reference_meb([pts[i] for i in comb])[1])
            for size in range(2, min(max_size, len(pts)) + 1)
            for comb in itertools.combinations(range(len(pts)), size)]


SHAPES = ("random", "lattice", "collinear", "cocircular")


def shaped_points(rng, shape, n, d):
    """n points in d dimensions: uniform, on the integer lattice (repeated
    points, exact ties), within 1e-9 of a line, or on a circle in the
    first two coordinates (at two points in one dimension)."""
    if shape == "random":
        return [tuple(rng.uniform(-2, 2) for _ in range(d)) for _ in range(n)]
    if shape == "lattice":
        return [tuple(float(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)]
    a = [rng.uniform(-1, 1) for _ in range(d)]
    if shape == "collinear":
        b = [rng.uniform(-1, 1) for _ in range(d)]
        return [tuple(x + t * y + rng.uniform(-1e-9, 1e-9) for x, y in zip(a, b))
                for t in [rng.uniform(-1, 1) for _ in range(n)]]
    r = rng.uniform(0.1, 3.0)
    pts = []
    for _ in range(n):
        p = list(a)
        if d == 1:
            p[0] += rng.choice((-r, r))
        else:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            p[0] += r * math.cos(theta)
            p[1] += r * math.sin(theta)
        pts.append(tuple(p))
    return pts


def shaped_configurations(seed, count):
    """``count`` configurations of 2-8 points in 1-4 dimensions, the
    shapes in turn."""
    rng = random.Random(seed)
    return [shaped_points(rng, SHAPES[i % len(SHAPES)], rng.randint(2, 8), rng.randint(1, 4))
            for i in range(count)]


def hex_scan(scan):
    return [(m, r.hex()) for m, r in scan]


def hex_ball(ball):
    center, radius = ball
    return [x.hex() for x in center], radius.hex()


def labelled_families(n):
    """Every downward-closed mask set on n labelled vertices that holds
    every vertex: 1, 2, 9, 114 and 6,894 of them for n = 1..5."""
    families = [frozenset(1 << v for v in range(n))]
    for m in sorted((m for m in range(1 << n) if m.bit_count() >= 2),
                    key=lambda m: (m.bit_count(), m)):
        facets = [m ^ 1 << v for v in range(n) if m >> v & 1]
        families += [f | {m} for f in families if all(face in f for face in facets)]
    return families


def relabel(masks, perm):
    return sorted(sum(1 << perm[v] for v in range(len(perm)) if m >> v & 1) for m in masks)


SYMMETRIC_8 = {
    "discrete": closure(8, []),
    "full": closure(8, [0xFF]),
    "cycle": closure(8, [1 << v | 1 << (v + 1) % 8 for v in range(8)]),
    "four_edges": closure(8, [0x03, 0x0C, 0x30, 0xC0]),
    "two_tetrahedra": closure(8, [0x0F, 0xF0]),
}


@pytest.mark.parametrize("backend", BACKENDS)
class TestAgainstReference:
    def test_canonical_every_family_up_to_five_vertices(self, backend):
        for n, count in zip(range(1, 6), (1, 2, 9, 114, 6894)):
            families = labelled_families(n)
            assert len(families) == count
            perms = list(itertools.permutations(range(n)))
            expected = {}
            for family in families:
                if family not in expected:
                    orbit = {frozenset(relabel(family, p)) for p in perms}
                    least = reference_canonical_masks(n, sorted(family))
                    expected.update(dict.fromkeys(orbit, least))
                assert backend.canonical_masks(n, sorted(family)) == expected[family]

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_8))
    def test_canonical_symmetric_eight_vertices(self, backend, name):
        masks = SYMMETRIC_8[name]
        rng = random.Random(name)
        perm = list(range(8))
        rng.shuffle(perm)
        least = reference_canonical_masks(8, masks)
        assert backend.canonical_masks(8, masks) == least
        assert backend.canonical_masks(8, relabel(masks, perm)) == least

    def test_canonical_seeded_six_to_eight_vertices(self, backend):
        rng = random.Random(8)
        for n in (6, 6, 6, 7, 7, 8):
            masks = random_masks(rng, n, rng.choice([0.05, 0.2, 0.5]))
            assert backend.canonical_masks(n, masks) == reference_canonical_masks(n, masks)

    def test_canonical_seeded_loose_mask_sets(self, backend):
        # not downward closed: a mask's faces need not be masks
        rng = random.Random(10)
        for n in (3, 4, 4, 5, 5, 5, 6, 6):
            masks = random_masks(rng, n, rng.choice([0.05, 0.2, 0.5]), closed=False) or [1]
            assert backend.canonical_masks(n, masks) == reference_canonical_masks(n, masks)

    def test_enclosing_balls_match_the_frozen_welzl(self, backend):
        for pts in shaped_configurations(12, 240):
            assert hex_ball(backend.meb(pts)) == hex_ball(reference_meb(pts))
            for max_size in (len(pts) - 1, len(pts)):
                assert hex_scan(backend.subset_meb_radii(pts, max_size)) == \
                    hex_scan(reference_subset_meb_radii(pts, max_size))

    def test_witness_every_class_pair_up_to_four_vertices(self, backend):
        from cechstrat import enumerate_classes

        classes = [(c.n_vertices, c.canonical.masks) for c in enumerate_classes(4).classes]
        assert len(classes) == 28
        for n_src, src in classes:
            for n_tgt, tgt in classes:
                assert backend.surjection_witness(n_src, n_tgt, src, tgt) == \
                    reference_surjection_witness(n_src, n_tgt, src, tgt)

    def test_witness_seeded_pairs_with_loose_sources(self, backend):
        rng = random.Random(9)
        found = 0
        for _ in range(300):
            n_src = rng.randint(2, 7)
            n_tgt = rng.randint(1, min(n_src, 5))
            closed = rng.random() < 0.3
            src = random_masks(rng, n_src, rng.choice([0.05, 0.2, 0.5]), closed)
            closed = rng.random() < 0.7
            tgt = random_masks(rng, n_tgt, rng.choice([0.05, 0.2, 0.5]), closed) or [1]
            witness = backend.surjection_witness(n_src, n_tgt, src, tgt)
            assert witness == reference_surjection_witness(n_src, n_tgt, src, tgt)
            found += witness is not None
        assert 30 < found < 270


class IndexOnly:
    """An integer to ``operator.index`` but without ``__int__``."""

    def __index__(self):
        return 2


class IntGivesFloat:
    def __int__(self):
        return 2.5


def _refusal(message):
    """The error type a refusal with ``message`` has on both backends."""
    return OverflowError if "too large to convert" in message else ValueError


@pytest.mark.parametrize("backend", BACKENDS)
class TestInputDomain:
    """Both backends refuse the same inputs, with the same messages."""

    @pytest.mark.parametrize("args, message", [
        ((2, 2, [1, 2, 3, 8], [1, 2, 3]), "source mask out of range"),
        ((2, 1, [0, 1, 2], [1]), "source mask out of range"),
        ((2, 2, [1, 2, 3], [1, 2, 7]), "target mask out of range"),
        ((2, 2, [1, 2, 3, 4], [1, 2, 0]), "target mask out of range"),
        ((17, 1, [1], [1]), "map search limited to 16 vertices"),
        ((2, 17, [1], [1]), "map search limited to 16 vertices"),
        ((-1, 0, [], []), "map search limited to 16 vertices"),
        ((2, 1, [3] * 1025, [1]), "too many source simplices"),
        # beyond a C int the compiled conversion overflows before the range
        # check, targets first, and past a C long with its own message
        ((2, 2, [1 << 40], [1]), "value too large to convert to int"),
        ((2, 2, [1], [1, -(1 << 31) - 1]), "value too large to convert to int"),
        ((2, 2, [1, 1 << 31], [1]), "value too large to convert to int"),
        ((2, 2, [1 << 40], [5]), "target mask out of range"),
        ((2, 2, [1, -1 << 31], [1]), "source mask out of range"),
        ((2, 2, [-1 << 70], [1, 2]), "Python int too large to convert to C long"),
        # the vertex counts are converted at the call, both before any check
        ((1 << 40, 2, [1], [1]), "value too large to convert to int"),
        ((2, 1 << 40, [1], [1]), "value too large to convert to int"),
        ((17, -1 << 40, [1], [1]), "value too large to convert to int"),
        ((1 << 70, 1 << 40, [1], [1]), "Python int too large to convert to C long"),
        ((2, 1 << 70, [1 << 40], [1]), "Python int too large to convert to C long"),
        ((-1 << 31, 1, [], []), "map search limited to 16 vertices"),
    ])
    def test_surjection_refuses(self, backend, args, message):
        with pytest.raises(_refusal(message), match=message):
            backend.surjection_witness(*args)

    def test_surjection_limits_are_inclusive(self, backend):
        assert backend.surjection_witness(2, 1, [3] * 1024, [1]) == (0, 0)
        assert backend.surjection_witness(16, 1, [1 << 15], [1]) == (0,) * 16

    def test_canonical_refuses_negative_vertex_count(self, backend):
        with pytest.raises(ValueError, match="canonical labeling limited to 10 vertices, got -1"):
            backend.canonical_masks(-1, [])

    @pytest.mark.parametrize("args, message", [
        ((11, [1]), "canonical labeling limited to 10 vertices, got 11"),
        ((9, range(1, 258)), "too many simplices"),
        ((2, [1, 2, 4]), "mask out of range for vertex count"),
        ((2, [0, 1]), "mask out of range for vertex count"),
        # the compiled kernel converts the sorted masks to C ints one by one
        ((3, [1 << 40]), "value too large to convert to int"),
        ((3, [1, 1 << 31]), "value too large to convert to int"),
        ((3, [-1 << 40, 1]), "value too large to convert to int"),
        ((2, [1, 2, 5, 1 << 40]), "mask out of range for vertex count"),
        ((3, [-1 << 31, 1 << 40]), "mask out of range for vertex count"),
        ((3, [1 << 70]), "Python int too large to convert to C long"),
        # the vertex count is converted at the call, before any mask
        ((1 << 40, [1]), "value too large to convert to int"),
        ((-1 << 40, [1 << 70]), "value too large to convert to int"),
        ((1 << 31, []), "value too large to convert to int"),
        ((1 << 70, [1]), "Python int too large to convert to C long"),
        ((-1 << 31, [1]), "canonical labeling limited to 10 vertices, got -2147483648"),
    ])
    def test_canonical_refuses(self, backend, args, message):
        with pytest.raises(_refusal(message), match=message):
            backend.canonical_masks(*args)

    @pytest.mark.parametrize("args, message", [
        ((((0.0,), (1.0,)), 1 << 40), "value too large to convert to int"),
        ((((0.0,), (1.0,)), -1 << 31 << 1), "value too large to convert to int"),
        ((((0.0,), (1.0,)), -1 << 70), "Python int too large to convert to C long"),
        # the size cap is converted at the call, before the points are read
        (([(0.0,)] * 70, 1 << 40), "value too large to convert to int"),
        (([(0.0,), ("x",)], 1 << 63), "Python int too large to convert to C long"),
    ])
    def test_scan_refuses(self, backend, args, message):
        with pytest.raises(_refusal(message), match=message):
            backend.subset_meb_radii(*args)

    @pytest.mark.parametrize("points, message", [
        ([], "meb requires at least one point"),
        ([(0.0,)] * 65, "compiled kernel limited to 64 points, got 65"),
        ([()], "dimension must be in 1..16, got 0"),
        ([(0.0,) * 17], "dimension must be in 1..16, got 17"),
        # the point count is checked before the dimension
        ([()] * 65, "compiled kernel limited to 64 points, got 65"),
    ])
    def test_points_refused_by_both_kernels(self, backend, points, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            backend.meb(points)
        with pytest.raises(ValueError, match=re.escape(message)):
            backend.subset_meb_radii(points, 2)

    def test_scan_point_limit_comes_after_the_ball_limits(self, backend):
        with pytest.raises(ValueError, match="subset scan limited to 16 points, got 17"):
            backend.subset_meb_radii([(float(i),) for i in range(17)], 2)
        assert backend.meb([(0.0,)] * 64)[1] == 0.0

    @pytest.mark.parametrize("coordinate", ["1.0", b"1.0"])
    def test_coordinates_are_read_as_c_doubles(self, backend, coordinate):
        # through __float__ or __index__, as a C double is: a string is no number
        with pytest.raises(TypeError, match="must be real number"):
            backend.meb([(coordinate,)])
        with pytest.raises(TypeError, match="must be real number"):
            backend.subset_meb_radii([(0.0,), (coordinate,)], 2)
        assert backend.meb([(1,), (Fraction(3),)]) == ((2.0,), 1.0)

    def test_scan_takes_any_c_int_size_cap(self, backend):
        points = ((0.0,), (1.0,))
        assert backend.subset_meb_radii(points, (1 << 31) - 1) == [(3, 0.5)]
        assert backend.subset_meb_radii(points, -1 << 31) == []

    def test_canonical_vertex_limit_is_inclusive(self, backend):
        assert backend.canonical_masks(10, [1 << v for v in range(10)]) == \
            tuple(1 << v for v in range(10))

    @pytest.mark.parametrize("n", [2.9, Fraction(5, 2), Decimal("2.5"), 2.0])
    def test_int_arguments_go_through_int(self, backend, n):
        # a vertex count or size cap is converted as the compiled kernels
        # convert an int argument: through ``__int__``, truncating
        points = ((0.0,), (1.0,), (3.0,))
        assert backend.canonical_masks(n, [1, 2, 3]) == (1, 2, 3)
        assert backend.surjection_witness(n, 2, [1, 2, 3], [1, 2, 3]) == (0, 1)
        assert backend.surjection_witness(2, n, [1, 2, 3], [1, 2, 3]) == (0, 1)
        assert backend.subset_meb_radii(points, n) == backend.subset_meb_radii(points, 2)

    @pytest.mark.parametrize("n, message", [
        (None, "an integer is required"),
        ("2", "an integer is required"),
        (IndexOnly(), "an integer is required"),
        (IntGivesFloat(), r"__int__ returned non-int \(type float\)"),
    ])
    def test_int_arguments_refuse_what_has_no_int(self, backend, n, message):
        calls = [
            lambda: backend.canonical_masks(n, [1]),
            lambda: backend.surjection_witness(n, 1, [1], [1]),
            # both vertex counts are converted before the range check
            lambda: backend.surjection_witness(17, n, [1], [1]),
            lambda: backend.subset_meb_radii(((0.0,), (1.0,)), n),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call()


#: run in a fresh interpreter per backend, so that a kernel that crashes
#: on ragged points fails its test rather than the suite
_DISPATCH_SCRIPT = """
from cechstrat import _kernels
from cechstrat._kernels import _pure
print(_kernels.BACKEND, _kernels.canonical_masks is _pure.canonical_masks)
for points in ([(0.0, 0.0), (1.0,)], [(0.0,), (1.0, 2.0)]):
    for call in (lambda: _kernels.meb(points), lambda: _kernels.subset_meb_radii(points, 2)):
        try:
            call()
        except ValueError as e:
            print(e)
"""


@pytest.mark.parametrize("name", sorted(_kernels.backends))
class TestDispatch:
    """What ``cechstrat._kernels`` adds to the backend it selects."""

    def test_ragged_points_are_refused_before_the_kernel(self, name):
        env = dict(os.environ, CECHSTRAT_KERNELS=name)
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_SCRIPT],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == f"{name} True"  # one canonical labeling on every backend
        assert lines[1:] == ["every point needs the first one's dimension, "
                             "got dimensions [1, 2]"] * 4


class TestSearchPlans:
    """The pure map search keeps each complex's plan by value, per role."""

    @pytest.fixture(autouse=True)
    def empty_plans(self):
        _pure._target_plan.cache_clear()
        _pure._source_plan.cache_clear()
        yield
        _pure._target_plan.cache_clear()
        _pure._source_plan.cache_clear()

    def test_masks_in_any_form_give_the_reference_witness(self):
        rng = random.Random(12)
        for _ in range(40):
            n_src = rng.randint(2, 6)
            n_tgt = rng.randint(1, n_src)
            src = random_masks(rng, n_src, rng.choice([0.2, 0.5]), rng.random() < 0.5)
            tgt = random_masks(rng, n_tgt, rng.choice([0.2, 0.5])) or [1]
            expected = reference_surjection_witness(n_src, n_tgt, src, tgt)
            forms = [(src, tgt), (tuple(src), tuple(tgt)), (src + src[::-1], tgt * 2),
                     (iter(src), iter(tgt))]
            for s, t in forms:
                assert _pure.surjection_witness(n_src, n_tgt, s, t) == expected

    def test_one_plan_per_complex_and_role(self):
        # unequal vertex counts: between equal ones the search keeps no plan
        tri, src = closure(3, [0b111]), closure(4, [0b0111, 0b1100])
        for n_tgt, tgt in ((3, tri), (2, [1, 2, 3]), (3, tri), (2, (1, 2, 3))):
            _pure.surjection_witness(4, n_tgt, tuple(src), tgt)
        assert _pure._source_plan.cache_info().currsize == 1
        assert _pure._target_plan.cache_info().currsize == 2
        assert _pure._source_plan.cache_info().hits == 3

    @pytest.mark.parametrize("args, message", [
        ((2, 2, [1, 2, 3], [1, 2, 7]), "target mask out of range"),
        ((2, 2, [1, 2, 8], [1, 2, 3]), "source mask out of range"),
        ((2, 1, [3] * 1025, [1]), "too many source simplices"),
        ((2, 2, [1, 2, 3], [1, 1 << 40]), "value too large to convert to int"),
    ])
    def test_a_refused_input_is_refused_on_every_call(self, args, message):
        for _ in range(3):
            with pytest.raises(_refusal(message), match=message):
                _pure.surjection_witness(*args)
        assert _pure.surjection_witness(2, 2, [1, 2, 3], [1, 2, 3]) == (0, 1)

    def test_targets_are_refused_before_sources_with_plans_cached(self):
        # three vertices onto two, so that the search keeps both plans
        src, tgt, bad_src, bad_tgt = (1, 2, 4, 3, 6), (1, 2, 3), (1, 2, 4, 3, 8), (1, 2, 7)
        assert _pure.surjection_witness(3, 2, src, tgt) == \
            reference_surjection_witness(3, 2, list(src), list(tgt)) is not None
        assert _pure._source_plan.cache_info().currsize == 1
        assert _pure._target_plan.cache_info().currsize == 1
        # the source plan is kept, the target refused
        with pytest.raises(ValueError, match="target mask out of range"):
            _pure.surjection_witness(3, 2, src, bad_tgt)
        # the target plan is kept, the source refused
        with pytest.raises(ValueError, match="source mask out of range"):
            _pure.surjection_witness(3, 2, bad_src, tgt)
        # both refused, neither kept: the target first
        with pytest.raises(ValueError, match="target mask out of range"):
            _pure.surjection_witness(3, 2, bad_src, bad_tgt)
        assert _pure._source_plan.cache_info().currsize == 1
        assert _pure._target_plan.cache_info().currsize == 1
        assert _pure._target_plan.cache_info().hits == 1

    def test_unhashable_masks_are_searched_without_a_plan_kept(self):
        np = pytest.importorskip("numpy")
        src = [np.array(m) for m in (1, 2, 4, 3, 6)]
        tgt = [np.array(m) for m in (1, 2, 3)]
        assert _pure.surjection_witness(3, 2, src, tgt) == \
            reference_surjection_witness(3, 2, [1, 2, 4, 3, 6], [1, 2, 3])
        assert _pure._target_plan.cache_info().currsize == 0
        assert _pure._source_plan.cache_info().currsize == 0


def first_fitting_permutation(n, src_masks, tgt_masks):
    """The first permutation of 0..n-1, in ``itertools.permutations``
    order, that maps every source mask of two or more vertices onto a
    target mask, or None."""
    tgt = set(tgt_masks)
    src = [m for m in src_masks if m & (m - 1)]
    for p in itertools.permutations(range(n)):
        if all(sum(1 << p[v] for v in range(n) if m >> v & 1) in tgt for m in src):
            return p
    return None


class TestEqualCountParity:
    """Between equal vertex counts up to five the pure map search tries the
    relabellings of its source in the lexicographic order of their
    permutations, keeps no plan, and refuses what the plans refuse, in
    their order; the compiled kernel, where it is built, agrees."""

    @pytest.fixture(autouse=True)
    def empty_plans(self):
        _pure._target_plan.cache_clear()
        _pure._source_plan.cache_clear()
        yield
        _pure._target_plan.cache_clear()
        _pure._source_plan.cache_clear()

    @staticmethod
    def kernels():
        return [_pure, *([_kernels.backends["compiled"]] if HAS_COMPILED else [])]

    @staticmethod
    def assert_no_plans():
        assert _pure._target_plan.cache_info().currsize == 0
        assert _pure._source_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_the_witness_is_the_first_fitting_permutation(self, n):
        rng = random.Random(43 + n)
        outcomes = set()
        for _ in range(150):
            src = random_masks(rng, n, rng.choice([0.2, 0.5]), rng.random() < 0.7)
            tgt = random_masks(rng, n, rng.choice([0.2, 0.5, 0.8]), rng.random() < 0.7)
            expected = first_fitting_permutation(n, src, tgt)
            outcomes.add(expected is None)
            for kernel in self.kernels():
                assert kernel.surjection_witness(n, n, src, tgt) == expected
        # from two vertices on, both a witness and none
        assert outcomes == ({False} if n == 1 else {False, True})
        self.assert_no_plans()

    @pytest.mark.parametrize("args, message", [
        ((2, 2, [1, 2, 3], [1, 2, 7]), "target mask out of range"),
        ((2, 2, [1, 2, 8], [1, 2, 7]), "target mask out of range"),
        ((2, 2, [1, 2, 8], [1, 2, 3]), "source mask out of range"),
        ((2, 2, [3] * 1025, [1, 2, 3]), "too many source simplices"),
        ((2, 2, [3] * 1025 + [4], [1, 2, 3]), "source mask out of range"),
        ((5, 5, [3, 0], [3]), "source mask out of range"),
        ((5, 5, [3], [3, 1 << 40]), "value too large to convert to int"),
        ((5, 5, [1 << 40], [3, 32]), "target mask out of range"),
    ])
    def test_refusals_keep_their_order_and_messages(self, args, message):
        for kernel in self.kernels():
            for _ in range(2):
                with pytest.raises(_refusal(message), match=message):
                    kernel.surjection_witness(*args)
        self.assert_no_plans()


class TestPureWelzl:
    def test_each_ordered_support_is_solved_once_per_call(self, monkeypatch):
        solved = []
        solve = _pure._solve

        def recording(pts, support, d):
            solved.append(support)
            return solve(pts, support, d)

        monkeypatch.setattr(_pure, "_solve", recording)
        in_scans = one_by_one = 0
        for pts in shaped_configurations(15, 60):
            solved.clear()
            _pure.subset_meb_radii(pts, len(pts))
            scan = list(solved)
            assert len(set(scan)) == len(scan)
            # the scan solves exactly the supports its subsets reach alone,
            # as ordered tuples of the input's point indices
            reached = set()
            for size in range(2, len(pts) + 1):
                for comb in itertools.combinations(range(len(pts)), size):
                    solved.clear()
                    _pure.meb([pts[i] for i in comb])
                    assert len(set(solved)) == len(solved)
                    one_by_one += len(solved)
                    reached.update(tuple(comb[j] for j in support) for support in solved)
            assert set(scan) == reached
            in_scans += len(scan)
        assert in_scans < one_by_one / 2

    def test_shuffles_are_built_once_for_every_scan_size(self):
        assert len(_pure._ORDERS) == _pure.MAX_SUBSET_VERTICES + 1
        for n, order in enumerate(_pure._ORDERS):
            assert order == tuple(_reference_shuffle(n))

    def test_meb_beyond_the_scan_limit_shuffles_its_own_order(self):
        pts = [(math.cos(k), math.sin(2 * k), k / 20) for k in range(20)]
        assert hex_ball(_pure.meb(pts)) == hex_ball(reference_meb(pts))


@needs_compiled
class TestBackendParity:
    def test_meb_parity(self):
        compiled = _kernels.backends["compiled"]
        rng = random.Random(3)
        for pts in [random_points(rng) for _ in range(400)] + shaped_configurations(13, 200):
            assert hex_ball(_pure.meb(pts)) == hex_ball(compiled.meb(pts))

    def test_subset_scan_parity(self):
        compiled = _kernels.backends["compiled"]
        rng = random.Random(4)
        configurations = [random_points(rng, n=rng.randint(2, 6)) for _ in range(60)]
        for pts in configurations + shaped_configurations(14, 120):
            assert hex_scan(_pure.subset_meb_radii(pts, len(pts))) == \
                hex_scan(compiled.subset_meb_radii(pts, len(pts)))

    def test_canonical_parity(self):
        compiled = _kernels.backends["compiled"]
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 5)
            masks = random_masks(rng, n)
            assert _pure.canonical_masks(n, masks) == compiled.canonical_masks(n, masks)

    def test_surjection_parity(self):
        compiled = _kernels.backends["compiled"]
        rng = random.Random(6)
        for _ in range(150):
            n_src, n_tgt = rng.randint(1, 5), rng.randint(1, 5)
            src = random_masks(rng, n_src)
            tgt = random_masks(rng, n_tgt)
            assert _pure.surjection_witness(n_src, n_tgt, src, tgt) == \
                compiled.surjection_witness(n_src, n_tgt, src, tgt)


def test_backend_selection_reports():
    assert _kernels.BACKEND in _kernels.backends


def test_generated_c_matches_pyx():
    """``_ckernels.c`` is built as committed, never regenerated on install,
    so every source line it quotes must still read the same in the
    ``.pyx`` (regenerate with ``cython -3`` after editing the ``.pyx``)."""
    source = Path(_pure.__file__).with_name("_ckernels.pyx").read_text().splitlines()
    generated = Path(_pure.__file__).with_name("_ckernels.c").read_text().splitlines()
    block = re.compile(r'/\* "cechstrat/_kernels/_ckernels\.pyx":(\d+)$')
    marker = "# <<<<<<<<<<<<<<"
    quoted = []
    line_no = None
    for line in generated:
        head = block.fullmatch(line.strip())
        if head:
            line_no = int(head.group(1))
        elif line_no is not None and line.endswith(marker):
            quoted.append((line_no, line[len(" * "):-len(marker)].rstrip()))
            line_no = None
    assert len({n for n, _ in quoted}) > 300
    stale = [(n, text) for n, text in quoted if text != source[n - 1].rstrip()]
    assert stale == []
