import itertools
import math
import random
import re
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
        tri = closure(3, [0b111])
        for n_tgt, tgt in ((3, tri), (2, [1, 2, 3]), (3, tri), (2, (1, 2, 3))):
            _pure.surjection_witness(3, n_tgt, tuple(tri), tgt)
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
        assert _pure.surjection_witness(2, 2, [1, 2, 3], [1, 2, 3]) == (0, 1)
        # the source plan is kept, the target refused
        with pytest.raises(ValueError, match="target mask out of range"):
            _pure.surjection_witness(2, 2, [1, 2, 3], [1, 2, 7])
        # the target plan is kept, the source refused
        with pytest.raises(ValueError, match="source mask out of range"):
            _pure.surjection_witness(2, 2, [1, 2, 8], [1, 2, 3])
        # both refused, neither kept: the target first
        with pytest.raises(ValueError, match="target mask out of range"):
            _pure.surjection_witness(2, 2, [1, 2, 8], [1, 2, 7])

    def test_unhashable_masks_are_searched_without_a_plan_kept(self):
        np = pytest.importorskip("numpy")
        src = [np.array(m) for m in (1, 2, 4, 3, 6)]
        tgt = [np.array(m) for m in (1, 2, 3)]
        assert _pure.surjection_witness(3, 2, src, tgt) == \
            reference_surjection_witness(3, 2, [1, 2, 4, 3, 6], [1, 2, 3])
        assert _pure._target_plan.cache_info().currsize == 0
        assert _pure._source_plan.cache_info().currsize == 0


@needs_compiled
class TestBackendParity:
    def test_meb_parity(self):
        compiled = _kernels.backends["compiled"]
        rng = random.Random(3)
        for _ in range(400):
            pts = random_points(rng)
            assert _pure.meb(pts) == compiled.meb(pts)

    def test_subset_scan_parity(self):
        compiled = _kernels.backends["compiled"]
        rng = random.Random(4)
        for _ in range(60):
            pts = random_points(rng, n=rng.randint(2, 6))
            assert _pure.subset_meb_radii(pts, len(pts)) == \
                compiled.subset_meb_radii(pts, len(pts))

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
