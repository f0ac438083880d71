import math
import random
import re
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


def random_masks(rng, n):
    fam = {1 << v for v in range(n)}
    for m in range(1, 1 << n):
        if m.bit_count() >= 2 and rng.random() < 0.5:
            fam.add(m)
    changed = True
    while changed:
        changed = False
        for m in list(fam):
            mm = m
            while mm:
                low = mm & -mm
                face = m ^ low
                if face and face not in fam:
                    fam.add(face)
                    changed = True
                mm ^= low
    return sorted(fam)


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
