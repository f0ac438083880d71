"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them live)."""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cechstrat import (
    PointConfig,
    RanPoint,
    SimplicialMap,
    as_filtration,
    canonical_form,
    cech_complex,
    cech_filtration,
    cech_path,
    compose,
    dominates,
    enumerate_classes,
    frontier_check,
    hasse,
    is_simplicial,
    local_map,
    meb,
    stratum_label,
    sup_distance,
    tilde_r,
    two_point_line_family,
    zigzag,
)
from cechstrat.cech import subset_radii
from cechstrat.cli import main as cli_main

from conftest import named_complexes, random_complex

SQRT3 = math.sqrt(3.0)


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed >= budget:
            print(f"[criterion {num}] FAIL ({elapsed:.1f}s over {budget:.0f}s budget) {description}")
            raise AssertionError(
                f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s >= {budget}s"
            )
    except BaseException:
        elapsed = time.monotonic() - t0
        print(f"[criterion {num}] FAIL ({elapsed:.1f}s) {description}")
        raise
    print(f"[criterion {num}] PASS ({elapsed:.1f}s) {description}")


def random_config_2d(rng, n_lo=2, n_hi=5, min_gap=0.0):
    while True:
        pts = [
            (rng.uniform(0, 1), rng.uniform(0, 1))
            for _ in range(rng.randint(n_lo, n_hi))
        ]
        try:
            cfg = PointConfig(2, tuple(pts))
        except ValueError:
            continue
        if min_gap > 0.0:
            radii = cech_filtration(cfg).critical_radii
            if any(b - a < min_gap for a, b in zip(radii, radii[1:])):
                continue
        return cfg


def test_criterion_1_hasse_reproduction(capsys, tmp_path):
    with criterion(1, "eight classes and eight cover arrows up to 3 vertices", budget=1.0):
        dot = tmp_path / "h.dot"
        t0 = time.monotonic()
        code = cli_main(["enumerate", "--max-vertices", "3", "--dot", str(dot)])
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert "classes: 8" in out
        assert "cover_edges: 8" in out
        assert elapsed < 1.0

        universe = enumerate_classes(3)
        assert len(universe.classes) == 8
        diagram = hasse(universe)
        assert len(diagram.cover_edges) == 8

        # brute-force transitive reduction straight from the relation matrix
        n = len(universe.classes)
        rel = universe.relation
        brute = set()
        for i in range(n):
            for j in range(n):
                if i == j or not rel[i][j]:
                    continue
                if not any(
                    k not in (i, j) and rel[i][k] and rel[k][j] for k in range(n)
                ):
                    brute.add((i, j))
        assert set(diagram.cover_edges) == brute

        named = {
            name: canonical_form(c).key for name, c in named_complexes().items()
        }
        key_to_name = {v: k for k, v in named.items()}
        got = {
            (key_to_name[universe.classes[i].key], key_to_name[universe.classes[j].key])
            for i, j in diagram.cover_edges
        }
        assert got == {
            ("discrete3", "edge_plus_point"),
            ("edge_plus_point", "path3"),
            ("path3", "cycle3"),
            ("cycle3", "filled3"),
            ("two_points", "edge"),
            ("edge_plus_point", "two_points"),
            ("edge", "point"),
            ("filled3", "edge"),
        }


def test_criterion_2_partial_order_axioms():
    with criterion(2, "partial-order axioms on 1000 random complexes", budget=60.0):
        rng = random.Random(2024)
        pool = [random_complex(rng, 5) for _ in range(1000)]
        for c in pool:
            w = dominates(c, c)
            assert w is not None
            assert is_simplicial(w) and w.is_vertex_surjective()
        for _ in range(1000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ab = dominates(a, b)
            ba = dominates(b, a)
            if ab is not None and ba is not None:
                assert canonical_form(a).key == canonical_form(b).key
            bc = dominates(b, c)
            if ab is not None and bc is not None:
                h = compose(ab, bc)
                assert is_simplicial(h) and h.is_vertex_surjective()
                assert dominates(a, c) is not None


def test_criterion_3_continuity():
    with criterion(
        3, "safe-ball perturbations dominate the center (500 random + 50 boundary)",
        budget=120.0,
    ):
        rng = random.Random(3033)
        instances = []
        for _ in range(500):
            instances.append(RanPoint(random_config_2d(rng), rng.uniform(0.0, 1.0)))
        for _ in range(50):
            cfg = random_config_2d(rng)
            _, radius = rng.choice(subset_radii(cfg))
            x = RanPoint(cfg, radius)
            assert tilde_r(x).case == "boundary"
            instances.append(x)

        for x in instances:
            ball = tilde_r(x)
            lbl_x = stratum_label(x)
            bound = 0.9 * ball.safe_radius
            produced = 0
            while produced < 10:
                pts = []
                splits_left = min(2, 8 - len(x.config))
                for p in x.config.points:
                    copies = 1
                    if splits_left > 0 and rng.random() < 0.15:
                        copies = 2
                        splits_left -= 1
                    for _ in range(copies):
                        angle = rng.uniform(0, 2 * math.pi)
                        rad = rng.uniform(0, bound)
                        pts.append(
                            (p[0] + rad * math.cos(angle), p[1] + rad * math.sin(angle))
                        )
                s = max(0.0, x.radius + rng.uniform(-bound, bound))
                try:
                    y = RanPoint(PointConfig(2, tuple(pts)), s)
                except ValueError:
                    continue
                produced += 1
                assert sup_distance(y, x) < ball.safe_radius
                witness = local_map(y, x)
                assert is_simplicial(witness)
                assert witness.is_vertex_surjective()
                lbl_y = stratum_label(y)
                assert canonical_form(witness.source).key == lbl_y.cls.key
                assert canonical_form(witness.target).key == lbl_x.cls.key
                assert dominates(lbl_y.cls.canonical, lbl_x.cls.canonical) is not None


def test_criterion_4_frontier_violation():
    with criterion(4, "two-point boundary pair violates the frontier condition"):
        cfg = PointConfig(1, ((0.0,), (1.0,)))
        named = {name: canonical_form(c).key for name, c in named_complexes().items()}

        # (P, 0.5) lies in the edge stratum and in the closure of the
        # two-points stratum: approach along the radius axis
        boundary = stratum_label(RanPoint(cfg, 0.5))
        assert boundary.cls.key == named["edge"]
        assert boundary.degenerate
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            below = RanPoint(cfg, 0.5 - delta / 2)
            assert stratum_label(below).cls.key == named["two_points"]
            assert sup_distance(below, RanPoint(cfg, 0.5)) <= delta

        # (P, 0.6) lies in the edge stratum with a sup-ball of radius 0.05
        # free of two-point-stratum points.  Exhaustive sweep of the
        # one-parameter family through P:
        interior = RanPoint(cfg, 0.6)
        assert stratum_label(interior).cls.key == named["edge"]
        for x in np.arange(0.9501, 1.05, 1e-3):
            for r in np.arange(0.5501, 0.65, 1e-3):
                y = RanPoint(PointConfig(1, ((0.0,), (float(x),))), float(r))
                assert sup_distance(y, interior) < 0.05
                assert stratum_label(y).cls.key == named["edge"]
        # interval bound covering every two-point configuration in the open
        # ball, not only the swept family: both points sit within 0.05 of 0
        # and 1 respectively, so the pair distance stays below 1.1 and its
        # critical radius below 0.55, while every radius in the ball exceeds
        # 0.55 -- the pair is always an edge, never two isolated points
        max_pair_distance = (1.0 + 0.05) - (0.0 - 0.05)
        assert max_pair_distance / 2 <= 0.55 + 1e-12
        assert 0.6 - 0.05 >= 0.55 - 1e-12

        # Monte-Carlo probe over general configurations inside the ball
        rng = random.Random(4044)
        hits = 0
        while hits < 10_000:
            k_left = rng.randint(1, 2)
            k_right = rng.randint(1, 2)
            pts = [(rng.uniform(-0.049, 0.049),) for _ in range(k_left)]
            pts += [(1.0 + rng.uniform(-0.049, 0.049),) for _ in range(k_right)]
            s = 0.6 + rng.uniform(-0.049, 0.049)
            try:
                y = RanPoint(PointConfig(1, tuple(pts)), s)
            except ValueError:
                continue
            hits += 1
            assert sup_distance(y, interior) < 0.05
            assert stratum_label(y).cls.key != named["two_points"]

        report = frontier_check(
            two_point_line_family(),
            stratum_label(RanPoint(cfg, 0.4)),
            stratum_label(RanPoint(cfg, 0.6)),
            n_samples=2000,
            probe_radius=0.05,
            seed=4,
        )
        assert report.verdict == "violated"
        assert report.boundary_witness is not None
        assert report.interior_witness is not None


def test_criterion_5_cech_grid_oracle():
    with criterion(
        5, "ball-based membership matches the dense-grid oracle (200 configs)",
        budget=120.0,
    ):
        rng = random.Random(5055)
        pitch = 1e-3
        for _ in range(200):
            cfg = random_config_2d(rng, n_lo=2, n_hi=4)
            pts = np.asarray(cfg.points)
            n = len(cfg)
            # grid minimax radius per subset, reused across the five radii
            oracle: dict[tuple[int, ...], float] = {}
            for size in range(2, n + 1):
                for subset in itertools.combinations(range(n), size):
                    sub = pts[list(subset)]
                    lo = sub.min(axis=0)
                    hi = sub.max(axis=0)
                    axes = [np.arange(a, b + pitch, pitch) for a, b in zip(lo, hi)]
                    mesh = np.meshgrid(*axes, indexing="ij")
                    grid = np.stack([m.ravel() for m in mesh], axis=1)
                    d = np.sqrt(((grid[:, None, :] - sub[None, :, :]) ** 2).sum(axis=2))
                    oracle[subset] = float(d.max(axis=1).min())
            for _ in range(5):
                r = rng.uniform(0.0, 0.8)
                complex_ = cech_complex(RanPoint(cfg, r))
                for subset, minimax in oracle.items():
                    slack = r - meb(cfg.subset(subset)).radius
                    if abs(slack) <= 2e-3:
                        continue
                    member = subset in complex_.simplex_set
                    assert member == (minimax <= r), (cfg, r, subset)


def test_criterion_6_zigzag_matches_filtration():
    with criterion(6, "growth-path zigzag classes equal the filtration classes"):
        named = {name: canonical_form(c).key for name, c in named_complexes().items()}

        tri = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)))
        filt = cech_filtration(tri)
        assert len(filt.critical_radii) == 3
        assert filt.critical_radii[0] == 0.0
        assert filt.critical_radii[1] == pytest.approx(0.5, abs=1e-5)
        assert filt.critical_radii[2] == pytest.approx(0.57735, abs=1e-5)
        assert [canonical_form(c).key for c in filt.complexes] == [
            named["discrete3"], named["cycle3"], named["filled3"],
        ]
        z = zigzag(cech_path(tri, 0.9), 0.01)
        assert [lbl.cls.key for lbl in z.interval_classes] == [
            named["discrete3"], named["cycle3"], named["filled3"],
        ]
        chain = as_filtration(z)
        assert chain is not None and len(chain.classes) == 3

        rng = random.Random(6066)
        for _ in range(100):
            cfg = random_config_2d(rng, n_lo=2, n_hi=5, min_gap=1e-3)
            filt = cech_filtration(cfg)
            expected = [
                canonical_form(c).key
                for c, r in zip(filt.complexes, filt.critical_radii)
                if r < 9.0
            ]
            z = zigzag(cech_path(cfg, 0.9), 0.01)
            assert [lbl.cls.key for lbl in z.interval_classes] == expected


def test_criterion_7_radius_monotonicity():
    with criterion(7, "simplex sets grow with the radius, identity map witnesses"):
        rng = random.Random(7077)
        for _ in range(500):
            cfg = random_config_2d(rng)
            r = rng.uniform(0.0, 1.0)
            s = r + rng.uniform(0.0, 1.0)
            small = cech_complex(RanPoint(cfg, r))
            large = cech_complex(RanPoint(cfg, s))
            assert set(small.simplices) <= set(large.simplices)
            ident = SimplicialMap(small, large, tuple(range(small.n_vertices)))
            assert is_simplicial(ident) and ident.is_vertex_surjective()
            assert (
                dominates(
                    canonical_form(small).canonical, canonical_form(large).canonical
                )
                is not None
            )
