import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cechstrat import (
    Ball,
    PointConfig,
    RanPoint,
    cech_radius,
    cech_radius_set_distance,
    cech_set,
    hausdorff,
    meb,
    set_distance,
    stratum_label,
    sup_distance,
)
from cechstrat.geometry import _directed

SQRT3 = math.sqrt(3.0)


def support_meb_radius(points):
    """Brute-force smallest-enclosing radius in the plane.

    Exhausts every candidate ball determined by a pair (as diameter) or a
    triple (as circumcircle) and keeps the smallest one covering all points;
    a planar minimum enclosing ball is determined by at most three points.
    Exact closed forms, independent of the package's recursive solver.
    """
    pts = [tuple(map(float, p)) for p in points]
    if len(pts) == 1:
        return 0.0

    def covers(center, radius):
        return all(math.dist(center, p) <= radius * (1 + 1e-12) + 1e-15 for p in pts)

    best = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            c = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
            r = math.dist(pts[i], pts[j]) / 2
            if r < best and covers(c, r):
                best = r
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
                det = 2 * ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
                if abs(det) < 1e-12:
                    continue
                b2 = (bx - ax) ** 2 + (by - ay) ** 2
                c2 = (cx - ax) ** 2 + (cy - ay) ** 2
                ux = ax + ((cy - ay) * b2 - (by - ay) * c2) / det
                uy = ay + ((bx - ax) * c2 - (cx - ax) * b2) / det
                r = math.dist((ux, uy), pts[i])
                if r < best and covers((ux, uy), r):
                    best = r
    return best


def grid_minimax_radius(points, pitch=1e-3):
    """Single-shot dense-grid minimax radius over the bounding box.

    Overestimates the true radius by at most about ``pitch`` (the grid may
    miss the exact optimal center by half a cell); use with tolerances well
    above the pitch.
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    axes = [np.arange(a, b + pitch, pitch) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    dists = np.sqrt(((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return float(dists.max(axis=1).min())


def config_2d(points):
    return PointConfig(2, tuple(tuple(p) for p in points))


def config_1d(*xs):
    return PointConfig(1, tuple((float(x),) for x in xs))


class TestPointConfig:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointConfig(1, ())

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="dedupe"):
            PointConfig(1, ((0.0,), (5e-10,)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PointConfig(2, ((0.0,),))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointConfig(1, ((float("nan"),),))

    def test_ranpoint_radius_nonnegative(self):
        with pytest.raises(ValueError):
            RanPoint(config_1d(0.0), -0.1)

    @pytest.mark.parametrize("bad, message", [
        (math.inf, "radius must be finite, got inf"),
        (-math.inf, "radius must be >= 0, got -inf"),
        (math.nan, "radius must be >= 0, got nan"),
    ])
    def test_ranpoint_radius_finite(self, bad, message):
        with pytest.raises(ValueError) as err:
            RanPoint(config_1d(0.0), bad)
        assert str(err.value) == message

    def test_ranpoint_json_radius_finite(self):
        # json.loads reads Infinity, as a file handed to the CLI may carry
        data = json.loads('{"config": {"dim": 1, "points": [[0.0]]}, "radius": Infinity}')
        with pytest.raises(ValueError, match="radius must be finite, got inf"):
            RanPoint.from_json_dict(data)

    @pytest.mark.parametrize("radius", ["0.25", None, True, [0.25]])
    def test_ranpoint_json_radius_is_a_number(self, radius):
        data = {"config": {"dim": 1, "points": [[0.0]]}, "radius": radius}
        with pytest.raises(ValueError, match=f'Ran-point JSON: "radius" must be a number, '
                                             f'got {re.escape(repr(radius))}'):
            RanPoint.from_json_dict(data)

    def test_ranpoint_json_round_trip(self):
        x = RanPoint(config_1d(0.0, 1.0), 0.25)
        assert RanPoint.from_json_dict(json.loads(json.dumps(x.to_json_dict()))) == x
        with pytest.raises(ValueError, match="Ran-point JSON is missing the field 'radius'"):
            RanPoint.from_json_dict({"config": x.config.to_json_dict()})

    @pytest.mark.parametrize("dim", [0, 17, 40])
    def test_rejects_dimension_outside_kernel_domain(self, dim):
        # the compiled kernels hold at most 16 coordinates; both backends
        # must refuse the same configurations, at construction
        with pytest.raises(ValueError, match=r"dim must be in 1\.\.16"):
            PointConfig(dim, ((0.0,) * dim, (1.0,) * dim))

    def test_largest_dimension_labels(self):
        cfg = PointConfig(16, ((0.0,) * 16, (0.25,) * 16))
        assert stratum_label(RanPoint(cfg, 0.6)).cls.canonical.masks == (1, 2, 3)
        assert meb(cfg).radius == pytest.approx(0.5)


class TestHausdorff:
    def test_identical_configs(self):
        p = config_1d(0.0, 1.0)
        assert hausdorff(p, p) == 0.0

    def test_equal_points_are_positive_zero_apart(self):
        rng = random.Random(41)
        for _ in range(50):
            pts = [(rng.uniform(-1, 1), rng.choice((0.0, -0.0))) for _ in range(rng.randint(1, 5))]
            a = config_2d(pts)
            for b in (config_2d(pts), config_2d([(x, -y) for x, y in pts]), config_2d(pts[::-1])):
                d = hausdorff(a, b)
                assert d == max(_directed(a, b), _directed(b, a)) == 0.0
                assert math.copysign(1.0, d) == 1.0

    def test_singleton_against_pair(self):
        assert hausdorff(config_1d(0.0), config_1d(0.0, 1.0)) == pytest.approx(1.0)

    def test_interleaved_pairs(self):
        assert hausdorff(config_1d(0.0, 1.0), config_1d(0.1, 0.9)) == pytest.approx(0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            hausdorff(config_1d(0.0), config_2d([(0.0, 0.0)]))

    @given(st.data())
    def test_metric_axioms(self, data):
        def cfg(seedless):
            pts = data.draw(
                st.lists(
                    st.tuples(
                        st.floats(-5, 5, allow_nan=False),
                        st.floats(-5, 5, allow_nan=False),
                    ),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
            try:
                return config_2d(pts)
            except ValueError:
                return None

        a, b, c = cfg(0), cfg(1), cfg(2)
        if a is None or b is None or c is None:
            return
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))
        assert hausdorff(a, a) == 0.0
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


class TestSetDistance:
    def test_identical_singletons(self):
        p = config_1d(0.0)
        assert set_distance(p, p) == 0.0

    def test_min_pairwise(self):
        assert set_distance(config_1d(0.0), config_1d(3.0, 5.0)) == pytest.approx(3.0)

    def test_accepts_ball_as_intersection_descriptor(self):
        p = config_1d(0.0, 1.0)
        assert set_distance(p, Ball((0.5,), 0.5)) == pytest.approx(0.5)

    def test_bounded_by_hausdorff(self):
        rng = random.Random(13)
        for _ in range(100):
            a = config_2d([(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 4))])
            b = config_2d([(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 4))])
            assert set_distance(a, b) <= hausdorff(a, b) + 1e-12


class TestSupDistance:
    def test_equal_points(self):
        x = RanPoint(config_1d(0.0, 1.0), 0.3)
        assert sup_distance(x, x) == 0.0

    def test_radius_term_dominates(self):
        p = config_1d(0.0, 1.0)
        assert sup_distance(RanPoint(p, 0.2), RanPoint(p, 0.7)) == pytest.approx(0.5)

    def test_hausdorff_term_dominates(self):
        a = RanPoint(config_1d(0.0), 0.3)
        b = RanPoint(config_1d(1.0), 0.3)
        assert sup_distance(a, b) == pytest.approx(1.0)


class TestMeb:
    def test_single_point(self):
        b = meb(config_1d(2.5))
        assert b.center == (2.5,) and b.radius == 0.0

    def test_point_limit_is_the_same_on_every_backend(self):
        # the compiled kernel holds at most 64 points; pure used to take more
        assert meb(config_1d(*range(64))).radius == 31.5
        with pytest.raises(ValueError, match="meb takes at most 64 points, got 65"):
            meb(config_1d(*range(65)))

    def test_pair_midpoint(self):
        b = meb(config_1d(0.0, 1.0))
        assert b.center == (0.5,) and b.radius == pytest.approx(0.5)

    def test_unit_equilateral_triangle(self):
        tri = config_2d([(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)])
        b = meb(tri)
        assert b.radius == pytest.approx(1 / SQRT3, abs=1e-12)
        assert b.center[0] == pytest.approx(0.5, abs=1e-12)
        assert b.center[1] == pytest.approx(SQRT3 / 6, abs=1e-12)

    def test_obtuse_triangle_uses_longest_side(self):
        # for an obtuse triangle the ball on the longest side already covers
        # the third vertex
        tri = config_2d([(0.0, 0.0), (4.0, 0.0), (1.0, 0.5)])
        assert meb(tri).radius == pytest.approx(2.0, abs=1e-12)

    def test_containment(self):
        rng = random.Random(31)
        for _ in range(200):
            d = rng.randint(1, 3)
            pts = [tuple(rng.uniform(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 7))]
            cfg = PointConfig(d, tuple(pts))
            b = meb(cfg)
            for p in pts:
                assert math.dist(p, b.center) <= b.radius + 1e-9

    def test_no_local_improvement(self):
        rng = random.Random(37)
        for _ in range(30):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)]
            cfg = config_2d(pts)
            b = meb(cfg)
            for _ in range(40):
                shift = (rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4))
                moved = (b.center[0] + shift[0], b.center[1] + shift[1])
                needed = max(math.dist(p, moved) for p in pts)
                assert needed >= b.radius - 1e-9

    def test_support_enumeration_oracle_agreement(self):
        rng = random.Random(41)
        for _ in range(40):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 5))]
            cfg = config_2d(pts)
            assert meb(cfg).radius == pytest.approx(support_meb_radius(pts), abs=1e-6)

    def test_dense_grid_oracle_agreement(self):
        rng = random.Random(42)
        for _ in range(10):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 5))]
            cfg = config_2d(pts)
            oracle = grid_minimax_radius(pts, pitch=1e-3)
            assert meb(cfg).radius <= oracle + 1e-9
            assert meb(cfg).radius >= oracle - 2e-3

    def test_circumradius_closed_form_for_acute_triangles(self):
        rng = random.Random(43)
        done = 0
        while done < 25:
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
            a = math.dist(pts[0], pts[1])
            b = math.dist(pts[1], pts[2])
            c = math.dist(pts[0], pts[2])
            # acute test via squared side lengths
            s = sorted([a * a, b * b, c * c])
            if s[0] + s[1] <= s[2] + 1e-9:
                continue
            area = abs(
                (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1])
                - (pts[2][0] - pts[0][0]) * (pts[1][1] - pts[0][1])
            ) / 2
            if area < 1e-6:
                continue
            circumradius = a * b * c / (4 * area)
            assert meb(config_2d(pts)).radius == pytest.approx(circumradius, abs=1e-9)
            done += 1

    def test_subset_monotonicity(self):
        rng = random.Random(47)
        for _ in range(60):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)]
            cfg = config_2d(pts)
            sub = config_2d(pts[:3])
            assert meb(sub).radius <= meb(cfg).radius + 1e-12

    def test_deterministic(self):
        pts = [(0.1, 0.2), (0.8, 0.4), (0.3, 0.9), (0.5, 0.1)]
        assert meb(config_2d(pts)) == meb(config_2d(pts))


class TestCechRadius:
    def test_cech_set_is_enclosing_ball(self):
        cfg = config_1d(0.0, 1.0)
        assert cech_set(cfg) == meb(cfg)

    def test_singleton(self):
        assert cech_radius(config_1d(0.0), 0.3) == pytest.approx(0.3)

    def test_zero_at_critical_pair_radius(self):
        assert cech_radius(config_1d(0.0, 1.0), 0.5) == pytest.approx(0.0)

    def test_triangle_slack(self):
        tri = config_2d([(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)])
        assert cech_radius(tri, 0.6) == pytest.approx(0.6 - 1 / SQRT3, abs=1e-12)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            cech_radius(config_1d(0.0), -0.1)

    def test_sign_characterizes_ball_intersection(self):
        # brute-force witness search over a fine grid
        rng = random.Random(53)
        for _ in range(40):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 4))]
            cfg = config_2d(pts)
            r = rng.uniform(0.0, 1.0)
            slack = cech_radius(cfg, r)
            if abs(slack) < 2e-3:
                continue
            oracle_radius = support_meb_radius(pts)
            assert (slack > 0) == (r > oracle_radius)

    def test_monotone_and_lipschitz_in_radius(self):
        cfg = config_2d([(0.0, 0.0), (1.0, 0.0), (0.4, 0.7)])
        rs = [0.0, 0.2, 0.5, 0.9, 1.5]
        vals = [cech_radius(cfg, r) for r in rs]
        for (r1, v1), (r2, v2) in zip(zip(rs, vals), zip(rs[1:], vals[1:])):
            assert v2 > v1
            assert abs(v2 - v1) <= abs(r2 - r1) + 1e-12

    def test_footnote_identity(self):
        rng = random.Random(59)
        for _ in range(30):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 4))]
            cfg = config_2d(pts)
            assert cech_radius(cfg, meb(cfg).radius) == pytest.approx(0.0, abs=1e-12)

    def test_set_distance_reading_differs_on_obtuse_triangles(self):
        # the min-pair reading underestimates the critical radius whenever
        # some point is interior to the enclosing ball
        tri = config_2d([(0.0, 0.0), (4.0, 0.0), (1.0, 0.5)])
        r = 1.9  # below the critical radius 2.0: intersection is empty
        assert cech_radius(tri, r) < 0
        assert cech_radius_set_distance(tri, r) > 0

    def test_readings_agree_when_all_points_on_boundary(self):
        cfg = config_1d(0.0, 1.0)
        for r in (0.2, 0.5, 0.9):
            assert cech_radius(cfg, r) == pytest.approx(cech_radius_set_distance(cfg, r))
