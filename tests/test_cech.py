import ast
import inspect
import itertools
import json
import math
import random

import numpy as np
import pytest

from cechstrat import (
    Filtration,
    PointConfig,
    RanPoint,
    SimplicialMap,
    canonical_form,
    cech_complex,
    cech_filtration,
    dominates,
    is_simplicial,
    make_complex,
    meb,
)
from cechstrat import _kernels, cech

from conftest import package_modules

SQRT3 = math.sqrt(3.0)


def config_2d(points):
    return PointConfig(2, tuple(tuple(p) for p in points))


def triangle():
    return config_2d([(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)])


def pair_1d():
    return PointConfig(1, ((0.0,), (1.0,)))


def grid_ball_intersection_nonempty(points, r, pitch=1e-3):
    """Dense-grid test that the closed r-balls around the points intersect.

    Searches the bounding box of the points (the minimizing center of the
    max distance always lies in their convex hull).
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    axes = [np.arange(a, b + pitch, pitch) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    dists = np.sqrt(((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return bool(dists.max(axis=1).min() <= r)


class TestCechComplex:
    def test_pair_below_critical_radius(self):
        c = cech_complex(RanPoint(pair_1d(), 0.4))
        assert c.simplices == ((0,), (1,))

    def test_pair_at_critical_radius_closed_balls_touch(self):
        c = cech_complex(RanPoint(pair_1d(), 0.5))
        assert c.simplices == ((0,), (1,), (0, 1))

    def test_triangle_cycle_then_filled(self):
        cycle = cech_complex(RanPoint(triangle(), 0.55))
        assert (0, 1) in cycle.simplex_set and (0, 1, 2) not in cycle.simplex_set
        assert len(cycle.simplices) == 6
        filled = cech_complex(RanPoint(triangle(), 0.58))
        assert (0, 1, 2) in filled.simplex_set
        assert len(filled.simplices) == 7

    def test_vertices_match_configuration(self):
        cfg = config_2d([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])
        c = cech_complex(RanPoint(cfg, 0.1))
        assert c.n_vertices == 3

    def test_max_dim_cap_applies(self):
        cfg = config_2d([(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)])
        capped = cech_complex(RanPoint(cfg, 5.0), max_dim=1)
        assert capped.dim == 1
        full = cech_complex(RanPoint(cfg, 5.0))
        assert full.dim == 3

    def test_many_points_require_cap(self):
        pts = [(float(i), 0.0) for i in range(9)]
        with pytest.raises(ValueError, match="max_dim"):
            cech_complex(RanPoint(config_2d(pts), 1.0))
        c = cech_complex(RanPoint(config_2d(pts), 1.0), max_dim=2)
        assert c.n_vertices == 9

    @pytest.mark.parametrize("backend", sorted(_kernels.backends))
    def test_more_than_16_points_are_refused_alike(self, backend, monkeypatch):
        # the compiled scan alone would say "limited to 64 points" above 64
        monkeypatch.setattr(cech._kernels, "subset_meb_radii",
                            _kernels.backends[backend].subset_meb_radii)
        for n in (17, 65):
            x = RanPoint(config_2d([(float(i), 0.0) for i in range(n)]), 0.1)
            with pytest.raises(ValueError, match=f"^subset scan limited to 16 points, got {n}$"):
                cech_complex(x, max_dim=1)

    def test_radius_monotonicity(self):
        rng = random.Random(61)
        for _ in range(60):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 5))]
            cfg = config_2d(pts)
            r = rng.uniform(0, 0.8)
            s = r + rng.uniform(0, 0.5)
            small = cech_complex(RanPoint(cfg, r))
            large = cech_complex(RanPoint(cfg, s))
            assert set(small.simplices) <= set(large.simplices)

    def test_identity_map_witnesses_domination(self):
        rng = random.Random(67)
        for _ in range(30):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 4))]
            cfg = config_2d(pts)
            r = rng.uniform(0, 0.6)
            s = r + rng.uniform(0, 0.4)
            small = cech_complex(RanPoint(cfg, r))
            large = cech_complex(RanPoint(cfg, s))
            ident = SimplicialMap(small, large, tuple(range(small.n_vertices)))
            assert is_simplicial(ident) and ident.is_vertex_surjective()
            assert dominates(small, large) is not None

    def test_grid_intersection_oracle_agreement(self):
        rng = random.Random(71)
        for _ in range(12):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 4))]
            cfg = config_2d(pts)
            r = rng.uniform(0.1, 0.8)
            complex_ = cech_complex(RanPoint(cfg, r))
            for size in range(2, len(pts) + 1):
                for subset in itertools.combinations(range(len(pts)), size):
                    sub_pts = [pts[i] for i in subset]
                    slack = r - meb(config_2d(sub_pts)).radius
                    if abs(slack) <= 2e-3:
                        continue
                    member = subset in complex_.simplex_set
                    assert member == grid_ball_intersection_nonempty(sub_pts, r)


class TestCechFiltration:
    def test_single_point(self):
        f = cech_filtration(PointConfig(1, ((3.0,),)))
        assert f.critical_radii == (0.0,)
        assert len(f.complexes) == 1
        assert f.complexes[0].simplices == ((0,),)

    def test_pair(self):
        f = cech_filtration(pair_1d())
        assert f.critical_radii == pytest.approx((0.0, 0.5))
        assert [len(c.simplices) for c in f.complexes] == [2, 3]

    def test_triangle_three_levels(self):
        f = cech_filtration(triangle())
        assert len(f.critical_radii) == 3
        assert f.critical_radii[0] == 0.0
        assert f.critical_radii[1] == pytest.approx(0.5)
        assert f.critical_radii[2] == pytest.approx(1 / SQRT3, abs=1e-9)
        assert [len(c.simplices) for c in f.complexes] == [3, 6, 7]

    def test_nested(self):
        rng = random.Random(73)
        for _ in range(25):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 5))]
            f = cech_filtration(config_2d(pts))
            for a, b in zip(f.complexes, f.complexes[1:]):
                assert set(a.simplices) < set(b.simplices)

    def test_intervals_partition_radii(self):
        # three sample radii per interval reproduce the stored complex
        rng = random.Random(79)
        for _ in range(15):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 4))]
            cfg = config_2d(pts)
            f = cech_filtration(cfg)
            bounds = list(f.critical_radii) + [f.critical_radii[-1] + 1.0]
            for i, cplx in enumerate(f.complexes):
                lo, hi = bounds[i], bounds[i + 1]
                # left-closed at lo; stay a band's width below the next birth
                top = max(lo, hi - max((hi - lo) * 1e-3, 3e-9))
                for r in (lo, 0.5 * (lo + hi), top):
                    assert cech_complex(RanPoint(cfg, r)) == cplx

    def test_one_scan_per_filtration(self, scan_calls):
        rng = random.Random(107)
        for _ in range(10):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 5))]
            scan_calls.clear()
            cech_filtration(config_2d(pts))
            assert len(scan_calls) == 1

    def test_complex_at_lookup(self):
        f = cech_filtration(pair_1d())
        assert f.complex_at(0.2) == f.complexes[0]
        assert f.complex_at(0.5) == f.complexes[1]
        assert f.complex_at(2.0) == f.complexes[1]

    def test_complex_at_reads_like_cech_complex(self):
        # within EPS_GEO below the edge's radius the edge already spans
        cfg = pair_1d()
        f = cech_filtration(cfg)
        for r in (0.0, 0.2, 0.4999999985, 0.4999999995, 0.49999999999999994, 0.5, 0.7, 2.0):
            assert f.complex_at(r) is cech_complex(RanPoint(cfg, r)), r
        assert len(f.complex_at(0.4999999995).simplices) == 3
        assert f.complex_at(math.inf) is f.complexes[-1]

    def test_complex_at_reads_every_stage_like_cech_complex(self):
        rng = random.Random(83)
        for _ in range(10):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 5))]
            cfg = config_2d(pts)
            f = cech_filtration(cfg)
            for c in f.critical_radii[1:]:
                for r in (c - 2e-9, c - 5e-10, c, c + 5e-10):
                    assert f.complex_at(r) is cech_complex(RanPoint(cfg, r)), (pts, r)

    @pytest.mark.parametrize("r", [-1.0, -1e-300, math.nan, -math.inf])
    def test_complex_at_refuses_a_bad_radius(self, r):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            cech_filtration(pair_1d()).complex_at(r)

    def test_critical_radii_must_rise_from_zero(self):
        f = cech_filtration(pair_1d())
        for radii in ((0.5, 1.0), (0.0, 0.0), (0.0, -0.5), ()):
            with pytest.raises(ValueError):
                Filtration(f.config, radii, f.complexes[:len(radii)])

    def test_classes_descend_along_filtration(self):
        f = cech_filtration(triangle())
        classes = [canonical_form(c) for c in f.complexes]
        for hi, lo in zip(classes, classes[1:]):
            assert dominates(hi.canonical, lo.canonical) is not None

    def test_json_round_trip(self):
        f = cech_filtration(triangle())
        blob = json.dumps(f.to_json_dict(), sort_keys=True)
        restored = Filtration.from_json_dict(json.loads(blob))
        assert restored.critical_radii == f.critical_radii
        assert restored.complexes == f.complexes
        assert restored.config == f.config

    @pytest.mark.parametrize("field, value, message", [
        ("critical_radii", ["0", "0.5"], '"critical_radii" must be an array of numbers'),
        ("critical_radii", [0.0, True], '"critical_radii" must be an array of numbers'),
        ("critical_radii", 0.5, '"critical_radii" must be an array of numbers'),
        ("complexes", {"0": 1}, '"complexes" must be an array'),
    ])
    def test_json_reader_refuses_mistyped_fields(self, field, value, message):
        data = {**cech_filtration(pair_1d()).to_json_dict(), field: value}
        with pytest.raises(ValueError, match=f"filtration JSON: {message}"):
            Filtration.from_json_dict(data)

    def test_json_reader_refuses_a_missing_field(self):
        data = cech_filtration(pair_1d()).to_json_dict()
        del data["complexes"]
        with pytest.raises(ValueError, match="filtration JSON is missing the field 'complexes'"):
            Filtration.from_json_dict(data)

    def test_complexes_must_have_one_vertex_per_point(self):
        f = cech_filtration(pair_1d())
        triangle3 = make_complex(3, [{0, 1, 2}])
        with pytest.raises(ValueError, match="3 vertices for 2 points"):
            Filtration(f.config, (0.0,), (triangle3,))
        data = {**f.to_json_dict(), "critical_radii": [0.0],
                "complexes": [triangle3.to_json_dict()]}
        with pytest.raises(ValueError, match="3 vertices for 2 points"):
            Filtration.from_json_dict(data)


#: settings no caller varied, now constants of the modules that use them
REMOVED_SETTINGS = {"eps", "levels", "probes_per_level", "param_scale"}

#: modules that may name the tolerance: its definition, its one reader, the re-export
TOLERANCE_MODULES = {"cechstrat", "cechstrat.geometry", "cechstrat.cech"}


class TestOneTolerance:
    """``cech`` alone compares radii under ``EPS_GEO``: no function takes a
    tolerance, and no other module reads it."""

    def test_no_function_takes_a_removed_setting(self):
        for module in package_modules():
            try:
                tree = ast.parse(inspect.getsource(module))
            except (OSError, TypeError):  # compiled extension: no Python source
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                elif isinstance(node, ast.ClassDef):  # dataclass and NamedTuple fields
                    names = {stmt.target.id for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
                else:
                    continue
                assert not names & REMOVED_SETTINGS, \
                    f"{module.__name__} line {node.lineno}: {names & REMOVED_SETTINGS}"

    def test_only_cech_reads_the_tolerance(self):
        for module in package_modules():
            try:
                source = inspect.getsource(module)
            except (OSError, TypeError):
                continue
            if module.__name__ not in TOLERANCE_MODULES:
                assert "EPS_GEO" not in source, module.__name__
        readers = set()
        for node in ast.parse(inspect.getsource(cech)).body:
            if isinstance(node, ast.FunctionDef):
                if any(isinstance(n, ast.Name) and n.id == "EPS_GEO" for n in ast.walk(node)):
                    readers.add(node.name)
        assert readers == {"_read_radii", "zone_edges"}
