import dataclasses
import inspect
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from cechstrat import (
    PointConfig,
    RanPoint,
    canonical_form,
    cech_complex,
    cech_radius,
    cech_radius_set_distance,
    dominates,
    evaluate,
    frontier_check,
    is_simplicial,
    local_map,
    r1,
    r2,
    r2_prime,
    stratum_label,
    sup_distance,
    tilde_r,
    transitions,
    two_point_line_family,
)
from cechstrat import paths, strat
from cechstrat.cech import read_scan, subset_radii

import cechstrat
import conftest
import zigzag_corpus

WORKLOADS = zigzag_corpus.load(
    "strat_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")

SQRT3 = math.sqrt(3.0)


def test_no_dimension_cap_above_the_cech_layer():
    # labels, safe balls, maps and paths read the full Cech complex of at
    # most 8 points; only the Cech layer reads larger configurations
    checked = set()
    for module in (strat, paths):
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) or inspect.isclass(value):
                assert "max_dim" not in inspect.signature(value).parameters, name
                checked.add(name)
    assert {"r2", "r2_prime", "tilde_r", "local_map", "stratum_label", "transitions",
            "entrance_map", "zigzag"} <= checked


def config_1d(*xs):
    return PointConfig(1, tuple((float(x),) for x in xs))


def config_2d(points):
    return PointConfig(2, tuple(tuple(p) for p in points))


def triangle():
    return config_2d([(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)])


def random_ranpoint(rng, n_points=None, engineered_boundary=False):
    n = n_points or rng.randint(2, 5)
    while True:
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        try:
            cfg = config_2d(pts)
            break
        except ValueError:
            continue
    if engineered_boundary:
        from cechstrat.cech import subset_radii

        mask, radius = rng.choice(subset_radii(cfg))
        return RanPoint(cfg, radius)
    return RanPoint(cfg, rng.uniform(0.0, 1.0))


def perturb_inside(rng, x, ball, allow_split=True):
    """Random point strictly inside the safe ball (factor 0.9)."""
    bound = 0.9 * ball.safe_radius
    while True:
        pts = []
        for p in x.config.points:
            copies = 2 if (allow_split and rng.random() < 0.2) else 1
            for _ in range(copies):
                angle = rng.uniform(0, 2 * math.pi)
                rad = rng.uniform(0, bound)
                pts.append((p[0] + rad * math.cos(angle), p[1] + rad * math.sin(angle)))
        s = max(0.0, x.radius + rng.uniform(-bound, bound))
        try:
            return RanPoint(config_2d(pts), s)
        except ValueError:
            continue


class TestSeparationRadii:
    def test_r1_pair(self):
        assert r1(config_1d(0.0, 1.0)) == pytest.approx(1.0)

    def test_r1_min_over_pairs(self):
        assert r1(config_1d(0.0, 0.3, 1.0)) == pytest.approx(0.3)

    def test_r1_singleton_sentinel(self):
        assert r1(config_1d(0.0)) == math.inf

    def test_r2_pair(self):
        assert r2(config_1d(0.0, 1.0), 0.7) == pytest.approx(0.4)

    def test_r2_zero_at_critical(self):
        assert r2(config_1d(0.0, 1.0), 0.5) == pytest.approx(0.0)

    def test_r2_triangle(self):
        assert r2(triangle(), 0.3) == pytest.approx(0.4, abs=1e-9)

    def test_r2_requires_two_points(self):
        with pytest.raises(ValueError):
            r2(config_1d(0.0), 0.5)

    def test_r2_prime_all_degenerate_sentinel(self):
        assert r2_prime(config_1d(0.0, 1.0), 0.5) == math.inf

    def test_r2_prime_skips_critical_subsets(self):
        # pairs: {0,1} radius 0.5 (critical), {0,4} radius 2, {1,4} radius 1.5;
        # triple radius 2 -> min slack doubled over non-critical subsets is 2
        assert r2_prime(config_1d(0.0, 1.0, 4.0), 0.5) == pytest.approx(2.0)

    def test_r2_prime_equals_r2_generically(self):
        rng = random.Random(83)
        for _ in range(40):
            x = random_ranpoint(rng)
            assert r2_prime(x.config, x.radius) == pytest.approx(r2(x.config, x.radius))


@pytest.mark.parametrize("radius", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("fn", [r2, r2_prime, cech_radius, cech_radius_set_distance],
                         ids=lambda fn: fn.__name__)
def test_radius_below_zero_or_nan_is_refused(fn, radius):
    # the same rule and message as a RanPoint's; +inf stays readable
    with pytest.raises(ValueError, match=r"radius must be >= 0, got (-1\.0|nan)"):
        fn(triangle(), radius)


class TestTildeR:
    def test_generic_pair(self):
        sb = tilde_r(RanPoint(config_1d(0.0, 1.0), 0.7))
        assert sb.case == "generic"
        assert sb.r_tilde == pytest.approx(0.4)
        assert sb.safe_radius == pytest.approx(0.1)

    def test_boundary_pair(self):
        sb = tilde_r(RanPoint(config_1d(0.0, 1.0), 0.5))
        assert sb.case == "boundary"
        assert sb.r_tilde == pytest.approx(1.0)
        assert sb.safe_radius == pytest.approx(0.25)

    def test_slack_dominates_gap(self):
        sb = tilde_r(RanPoint(config_1d(0.0, 1.0), 0.45))
        assert sb.r_tilde == pytest.approx(0.1)

    def test_r_tilde_is_gap_or_noncritical_slack(self):
        rng = random.Random(97)
        for k in range(60):
            at_critical = k % 2 == 1
            x = random_ranpoint(rng, engineered_boundary=at_critical)
            sb = tilde_r(x)
            assert sb.r_tilde == min(r1(x.config), r2_prime(x.config, x.radius))
            if sb.case == "generic":
                assert r2_prime(x.config, x.radius) == r2(x.config, x.radius)
            if at_critical:
                assert sb.case == "boundary"

    def test_singleton_fallbacks(self):
        sb = tilde_r(RanPoint(config_1d(0.0), 0.5))
        assert sb.r_tilde == pytest.approx(2.0) and sb.safe_radius == pytest.approx(0.5)
        sb0 = tilde_r(RanPoint(config_1d(0.0), 0.0))
        assert sb0.r_tilde == pytest.approx(1.0) and sb0.safe_radius == pytest.approx(0.25)

    def test_rigid_motion_invariance(self):
        rng = random.Random(89)
        for _ in range(25):
            x = random_ranpoint(rng)
            theta = rng.uniform(0, 2 * math.pi)
            dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            moved = config_2d(
                [
                    (
                        p[0] * math.cos(theta) - p[1] * math.sin(theta) + dx,
                        p[0] * math.sin(theta) + p[1] * math.cos(theta) + dy,
                    )
                    for p in x.config.points
                ]
            )
            a = tilde_r(x)
            b = tilde_r(RanPoint(moved, x.radius))
            assert a.r_tilde == pytest.approx(b.r_tilde, abs=1e-9)
            assert a.case == b.case


class TestLocalMap:
    def test_identity_on_same_point(self):
        x = RanPoint(config_1d(0.0, 1.0), 0.7)
        m = local_map(x, x)
        assert m.vertex_map == (0, 1)
        assert is_simplicial(m) and m.is_vertex_surjective()

    def test_generic_pair_example(self):
        target = RanPoint(config_1d(0.0, 1.0), 0.7)
        source = RanPoint(config_1d(0.01, 0.99), 0.72)
        assert sup_distance(source, target) == pytest.approx(0.02)
        m = local_map(source, target)
        assert m.vertex_map == (0, 1)
        assert m.source.simplex_set == m.target.simplex_set == {(0,), (1,), (0, 1)}

    def test_boundary_case_example(self):
        target = RanPoint(config_1d(0.0, 1.0), 0.5)
        source = RanPoint(config_1d(0.05, 0.95), 0.55)
        m = local_map(source, target)
        assert (0, 1) in m.source.simplex_set  # 0.45 <= 0.55
        assert (0, 1) in m.target.simplex_set
        assert m.is_vertex_surjective()

    def test_merge_onto_singleton(self):
        target = RanPoint(config_1d(0.0), 0.0)
        source = RanPoint(config_1d(-0.05, 0.1), 0.05)
        m = local_map(source, target)
        assert m.vertex_map == (0, 0)
        assert m.is_vertex_surjective()

    def test_precondition_violation(self):
        target = RanPoint(config_1d(0.0, 1.0), 0.7)
        source = RanPoint(config_1d(0.3, 0.7), 0.7)
        with pytest.raises(ValueError, match="safe radius"):
            local_map(source, target)

    @pytest.mark.xfail(raises=RuntimeError, strict=True,
                       reason="tilde_r reads each slack from a subset's radius, not from "
                              "the band edge at which read_scan spans it")
    def test_a_source_past_a_lower_band_edge_is_refused(self):
        # the target is the lower band edge of mask 0b1110, and the source,
        # the next float, the lower band edge of mask 0b1111: it lies inside
        # the target's safe ball (r~ = 2.0e-9) but spans one more subset
        cfg = config_2d(((0.7607140172122542, 0.6758670853308426),
                         (0.4739453205651758, 0.1426824419158712),
                         (0.9325108054462711, 0.7351570117142415),
                         (0.005396832672037721, 0.6494298524685095),
                         (0.9210481989779773, 0.06306021118200633)))
        r = 0.47201283267809946
        with pytest.raises(ValueError):
            local_map(RanPoint(cfg, math.nextafter(r, 1.0)), RanPoint(cfg, r))

    def test_snap_balls_partition_sources(self):
        rng = random.Random(97)
        for _ in range(40):
            x = random_ranpoint(rng)
            ball = tilde_r(x)
            y = perturb_inside(rng, x, ball)
            for q in y.config.points:
                hits = [
                    i
                    for i, p in enumerate(x.config.points)
                    if math.dist(q, p) < ball.safe_radius
                ]
                assert len(hits) == 1


def reference_snap(source, target):
    """The ball search: for each source point, the one target point within
    the target's safe radius."""
    safe = tilde_r(target).safe_radius
    vertex_map = []
    for q in source.config.points:
        hits = [i for i, p in enumerate(target.config.points) if math.dist(q, p) < safe]
        assert len(hits) == 1, (q, hits)
        vertex_map.append(hits[0])
    return tuple(vertex_map)


class TestFiberSnap:
    """Where both ends lie over one configuration, the local map snaps by
    the identity and computes no distance; elsewhere it searches the balls.
    Either way its vertex map is the ball search's."""

    @pytest.fixture
    def dists(self, monkeypatch):
        calls = []
        dist = math.dist

        def counted(p, q):
            calls.append((p, q))
            return dist(p, q)

        monkeypatch.setattr(math, "dist", counted)
        return calls

    @staticmethod
    def snapped(source, target, dists):
        """The local map's vertex map, the reference's, and the distances
        the local map computed (the target's safe ball read beforehand)."""
        expected = reference_snap(source, target)
        dists.clear()
        return local_map(source, target).vertex_map, expected, len(dists)

    @staticmethod
    def instant_pairs(path):
        """(float beside the instant, instant) for each instant of ``path``
        and each side inside [0, 1], as the entrance maps read them."""
        for t, _ in transitions(path, 0.01):
            for side in (-math.inf, math.inf):
                tau = math.nextafter(t, side)
                if 0.0 <= tau <= 1.0:
                    yield evaluate(path, tau), evaluate(path, t)

    @pytest.mark.parametrize("name, count", [("growth", 162), ("still", 400)])
    def test_corpus_instants_snap_by_the_identity(self, dists, name, count):
        corpus = dict(zigzag_corpus.corpora(cechstrat, conftest, WORKLOADS))[name]
        pairs = 0
        for path in itertools.islice(corpus, count):
            for source, target in self.instant_pairs(path):
                assert source.config.points == target.config.points
                got, expected, computed = self.snapped(source, target, dists)
                assert got == expected == tuple(range(len(target.config))), (source, target)
                assert computed == 0
                pairs += 1
        assert pairs > count

    def test_singletons(self, dists):
        for r, s in ((0.0, 0.0), (0.0, 0.1), (0.5, 0.6), (0.6, 0.5)):
            source, target = RanPoint(config_1d(0.3), s), RanPoint(config_1d(0.3), r)
            assert self.snapped(source, target, dists) == ((0,), (0,), 0)

    def test_radii_on_band_edges(self, dists):
        rng = random.Random(44)
        checked = refused = 0
        for _ in range(30):
            cfg = random_ranpoint(rng).config
            scan = subset_radii(cfg)
            for r in (*sorted(scan.lower + scan.upper), *scan.radii):
                target = RanPoint(cfg, r)
                safe = tilde_r(target).safe_radius
                for s in (r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf),
                          r + 2.0 * safe):
                    source = RanPoint(config_2d(cfg.points), max(s, 0.0))
                    if not sup_distance(source, target) < safe:
                        with pytest.raises(ValueError, match="safe radius"):
                            local_map(source, target)
                        refused += 1
                    elif read_scan(scan, source.radius).hi <= read_scan(scan, r).hi:
                        # only sources that span no subset the target lacks: one
                        # float past a lower band edge, a source inside the safe
                        # ball can span one, since the slack is read from the
                        # radius and not from its band edge, and its map then
                        # fails validation
                        got, expected, computed = self.snapped(source, target, dists)
                        assert got == expected == tuple(range(len(cfg))) and computed == 0
                        checked += 1
        assert checked > 1000 and refused > 100

    def test_signed_zeros_are_one_configuration(self, dists):
        target = RanPoint(config_1d(0.0, 1.0), 0.7)
        source = RanPoint(config_1d(-0.0, 1.0), 0.7)
        assert self.snapped(source, target, dists) == ((0, 1), (0, 1), 0)

    def test_other_points_snap_by_the_search(self, dists):
        rng = random.Random(45)
        for _ in range(40):
            x = random_ranpoint(rng)
            y = perturb_inside(rng, x, tilde_r(x))
            assert y.config.points != x.config.points
            got, expected, computed = self.snapped(y, x, dists)
            assert got == expected
            assert computed >= len(y.config) * len(x.config)


class TestStratumLabel:
    def test_pair_below_critical(self, named_classes):
        lbl = stratum_label(RanPoint(config_1d(0.0, 1.0), 0.4))
        assert lbl.cls.key == named_classes["two_points"].key
        assert not lbl.degenerate

    def test_pair_at_critical(self, named_classes):
        lbl = stratum_label(RanPoint(config_1d(0.0, 1.0), 0.5))
        assert lbl.cls.key == named_classes["edge"].key
        assert lbl.degenerate
        assert lbl.degenerate_subsets == ((0, 1),)
        assert lbl.whole_config_degenerate

    def test_pair_above_critical(self, named_classes):
        lbl = stratum_label(RanPoint(config_1d(0.0, 1.0), 0.6))
        assert lbl.cls.key == named_classes["edge"].key
        assert not lbl.degenerate

    def test_subset_level_degeneracy(self):
        # radius at the critical value of one pair of three
        lbl = stratum_label(RanPoint(config_1d(0.0, 1.0, 4.0), 0.5))
        assert lbl.degenerate
        assert lbl.degenerate_subsets == ((0, 1),)
        assert not lbl.whole_config_degenerate

    def test_radius_zero_is_not_degenerate(self):
        lbl = stratum_label(RanPoint(config_1d(0.0, 1.0), 0.0))
        assert not lbl.degenerate

    def test_one_scan_per_label(self, scan_calls):
        rng = random.Random(103)
        for k in range(10):
            x = random_ranpoint(rng, engineered_boundary=k % 2 == 1)
            scan_calls.clear()
            stratum_label(x)
            assert len(scan_calls) == 1


class TestContinuity:
    def test_random_perturbations_dominate_center(self):
        rng = random.Random(101)
        for trial in range(60):
            boundary = trial % 3 == 0
            x = random_ranpoint(rng, engineered_boundary=boundary)
            ball = tilde_r(x)
            lbl_x = stratum_label(x)
            if boundary:
                assert ball.case == "boundary"
            for _ in range(4):
                y = perturb_inside(rng, x, ball)
                lbl_y = stratum_label(y)
                m = local_map(y, x)
                assert is_simplicial(m) and m.is_vertex_surjective()
                assert canonical_form(m.source).key == lbl_y.cls.key
                assert canonical_form(m.target).key == lbl_x.cls.key
                assert dominates(lbl_y.cls.canonical, lbl_x.cls.canonical) is not None

    def test_label_constant_on_certified_segments(self):
        # for a generic center, no subset can cross its critical radius inside
        # the safe ball, so equal-cardinality points on the segment share the
        # label of the endpoints
        rng = random.Random(103)
        done = 0
        while done < 25:
            x = random_ranpoint(rng)
            ball = tilde_r(x)
            if ball.case != "generic":
                continue
            y = perturb_inside(rng, x, ball, allow_split=False)
            lbl_y = stratum_label(y)
            for frac in (0.25, 0.5, 0.75):
                pts = tuple(
                    tuple(a + frac * (b - a) for a, b in zip(p, q))
                    for p, q in zip(y.config.points, x.config.points)
                )
                mid = RanPoint(
                    config_2d(pts), y.radius + frac * (x.radius - y.radius)
                )
                if stratum_label(mid).cls.key != lbl_y.cls.key:
                    # only possible when the midpoint label equals the center
                    # class (entered the boundary exactly); exclude
                    assert stratum_label(mid).cls.key == stratum_label(x).cls.key
            done += 1


class TestFrontierCheck:
    def test_two_point_family_violation(self, named_classes):
        family = two_point_line_family()
        cfg = config_1d(0.0, 1.0)
        label_a = stratum_label(RanPoint(cfg, 0.4))
        label_b = stratum_label(RanPoint(cfg, 0.6))
        report = frontier_check(family, label_a, label_b, n_samples=1200, seed=5)
        assert report.verdict == "violated"
        assert report.boundary_witness is not None
        assert report.interior_witness is not None
        # the boundary witness sits at the critical radius of its configuration
        wb = report.boundary_witness
        from cechstrat import meb

        assert wb.radius == pytest.approx(meb(wb.config).radius, abs=1e-9)

    def test_same_label_trivially_satisfied(self):
        family = two_point_line_family()
        lbl = stratum_label(RanPoint(config_1d(0.0, 1.0), 0.4))
        report = frontier_check(family, lbl, lbl, n_samples=10, seed=1)
        assert report.verdict == "satisfied-at-budget"
        assert "trivial" in report.note

    def test_refined_labels_remove_the_violation(self):
        family = two_point_line_family()
        cfg = config_1d(0.0, 1.0)
        label_a = stratum_label(RanPoint(cfg, 0.4))
        label_b = stratum_label(RanPoint(cfg, 0.6))
        report = frontier_check(
            family, label_a, label_b, n_samples=1200, refined=True, seed=5
        )
        assert report.verdict == "satisfied-at-budget"
        assert report.boundary_witness is None

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_no_samples_is_refused(self, n_samples):
        # even for a pair decided without sampling: the budget is checked first
        family = two_point_line_family()
        lbl = stratum_label(RanPoint(config_1d(0.0, 1.0), 0.4))
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}"):
            frontier_check(family, lbl, lbl, n_samples=n_samples)

    def test_incomparable_pair_is_vacuous(self, named_classes):
        family = two_point_line_family()
        cfg = config_1d(0.0, 1.0)
        label_b = stratum_label(RanPoint(cfg, 0.4))
        label_a = stratum_label(RanPoint(cfg, 0.6))  # edge does not dominate 2pts
        report = frontier_check(family, label_a, label_b, n_samples=10, seed=1)
        assert report.verdict == "satisfied-at-budget"
        assert "vacuous" in report.note

    def test_inconclusive_when_stratum_not_sampled(self, named_classes):
        family = two_point_line_family()
        cfg = config_1d(0.0, 1.0)
        label_b = stratum_label(RanPoint(cfg, 0.4))
        # three isolated points dominate two, but the two-point family can
        # never sample that stratum
        label_a = stratum_label(RanPoint(triangle(), 0.1))
        assert label_a.cls.key == named_classes["discrete3"].key
        report = frontier_check(family, label_a, label_b, n_samples=50, seed=1)
        assert report.verdict == "inconclusive"

    @staticmethod
    def pair_labels():
        cfg = config_1d(0.0, 1.0)
        return stratum_label(RanPoint(cfg, 0.4)), stratum_label(RanPoint(cfg, 0.6))

    def test_a_family_that_realizes_no_sample_is_inconclusive(self):
        def refusing(theta):
            raise ValueError("outside the family")

        family = dataclasses.replace(two_point_line_family(), realize=refusing)
        report = frontier_check(family, *self.pair_labels(), n_samples=20, seed=1)
        assert report.verdict == "inconclusive"
        assert (report.samples_a, report.samples_b) == (0, 0)

    def test_an_anchor_the_family_refuses_is_skipped(self):
        family = two_point_line_family()
        outside = (1.0, -0.1)  # a negative radius
        with pytest.raises(ValueError):
            family.realize(outside)
        with_outside = dataclasses.replace(family, anchors=(outside, *family.anchors))
        report = frontier_check(with_outside, *self.pair_labels(), n_samples=300, seed=2)
        assert report.verdict == "violated"
        plain = frontier_check(family, *self.pair_labels(), n_samples=300, seed=2)
        assert report.to_json_dict() == plain.to_json_dict()

    def test_refused_probes_leave_no_witness(self):
        # the family realizes its samples and anchors, then refuses every
        # probe: no ball finds a stratum-a point, and no stratum-b point
        # keeps half its probes, so neither witness is taken
        family = two_point_line_family()
        calls = []

        def stopping(theta):
            calls.append(theta)
            if len(calls) > 300 + len(family.anchors):
                raise ValueError("outside the family")
            return family.realize(theta)

        report = frontier_check(dataclasses.replace(family, realize=stopping),
                                *self.pair_labels(), n_samples=300, seed=2)
        assert report.verdict == "satisfied-at-budget"
        assert report.note == "no stratum-b point adjacent to stratum a was found"
        assert report.boundary_witness is None and report.interior_witness is None
        assert report.samples_a and report.samples_b
        assert len(calls) > 300 + len(family.anchors) + strat._PROBES_PER_LEVEL

    def test_a_window_at_the_frontier_has_no_interior_witness(self):
        # radii within 0.02 of the critical 0.5: every edge point's probe
        # ball holds two-point configurations
        family = dataclasses.replace(two_point_line_family(), lower=(1.0, 0.48),
                                     upper=(1.0, 0.52))
        report = frontier_check(family, *self.pair_labels(), n_samples=100, seed=1)
        assert report.verdict == "satisfied-at-budget"
        assert report.note == "every probed stratum-b point had stratum-a points nearby"
        assert report.boundary_witness is not None and report.interior_witness is None

    def test_report_json_shape(self):
        family = two_point_line_family()
        cfg = config_1d(0.0, 1.0)
        label_a = stratum_label(RanPoint(cfg, 0.4))
        label_b = stratum_label(RanPoint(cfg, 0.6))
        report = frontier_check(family, label_a, label_b, n_samples=400, seed=7)
        data = report.to_json_dict()
        blob = json.loads(json.dumps(data, sort_keys=True))
        assert blob["verdict"] in {"violated", "satisfied-at-budget", "inconclusive"}
        assert isinstance(blob["pair"], list) and len(blob["pair"]) == 2
        assert "witnesses" in blob
